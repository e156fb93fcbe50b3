// Package models holds the case-study model files — the source of every
// automaton, MDL document, route table, vocabulary table and deployment
// spec this repository mediates with (README.md lists them) — and embeds
// them, so that a binary or a test reaches them without a directory.
package models

import "embed"

// FS is the model files of this directory, as core.LoadModelsFS reads
// them.
//
//go:embed *.xml *.mdl *.routes *.equiv *.typemap *.mediator *.gateway
var FS embed.FS
