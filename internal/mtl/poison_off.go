//go:build !race

package mtl

// poison is off without the race detector; see poison.go.
var poison = false
