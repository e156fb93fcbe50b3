//go:build !race

package message

// Poison is off without the race detector; see poison.go.
var Poison = false
