//go:build race

package mtl

// poison is set under the race detector, where Env.Reset leaves the nodes
// it takes back poisoned (store.reset), so that `make race` runs every
// translation over storage a tree kept past its flow would show up in.
var poison = true
