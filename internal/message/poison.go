//go:build race

package message

// Poison says whether Store.Reset leaves what it takes back poisoned. It
// is set under the race detector, so that `make race` runs every flow over
// storage a message kept past its flow would show up in; a test may set it
// to see such a message show.
var Poison = true
