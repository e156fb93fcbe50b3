package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// NoLeaks runs fn and asserts every goroutine it started is gone
// afterwards. Shutdown is asynchronous in places (probe loops winding
// down, drains completing), so the check polls until the goroutine
// count returns to its baseline or five seconds pass; on failure it
// dumps all stacks so the leaked loop is identifiable. Use it to pin
// the lifecycle contracts of anything that spawns background work:
//
//	testutil.NoLeaks(t, func() {
//		set, _ := backend.New(...)
//		set.Start()
//		set.Close()
//	})
//
// The count-based check is deliberately simple — it can be fooled by
// unrelated goroutines exiting mid-test — so keep fn self-contained.
func NoLeaks(t testing.TB, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d before, %d after; stacks:\n%s",
		before, runtime.NumGoroutine(), summarize(string(buf[:n])))
}

// summarize trims the stack dump to the goroutine headers plus their
// top frames — enough to name the leak without pages of noise.
func summarize(stacks string) string {
	var b strings.Builder
	for _, g := range strings.Split(stacks, "\n\n") {
		lines := strings.Split(g, "\n")
		if len(lines) > 5 {
			lines = lines[:5]
		}
		b.WriteString(strings.Join(lines, "\n"))
		b.WriteString("\n\n")
	}
	return b.String()
}
