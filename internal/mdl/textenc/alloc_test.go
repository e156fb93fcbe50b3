package textenc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"starlink/internal/message"
	"starlink/internal/testutil"
)

// TestParseAllocBudget pins what parsing an HTTP response costs, whatever
// its number of headers: the head copy, the slab's nodes and its lists, the
// message, and the pointer a TypeBytes body keeps the packet's tail behind —
// 5. The interpreter, which made a node per field and header as it read and
// grew the lists they went on, made 19 for one header and 29 for eight.
func TestParseAllocBudget(t *testing.T) {
	c := mustCodec(t, httpDoc)
	for _, headers := range []int{1, 8} {
		var raw strings.Builder
		raw.WriteString("HTTP/1.1 200 OK\r\n")
		for i := 0; i < headers; i++ {
			fmt.Fprintf(&raw, "X-Header-%d: value %d\r\n", i, i)
		}
		raw.WriteString("\r\n<feed/>")
		packet := []byte(raw.String())
		allocs := testing.AllocsPerRun(200, func() {
			if msg, err := c.Parse(packet); err != nil || msg.Name != "HTTPResponse" || len(msg.Field("Headers").Children) != headers {
				t.Fatal(msg, err)
			}
		})
		if testutil.RaceEnabled {
			t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
		}
		if allocs > 5 {
			t.Errorf("parsing a response with %d headers allocated %.1f times per op, budget 5", headers, allocs)
		}
	}
}

// TestComposeAllocBudget pins what composing a request costs when its
// Target is rebuilt from Path and Query, as the REST binder's requests are:
// the packet, and nothing else. Through url.Values and the strings it made
// on the way it was 15.
func TestComposeAllocBudget(t *testing.T) {
	c := mustCodec(t, httpDoc)
	msg := message.New("HTTPRequest",
		message.NewString("Method", "GET"),
		message.NewString("Version", "HTTP/1.1"),
		message.NewString("Path", "/data/feed/api/all"),
		message.NewStruct("Headers", message.NewString("Accept", "application/atom+xml")),
		message.NewStruct("Query",
			message.NewString("q", "tall tree"),
			message.NewString("max-results", "3"),
			message.NewString("q", "oak"),
		),
		message.NewString("Body", ""),
	)
	allocs := testing.AllocsPerRun(200, func() {
		if wire, err := c.Compose(msg); err != nil || !bytes.HasPrefix(wire, []byte("GET /data/feed/api/all?max-results=3&q=tall+tree&q=oak HTTP/1.1\r\n")) {
			t.Fatal(string(wire), err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 1 {
		t.Errorf("composing a request allocated %.1f times per op, budget 1", allocs)
	}
}
