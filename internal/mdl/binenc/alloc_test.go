package binenc

import (
	"testing"

	"starlink/internal/message"
	"starlink/internal/testutil"
)

func giopReply() *message.Message {
	return message.New("GIOPReply",
		message.NewPrimitive("Magic", message.TypeString, "GIOP"),
		message.NewPrimitive("VersionMajor", message.TypeUint64, 1),
		message.NewPrimitive("VersionMinor", message.TypeUint64, 0),
		message.NewPrimitive("Flags", message.TypeUint64, 0),
		message.NewPrimitive("MessageType", message.TypeUint64, 1),
		message.NewPrimitive("MessageSize", message.TypeUint64, 0),
		message.NewPrimitive("RequestID", message.TypeUint64, 1<<20),
		message.NewPrimitive("ReplyStatus", message.TypeUint64, 0),
		message.NewArray("ParameterArray",
			message.NewPrimitive("Parameter", message.TypeInt64, 1<<40),
		),
	)
}

// TestParseAllocBudget pins what parsing a GIOP packet costs. An integer
// field is its node and nothing beside it — the value is in the node — so a
// request is its 15 nodes, the three byte runs copied out of the packet
// with what each becomes (two strings, one bytes pointer), the message, and
// the two lists as they grow: 29. A reply, whose layout comes second, is 19
// by the same count, and pays for the request layout only the five fields
// read before MessageType=0 turns it away: no parse to the end, no error
// formatted on the way out.
func TestParseAllocBudget(t *testing.T) {
	c := mustCodec(t, giopDoc)
	for _, tc := range []struct {
		name   string
		msg    *message.Message
		budget float64
	}{
		{"request", giopRequest(), 29},
		{"reply", giopReply(), 30},
	} {
		wire, err := c.Compose(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if msg, err := c.Parse(wire); err != nil || msg.Name != tc.msg.Name {
				t.Fatal(msg, err)
			}
		})
		if testutil.RaceEnabled {
			t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
		}
		if allocs > tc.budget {
			t.Errorf("parsing a GIOP %s allocated %.1f times per op, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
