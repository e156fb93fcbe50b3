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

// TestParseAllocBudget pins what parsing a GIOP packet costs. A layout's
// fields are one slab of nodes and one list of pointers to them, sized by
// the plan, and the parameters of a cdrseq another of each, sized by its
// count; Magic is the layout's own string. So a request is the message, the
// two slabs twice, the Operation string and the ObjectKey's bytes with the
// pointer a TypeBytes field keeps them behind: 8, whatever the number of
// header fields (it was 29, a node at a time). A reply is the message and
// the two slabs twice: 5 (it was 30), and pays nothing for the request
// layout, which MessageType=0 at byte 7 turns away before anything is made.
// The budgets leave one allocation of room.
func TestParseAllocBudget(t *testing.T) {
	c := mustCodec(t, giopDoc)
	for _, tc := range []struct {
		name   string
		msg    *message.Message
		budget float64
	}{
		{"request", giopRequest(), 9},
		{"reply", giopReply(), 6},
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
