package engine

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
)

// TestParkedSessionHoldsNoPacket: a keep-alive client parked between flows
// keeps no packet alive. The Add flow's service reply here carries a 1 MiB
// note; once the client has its answer and the session waits for the next
// request, neither that reply (the last packet received) nor the request
// sent for it (kept for replay) is held, and no packet buffer is: the
// session holds no flow state, and the one it gave back holds none.
func TestParkedSessionHoldsNoPacket(t *testing.T) {
	note := strings.Repeat("n", 1<<20)
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			sum := 0
			for _, p := range params {
				n, _ := strconv.Atoi(p.Value)
				sum += n
			}
			return []soap.Param{{Name: "result", Value: strconv.Itoa(sum)}, {Name: "note", Value: note}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name: "Add+Plus", Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{Merged: merged, Sides: map[int]*Side{
		1: {Binder: giopBinder},
		2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: srv.Addr()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.StartDetached(); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	client, conn := network.Pipe(network.GIOPFramer{})
	s := med.newSession(conn)
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		s.run()
	}()
	defer func() {
		client.Close()
		<-ended
	}()
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	request, err := codec.Compose(giop.NewRequest(1, "calc", "Add", []*message.Field{giop.IntParam(20), giop.IntParam(22)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(request); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}

	// The session parks itself under med.mu before it waits for the next
	// request; what it held is read under the same lock.
	deadline := time.Now().Add(5 * time.Second)
	for {
		med.mu.Lock()
		_, parked := med.idle[conn]
		if parked {
			break
		}
		med.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the session never parked")
		}
		time.Sleep(time.Millisecond)
	}
	defer med.mu.Unlock() // before the client is closed and the session ends
	if s.flow != 2 {
		t.Fatalf("parked in flow %d, want 2", s.flow)
	}
	// The parked session holds no flow state: the one its flow took is the
	// mediator's again, and holds no packet either.
	if len(med.spares) != 1 {
		t.Fatalf("the mediator keeps %d flow states, want the one the flow gave back", len(med.spares))
	}
	f := med.spares[0]
	if f.session != nil || f.lastRecv != nil || f.recvBuf.p != nil || f.replyBuf.p != nil {
		t.Errorf("the flow state given back keeps session %v, %d bytes of its last packet, receive buffer %v, reply buffer %v",
			f.session != nil, len(f.lastRecv), f.recvBuf.p != nil, f.replyBuf.p != nil)
	}
	for _, l := range f.links {
		if l.reqBuf.p != nil || l.conn != nil {
			t.Errorf("the link to color %d given back holds its last request's buffer (%v) or a connection (%v)", l.color, l.reqBuf.p != nil, l.conn != nil)
		}
	}
}
