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
// sent for it (kept for replay) is held, and no packet buffer is.
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
	if s.lastRecv != nil || s.recvBuf.p != nil || s.replyBuf.p != nil {
		t.Errorf("parked session holds %d bytes of its last packet, receive buffer %v, reply buffer %v",
			len(s.lastRecv), s.recvBuf.p != nil, s.replyBuf.p != nil)
	}
	for _, l := range s.links {
		if l.reqBuf.p != nil {
			t.Errorf("parked session's link to color %d holds its last request's buffer", l.color)
		}
	}
}
