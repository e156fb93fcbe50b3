package bind

import (
	"errors"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/message"
	"starlink/internal/network"
)

func TestSSDPBinderRoundTrips(t *testing.T) {
	b := &SSDPBinder{}
	abs := message.New(DiscoverySearch,
		message.NewPrimitive("st", message.TypeString, "urn:x:Printer:1"),
		message.NewPrimitive("mx", message.TypeInt64, 2),
	)
	packet, err := b.BuildRequest(DiscoverySearch, abs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(packet), "M-SEARCH * HTTP/1.1") {
		t.Errorf("packet = %q", packet[:20])
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != DiscoverySearch {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetString("st"); v != "urn:x:Printer:1" {
		t.Errorf("st = %q", v)
	}
	if v, _ := back.GetInt("mx"); v != 2 {
		t.Errorf("mx = %d", v)
	}

	reply := message.New(DiscoverySearch+".reply",
		message.NewPrimitive("st", message.TypeString, "urn:x:Printer:1"),
		message.NewPrimitive("usn", message.TypeString, "uuid:1"),
		message.NewPrimitive("location", message.TypeString, "http://p/desc.xml"),
	)
	rp, err := b.BuildReply(DiscoverySearch, reply)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := b.ParseReply(DiscoverySearch, rp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rback.GetString("location"); v != "http://p/desc.xml" {
		t.Errorf("location = %q", v)
	}
}

func TestSSDPBinderErrors(t *testing.T) {
	b := &SSDPBinder{}
	if _, err := b.BuildRequest("wrong.action", message.New("x")); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := b.ParseRequest([]byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v", err)
	}
	if _, err := b.ParseReply(DiscoverySearch, []byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v", err)
	}
	// Missing mx defaults to 1.
	abs := message.New(DiscoverySearch, message.NewPrimitive("st", message.TypeString, "urn:y"))
	packet, err := b.BuildRequest(DiscoverySearch, abs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(packet), "MX: 1") {
		t.Errorf("default MX missing: %q", packet)
	}
}

func TestSLPBinderRoundTrips(t *testing.T) {
	b, err := NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	abs := message.New(DiscoverySearch,
		message.NewPrimitive("servicetype", message.TypeString, "service:printer:lpr"),
	)
	packet, err := b.BuildRequest(DiscoverySearch, abs)
	if err != nil {
		t.Fatal(err)
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != DiscoverySearch {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetString("servicetype"); v != "service:printer:lpr" {
		t.Errorf("servicetype = %q", v)
	}
	if v, _ := back.GetString("scope"); v != "DEFAULT" {
		t.Errorf("default scope = %q", v)
	}
	if back.ID != 1 || len(back.Fields) != 2 {
		t.Errorf("parsed %v with ID %d, want servicetype and scope with the binder's first XID, 1", back, back.ID)
	}

	reply := message.New(DiscoverySearch+".reply",
		message.NewStruct("urlentry",
			message.NewPrimitive("url", message.TypeString, "service:printer:lpr://a"),
			message.NewPrimitive("lifetime", message.TypeInt64, 99),
		),
	)
	reply.ID = back.ID
	rp, err := b.BuildReply(DiscoverySearch, reply)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := b.ParseReply(DiscoverySearch, rp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rback.GetString("urlentry.url"); v != "service:printer:lpr://a" {
		t.Errorf("url = %q", v)
	}
	if v, _ := rback.GetInt("urlentry.lifetime"); v != 99 {
		t.Errorf("lifetime = %d", v)
	}
	if concrete, err := b.codec.Parse(rp); err != nil {
		t.Fatal(err)
	} else if xid, _ := concrete.GetInt("XID"); uint64(xid) != back.ID {
		t.Errorf("reply XID = %d, want the request's %d", xid, back.ID)
	}
}

// TestSLPBinderXIDWraps: the request counter wraps with the 16-bit XID
// field, so lookups keep round-tripping past the 65 535th.
func TestSLPBinderXIDWraps(t *testing.T) {
	b, err := NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	b.nextXID.Store(65534)
	abs := message.New(DiscoverySearch,
		message.NewPrimitive("servicetype", message.TypeString, "service:printer:lpr"),
	)
	for i, want := range []uint64{65535, 0, 1, 2} {
		packet, err := b.BuildRequest(DiscoverySearch, abs)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		_, req, err := b.ParseRequest(packet)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if req.ID != want {
			t.Errorf("lookup %d: xid = %d, want %d", i, req.ID, want)
		}
		answer := message.New(DiscoverySearch+".reply",
			message.NewStruct("urlentry",
				message.NewPrimitive("url", message.TypeString, "service:printer:lpr://a"),
				message.NewPrimitive("lifetime", message.TypeInt64, 99),
			),
		)
		answer.ID = req.ID
		rp, err := b.BuildReply(DiscoverySearch, answer)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		reply, err := b.ParseReply(DiscoverySearch, rp)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if v, _ := reply.GetString("urlentry.url"); v != "service:printer:lpr://a" {
			t.Errorf("lookup %d: url = %q", i, v)
		}
	}
}

func TestSLPBinderErrors(t *testing.T) {
	b, err := NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BuildRequest("zap", message.New("x")); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := b.ParseRequest([]byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v", err)
	}
	if _, err := b.ParseReply(DiscoverySearch, []byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v", err)
	}
	// A request packet on the reply path is rejected.
	req, _ := b.BuildRequest(DiscoverySearch, message.New(DiscoverySearch,
		message.NewPrimitive("servicetype", message.TypeString, "x")))
	if _, err := b.ParseReply(DiscoverySearch, req); !errors.Is(err, ErrBadMessage) {
		t.Errorf("request-as-reply err = %v", err)
	}
	// Error-code replies are rejected.
	errReply := message.New(DiscoverySearch + ".reply")
	errReply.ID = 1
	packet, err := b.BuildReply(DiscoverySearch, errReply)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ParseReply(DiscoverySearch, packet); err != nil {
		t.Fatalf("empty reply should parse (code 0): %v", err)
	}
}

func TestDatagramFramer(t *testing.T) {
	slp, err := NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Binder{&SSDPBinder{}, slp} {
		if sem := network.SemanticsOf(b.Framer()); sem.Transport != "udp" {
			t.Errorf("%T travels over %q, want udp", b, sem.Transport)
		}
	}
	f := (&SSDPBinder{}).Framer()
	if _, err := f.ReadMessage(nil); err == nil {
		t.Error("stream read accepted")
	}
	var sb strings.Builder
	if err := f.WriteMessage(&sb, []byte("x")); err != nil || sb.String() != "x" {
		t.Errorf("write = %q, %v", sb.String(), err)
	}
}

func TestJSONRPCBinderRequestRoundTrip(t *testing.T) {
	b := &JSONRPCBinder{Path: "/jsonrpc", Defs: map[string]automata.MsgDef{
		"op": {Name: "op", Fields: []string{"alpha", "beta"}},
	}}
	abs := message.New("op",
		message.NewPrimitive("alpha", message.TypeString, "a"),
		message.NewPrimitive("beta", message.TypeInt64, 2),
	)
	packet, err := b.BuildRequest("op", abs)
	if err != nil {
		t.Fatal(err)
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != "op" {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetString("alpha"); v != "a" {
		t.Errorf("alpha = %q", v)
	}
	if v, _ := back.GetInt("beta"); v != 2 {
		t.Errorf("beta = %d", v)
	}
	if back.ID != 1 || len(back.Fields) != 2 {
		t.Errorf("parsed %v with ID %d, want alpha and beta with the binder's first id, 1", back, back.ID)
	}
}

func TestJSONRPCBinderPositionalParams(t *testing.T) {
	b := &JSONRPCBinder{Path: "/j", Defs: map[string]automata.MsgDef{
		"add": {Name: "add", Fields: []string{"x", "y"}},
	}}
	raw := `{"method":"add","params":[20,22.5,true],"id":3}`
	packet := []byte("POST /j HTTP/1.1\r\nContent-Length: " + itoa(len(raw)) + "\r\n\r\n" + raw)
	action, abs, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != "add" {
		t.Errorf("action = %q", action)
	}
	if v, _ := abs.GetInt("x"); v != 20 {
		t.Errorf("x = %d", v)
	}
	if v, _ := abs.Get("y"); v != 22.5 {
		t.Errorf("y = %v", v)
	}
	if v, _ := abs.Get("param3"); v != true {
		t.Errorf("param3 = %v", v)
	}
}

func TestJSONRPCBinderReplyRoundTrips(t *testing.T) {
	b := &JSONRPCBinder{Path: "/j"}
	reply := message.New("op.reply",
		message.NewArray("photos",
			message.NewStruct("item", message.NewPrimitive("id", message.TypeString, "p1")),
		),
		message.NewPrimitive("total", message.TypeInt64, 1),
	)
	reply.ID = 5
	packet, err := b.BuildReply("op", reply)
	if err != nil {
		t.Fatal(err)
	}
	back, err := b.ParseReply("op", packet)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.GetString("photos.item[0].id"); v != "p1" {
		t.Errorf("photos = %v", back)
	}
	if v, _ := back.GetInt("total"); v != 1 {
		t.Errorf("total = %d", v)
	}
	if id, _ := jsonrpcID(t, packet); id != 5 {
		t.Errorf("reply id = %d, want 5", id)
	}

	// Scalar result convention.
	scalar := message.New("op.reply",
		message.NewPrimitive("result", message.TypeInt64, 42),
	)
	scalar.ID = 6
	sp, err := b.BuildReply("op", scalar)
	if err != nil {
		t.Fatal(err)
	}
	sback, err := b.ParseReply("op", sp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sback.GetInt("result"); v != 42 {
		t.Errorf("result = %d", v)
	}
}

func TestJSONRPCBinderErrors(t *testing.T) {
	b := &JSONRPCBinder{Path: "/j"}
	if _, _, err := b.ParseRequest([]byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v", err)
	}
	if _, err := b.ParseReply("op", []byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v", err)
	}
}
