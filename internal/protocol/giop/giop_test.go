package giop

import (
	"errors"
	"fmt"
	"testing"

	"starlink/internal/message"
)

func calcHandler(objectKey, operation string, params []*message.Field) ([]*message.Field, error) {
	if objectKey != "calc" {
		return nil, fmt.Errorf("unknown object %q", objectKey)
	}
	get := func(i int) int64 {
		return params[i].Int64()
	}
	switch operation {
	case "Add":
		if len(params) != 2 {
			return nil, errors.New("Add wants 2 params")
		}
		return []*message.Field{IntParam(get(0) + get(1))}, nil
	case "Describe":
		return []*message.Field{StringParam("calculator"), BoolParam(true), DoubleParam(1.5)}, nil
	default:
		return nil, fmt.Errorf("unknown operation %q", operation)
	}
}

func startCalc(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", calcHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestE3InvokeAdd(t *testing.T) {
	// E3: the IIOP client behaviour of Fig. 4(a) — synchronous GIOP
	// request/reply over TCP.
	srv := startCalc(t)
	c, err := Dial(srv.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Invoke("Add", IntParam(20), IntParam(22))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Value() != int64(42) {
		t.Errorf("Add = %+v", results)
	}
	// Several invocations on the same connection: request ids advance.
	for i := int64(0); i < 5; i++ {
		results, err := c.Invoke("Add", IntParam(i), IntParam(i))
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Value() != 2*i {
			t.Errorf("Add(%d,%d) = %v", i, i, results[0].Value())
		}
	}
}

func TestMixedResultTypes(t *testing.T) {
	srv := startCalc(t)
	c, err := Dial(srv.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Invoke("Describe")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Value() != "calculator" || results[1].Value() != true || results[2].Value() != 1.5 {
		t.Errorf("values = %v %v %v", results[0].Value(), results[1].Value(), results[2].Value())
	}
}

func TestRemoteException(t *testing.T) {
	srv := startCalc(t)
	c, err := Dial(srv.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("Nope"); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown op err = %v", err)
	}
	if _, err := c.Invoke("Add", IntParam(1)); !errors.Is(err, ErrRemote) {
		t.Errorf("bad arity err = %v", err)
	}
	c2, err := Dial(srv.Addr(), "wrong-object")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Invoke("Add", IntParam(1), IntParam(2)); !errors.Is(err, ErrRemote) {
		t.Errorf("wrong object err = %v", err)
	}
}

// TestRequestReplyMessagesWellFormed is the codec half of experiment E3: a
// GIOPRequest composed by the binary-MDL engine parses back with its
// operation and its CDR parameters intact (Figs. 4-5), and so does a reply.
func TestRequestReplyMessagesWellFormed(t *testing.T) {
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(9, "calc", "Add", []*message.Field{IntParam(20), IntParam(22)})
	wire, err := codec.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "GIOPRequest" {
		t.Errorf("parsed %q", back.Name)
	}
	if op, _ := back.GetString("Operation"); op != "Add" {
		t.Errorf("operation = %q", op)
	}
	p0, _ := back.GetInt("ParameterArray.Parameter[0]")
	p1, _ := back.GetInt("ParameterArray.Parameter[1]")
	if p0 != 20 || p1 != 22 {
		t.Errorf("parameters = %d, %d: the round trip lost data", p0, p1)
	}
	reply := NewReply(9, StatusNoException, []*message.Field{IntParam(3)})
	wire2, err := codec.Compose(reply)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := codec.Parse(wire2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Name != "GIOPReply" {
		t.Errorf("parsed %q", back2.Name)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", calcHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "calc"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func BenchmarkInvokeAdd(b *testing.B) {
	srv, err := Serve("127.0.0.1:0", calcHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "calc")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke("Add", IntParam(20), IntParam(22)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDialsShareOneCompile: the embedded MDL is parsed and compiled once
// per process, whatever dials and serves.
func TestDialsShareOneCompile(t *testing.T) {
	srv := startCalc(t)
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c, err := Dial(srv.Addr(), "calc")
		if err != nil {
			t.Fatal(err)
		}
		if c.codec != codec {
			t.Errorf("dial %d compiled a codec of its own", i)
		}
		c.Close()
	}
	if allocs := testing.AllocsPerRun(10, func() { NewCodec() }); allocs != 0 {
		t.Errorf("NewCodec allocated %.0f times after the first call", allocs)
	}
}
