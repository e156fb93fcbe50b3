package slp

import (
	"errors"
	"testing"
)

func startDA(t *testing.T) *DirectoryAgent {
	t.Helper()
	da, err := NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { da.Close() })
	da.Register("service:printer:lpr", URLEntry{URL: "service:printer:lpr://printer1.example", Lifetime: 300})
	da.Register("service:printer:lpr", URLEntry{URL: "service:printer:lpr://printer2.example", Lifetime: 600})
	da.Register("service:scanner:sane", URLEntry{URL: "service:scanner:sane://scan.example", Lifetime: 120})
	return da
}

func TestFindRegisteredServices(t *testing.T) {
	da := startDA(t)
	c, err := Dial(da.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.Find("service:printer:lpr", "DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].URL != "service:printer:lpr://printer1.example" || entries[0].Lifetime != 300 {
		t.Errorf("entry0 = %+v", entries[0])
	}
	// Case-insensitive service type matching.
	entries, err = c.Find("SERVICE:Scanner:SANE", "DEFAULT")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("scanner entries = %+v", entries)
	}
}

func TestFindUnknownType(t *testing.T) {
	da := startDA(t)
	c, err := Dial(da.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Find("service:fax:none", "DEFAULT"); !errors.Is(err, ErrRemote) {
		t.Errorf("err = %v, want ErrRemote", err)
	}
}

func TestMultipleClients(t *testing.T) {
	da := startDA(t)
	for i := 0; i < 3; i++ {
		c, err := Dial(da.Addr())
		if err != nil {
			t.Fatal(err)
		}
		entries, err := c.Find("service:printer:lpr", "DEFAULT")
		c.Close()
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if len(entries) != 2 {
			t.Errorf("client %d entries = %d", i, len(entries))
		}
	}
}

func TestXIDIncrements(t *testing.T) {
	da := startDA(t)
	c, err := Dial(da.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Find("service:printer:lpr", "DEFAULT"); err != nil {
			t.Fatal(err)
		}
	}
	if c.nextXID != 4 {
		t.Errorf("nextXID = %d", c.nextXID)
	}
}

// TestXIDWraps: the XID field is 16 bits wide, so the 65 536th lookup of
// one client reuses XID 0 instead of failing to compose.
func TestXIDWraps(t *testing.T) {
	da := startDA(t)
	c, err := Dial(da.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.nextXID = 65534
	for i := 0; i < 4; i++ {
		entries, err := c.Find("service:printer:lpr", "DEFAULT")
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if len(entries) != 2 {
			t.Errorf("lookup %d: entries = %d, want 2", i, len(entries))
		}
	}
	if c.nextXID != 2 {
		t.Errorf("nextXID = %d, want 2 after wrapping", c.nextXID)
	}
}

func TestWireMessagesRoundTrip(t *testing.T) {
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(9, "service:printer:lpr", "DEFAULT")
	wire, err := codec.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	// RFC layout sanity: version 2, function 1.
	if wire[0] != 2 || wire[1] != 1 {
		t.Errorf("header = %v", wire[:2])
	}
	back, err := codec.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := back.GetString("ServiceType"); st != "service:printer:lpr" {
		t.Errorf("ServiceType = %q", st)
	}
	reply := NewReply(9, 0, []URLEntry{{URL: "service:x://a", Lifetime: 10}})
	wire2, err := codec.Compose(reply)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := codec.Parse(wire2)
	if err != nil {
		t.Fatal(err)
	}
	entries := EntriesOf(back2)
	if len(entries) != 1 || entries[0].URL != "service:x://a" || entries[0].Lifetime != 10 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestEntriesOfMissingArray(t *testing.T) {
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(1, "x", "DEFAULT")
	if got := EntriesOf(req); got != nil {
		t.Errorf("EntriesOf(request) = %+v", got)
	}
	_ = codec
}

func TestDACloseIdempotent(t *testing.T) {
	da, err := NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := da.Close(); err != nil {
		t.Fatal(err)
	}
	if err := da.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDialsShareOneCompile: the embedded MDL is parsed and compiled once
// per process, whatever dials and whichever agents start.
func TestDialsShareOneCompile(t *testing.T) {
	da := startDA(t)
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	if da.codec != codec {
		t.Error("NewDirectoryAgent compiled a codec of its own")
	}
	for i := 0; i < 8; i++ {
		c, err := Dial(da.Addr())
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
