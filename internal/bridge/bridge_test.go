package bridge_test

import (
	"strconv"
	"testing"

	"starlink/internal/bind"
	"starlink/internal/bridge"
	"starlink/internal/casestudy"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// TestBridgeWorksWhenApplicationsAgree shows the baseline's happy path:
// when both sides implement the SAME operation names and parameters, a
// protocol-only bridge connects an XML-RPC client to a SOAP service.
func TestBridgeWorksWhenApplicationsAgree(t *testing.T) {
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Add": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	br := bridge.New(
		&bind.XMLRPCBinder{Path: "/xml-rpc"},
		&bind.SOAPBinder{Path: "/soap"},
		srv.Addr(),
	)
	if err := br.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	c := xmlrpc.NewClient(br.Addr(), "/xml-rpc")
	defer c.Close()
	// The XML-RPC client's struct param flattens to named SOAP elements.
	v, err := c.Call("Add", map[string]xmlrpc.Value{"x": int64(20), "y": int64(22)})
	if err != nil {
		t.Fatal(err)
	}
	// A single "result" parameter crosses the bridge as a scalar result.
	if v != "42" {
		t.Errorf("bridged Add = %#v", v)
	}
}

// TestBridgeAnswersUnderTheRequestID: a client whose protocol correlates
// a reply with its request, here GIOP, gets the reply under the id of the
// request it sent; the service's own id stays on the service's side.
func TestBridgeAnswersUnderTheRequestID(t *testing.T) {
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Add": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	br := bridge.New(giopBinder, &bind.SOAPBinder{Path: "/soap"}, srv.Addr())
	if err := br.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	c, err := giop.Dial(br.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The client checks each reply's RequestID against its request's.
	for i := 0; i < 2; i++ {
		results, err := c.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].ValueString() != "42" {
			t.Errorf("bridged Add = %v", results)
		}
	}
}

// TestBridgeBreaksOnApplicationHeterogeneity is the paper's Section 1
// claim made executable: the same direct bridge, pointed at the Picasa
// service, cannot serve a Flickr client — the operation names and
// resource model differ, and the protocol-level identity mapping has no
// way to reconcile them. This is the control of experiment E7: the
// Starlink mediator serves this exact workload in the engine's
// TestE5E6E7XMLRPCFullCaseStudy.
func TestBridgeBreaksOnApplicationHeterogeneity(t *testing.T) {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()

	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	br := bridge.New(
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages},
		restBinder,
		pic.Addr(),
	)
	if err := br.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	c := xmlrpc.NewClient(br.Addr(), "/services/xmlrpc")
	defer c.Close()
	// flickr.photos.search does not exist in the Picasa API: the identity
	// mapping finds no route and the call fails.
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"api_key": "k", "text": "tree",
	}); err == nil {
		t.Fatal("protocol-only bridge served a heterogeneous application: should be impossible")
	}
}

func TestBridgeCloseIdempotent(t *testing.T) {
	br := bridge.New(&bind.SOAPBinder{Path: "/a"}, &bind.SOAPBinder{Path: "/b"}, "127.0.0.1:1")
	if err := br.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
}
