package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/network"
	"starlink/internal/observe"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// newFlickrMediator builds a Flickr -> Picasa REST mediator (XML-RPC or
// SOAP client side, per binder), started detached.
func newFlickrMediator(merged *automata.Merged, binder bind.Binder, picasaAddr string) (*engine.Mediator, error) {
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		return nil, err
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		return nil, err
	}
	med, err := engine.New(engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: binder},
			2: {Binder: restBinder, Target: picasaAddr},
		},
		HostMap: map[string]string{casestudy.PicasaHost: picasaAddr},
	})
	if err != nil {
		return nil, err
	}
	if err := med.StartDetached(); err != nil {
		med.Close()
		return nil, err
	}
	return med, nil
}

// E14 soaks the mediation gateway: THREE heterogeneous mediators (GIOP
// Add->SOAP Plus, XML-RPC Flickr->Picasa REST, SOAP Flickr->Picasa
// REST) behind ONE front-door listener, clients of all three protocols
// routed purely by wire sniffing. Mid-soak the calculator route is
// hot-reloaded — built anew, swapped atomically, the old mediator
// drained — while a pinned client keeps invoking through the swap with
// zero lost flows. A flow-cap shed phase then checks over-limit IIOP
// clients get a protocol-correct GIOP system exception, fast. The
// gateway's metrics endpoint is scraped for the per-route counters.
func E14() Result {
	const flowCap = 8
	r := Result{ID: "E14", Artifact: "gateway multiplex+reload"}

	plus, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperation)
	if err != nil {
		r.Err = err
		return r
	}
	defer plus.Close()
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		r.Err = err
		return r
	}
	defer pic.Close()

	calcMed, err := newAddMediator("", plus.Addr(), nil)
	if err != nil {
		r.Err = err
		return r
	}
	defer calcMed.Close()
	xmlMed, err := newFlickrMediator(casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}, pic.Addr())
	if err != nil {
		r.Err = err
		return r
	}
	defer xmlMed.Close()
	soapMed, err := newFlickrMediator(casestudy.SOAPMediator(),
		&bind.SOAPBinder{Path: "/services/soap"}, pic.Addr())
	if err != nil {
		r.Err = err
		return r
	}
	defer soapMed.Close()

	gw, err := gateway.New(gateway.Config{Routes: []gateway.RouteConfig{
		{Name: "calc", Match: gateway.Matcher{Class: gateway.ClassGIOP},
			Admission: gateway.AdmissionPolicy{MaxFlows: flowCap},
			Framer:    network.GIOPFramer{}, Target: calcMed},
		{Name: "xmlrpc", Match: gateway.Matcher{Class: gateway.ClassHTTP, PathPrefix: "/services/xmlrpc"},
			Framer: network.HTTPFramer{}, Target: xmlMed},
		{Name: "soap", Match: gateway.Matcher{Class: gateway.ClassHTTP, PathPrefix: "/services/soap"},
			Framer: network.HTTPFramer{}, Target: soapMed},
	}})
	if err != nil {
		r.Err = err
		return r
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		r.Err = err
		return r
	}
	defer gw.Close()
	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{
		Registry: observe.GatewayRegistry(gw),
	})
	if err != nil {
		r.Err = err
		return r
	}
	defer admin.Close()

	// Soak: concurrent clients of all three protocols through the one
	// listener, while a pinned GIOP client invokes continuously and the
	// calc route is hot-swapped under it.
	var (
		wg       sync.WaitGroup
		pinnedWg sync.WaitGroup
		soakErrs = make(chan error, 16)
		pinned   atomic.Int64 // flows completed by the pinned client
		stop     = make(chan struct{})
	)
	pinnedWg.Add(1)
	go func() { // the pinned client that must survive the swap
		defer pinnedWg.Done()
		client, err := giop.Dial(gw.Addr(), "calc")
		if err != nil {
			soakErrs <- err
			return
		}
		defer client.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
			if err != nil {
				soakErrs <- fmt.Errorf("pinned client: %w", err)
				return
			}
			if got := results[0].ValueString(); got != "42" {
				soakErrs <- fmt.Errorf("pinned client: Add = %s", got)
				return
			}
			pinned.Add(1)
		}
	}()
	const perProto = 4
	for i := 0; i < perProto; i++ {
		wg.Add(2)
		go func(n int) {
			defer wg.Done()
			c := xmlrpc.NewClient(gw.Addr(), "/services/xmlrpc")
			defer c.Close()
			v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
				"text": "tree", "per_page": int64(1),
			})
			if err != nil {
				soakErrs <- fmt.Errorf("xmlrpc client: %w", err)
				return
			}
			if photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value); len(photos) != 1 {
				soakErrs <- fmt.Errorf("xmlrpc photos = %d", len(photos))
			}
		}(i)
		go func(n int) {
			defer wg.Done()
			c := soap.NewClient(gw.Addr(), "/services/soap")
			defer c.Close()
			if _, err := c.Call(casestudy.FlickrSearch,
				soap.Param{Name: "api_key", Value: "k"},
				soap.Param{Name: "text", Value: "tree"},
				soap.Param{Name: "per_page", Value: "1"},
			); err != nil {
				soakErrs <- fmt.Errorf("soap client: %w", err)
			}
		}(i)
	}

	// waitPinned blocks until the pinned client has completed n flows,
	// surfacing the soak error instead of spinning forever if it died.
	waitPinned := func(n int64) error {
		deadline := time.Now().Add(10 * time.Second)
		for pinned.Load() < n {
			if time.Now().After(deadline) {
				select {
				case err := <-soakErrs:
					return err
				default:
				}
				return fmt.Errorf("pinned client stalled at %d flows (want %d)", pinned.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// Hot reload mid-soak: build the replacement, swap, drain the old.
	if err := waitPinned(5); err != nil { // make sure traffic is genuinely in flight
		r.Err = err
		return r
	}
	calcMed2, err := newAddMediator("", plus.Addr(), nil)
	if err != nil {
		r.Err = err
		return r
	}
	defer calcMed2.Close()
	oldTarget, err := gw.Swap("calc", calcMed2)
	if err != nil {
		r.Err = err
		return r
	}
	// The pinned client's established connection keeps flowing on the
	// swapped-out mediator; a fresh dial lands on the replacement.
	if err := waitPinned(pinned.Load() + 5); err != nil {
		r.Err = err
		return r
	}
	fresh, err := giop.Dial(gw.Addr(), "calc")
	if err != nil {
		r.Err = err
		return r
	}
	if _, err := fresh.Invoke("Add", giop.IntParam(20), giop.IntParam(22)); err != nil {
		fresh.Close()
		r.Err = fmt.Errorf("fresh client after swap: %w", err)
		return r
	}
	fresh.Close()
	if st := calcMed2.Stats(); st.Flows == 0 {
		r.Err = errors.New("replacement mediator served no flows after the swap")
		return r
	}
	// Stop the soak clients BEFORE draining: Shutdown harvests sessions
	// parked idle between flows by closing their keep-alive conns, so a
	// client that kept invoking would race the harvest.
	close(stop)
	pinnedWg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := oldTarget.(*engine.Mediator).Shutdown(ctx); err != nil {
		r.Err = fmt.Errorf("draining swapped-out mediator: %w", err)
		return r
	}
	wg.Wait()
	close(soakErrs)
	if err := <-soakErrs; err != nil {
		r.Err = err
		return r
	}
	if st := oldTarget.(*engine.Mediator).Stats(); st.Failures != 0 {
		r.Err = fmt.Errorf("old mediator failures = %d after drain, want 0", st.Failures)
		return r
	}

	// Shed phase: fill the calc route's flow cap with held connections,
	// then one more invocation must be refused with a GIOP system
	// exception — quickly, not by stalling.
	held := make([]*giop.Client, 0, flowCap)
	for i := 0; i < flowCap; i++ {
		c, err := giop.Dial(gw.Addr(), "calc")
		if err != nil {
			r.Err = err
			return r
		}
		held = append(held, c)
		if _, err := c.Invoke("Add", giop.IntParam(1), giop.IntParam(1)); err != nil {
			r.Err = fmt.Errorf("filling flow cap: %w", err)
			return r
		}
	}
	over, err := giop.Dial(gw.Addr(), "calc")
	if err != nil {
		r.Err = err
		return r
	}
	shedStart := time.Now()
	_, shedErr := over.Invoke("Add", giop.IntParam(1), giop.IntParam(1))
	shedLatency := time.Since(shedStart)
	over.Close()
	for _, c := range held {
		c.Close()
	}
	if shedErr == nil {
		r.Err = errors.New("over-cap invocation succeeded, want a shed")
		return r
	}
	if !strings.Contains(shedErr.Error(), "over capacity") {
		r.Err = fmt.Errorf("shed error %q does not carry the gateway's system exception", shedErr)
		return r
	}
	if shedLatency > 100*time.Millisecond {
		r.Err = fmt.Errorf("shed reject took %v, want a cheap refusal", shedLatency)
		return r
	}

	// Scrape the per-route counters over the wire.
	hc := &httpwire.Client{Addr: admin.Addr()}
	defer hc.Close()
	resp, err := hc.Get("/metrics")
	if err != nil {
		r.Err = fmt.Errorf("scrape /metrics: %w", err)
		return r
	}
	for _, want := range []string{
		`starlink_gateway_reloads_total{route="calc"} 1`,
		`starlink_gateway_shed_total{route="calc"} 1`,
		`starlink_gateway_sniffed_total{class="giop"}`,
		`starlink_gateway_sniffed_total{class="http"}`,
	} {
		if !strings.Contains(string(resp.Body), want) {
			r.Err = fmt.Errorf("/metrics missing %s", want)
			return r
		}
	}

	st := gw.Stats()
	var accepted, shed uint64
	for _, rt := range st.Routes {
		accepted += rt.Accepted
		shed += rt.Shed
	}
	r.Detail = fmt.Sprintf("3 protocols, 1 listener: %d conns routed by sniffing, %d flows through hot swap, %d shed in %v",
		accepted, pinned.Load(), shed, shedLatency.Round(time.Microsecond))
	return r
}
