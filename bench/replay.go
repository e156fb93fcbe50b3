package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"starlink/internal/gateway"
	"starlink/internal/mdl/xmlenc"
	"starlink/internal/network"
	"starlink/internal/network/pool"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/rcache"
	"starlink/starlink"
)

// span is one timed call of the replay: what was called, when, under
// which replayed flow.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the flow's root span, -1 for a root
	Flow   int32  `json:"flow"`
}

// trace keeps the replay's spans in memory until the run ends.
type trace struct {
	t0    time.Time
	spans []span
	// clock is what an empty span measures: two clock reads. It is taken
	// off every span before summing, or it would be most of a 20 ns call.
	clock int64
}

func newTrace(capacity int) *trace {
	tr := &trace{t0: time.Now(), spans: make([]span, 0, capacity)}
	empty := make([]float64, 2001)
	for i := range empty {
		s := time.Since(tr.t0)
		empty[i] = float64(time.Since(tr.t0) - s)
	}
	tr.clock = int64(median(empty))
	return tr
}

func (tr *trace) begin(name string, parent, flow int32) int32 {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Flow: flow, Start: int64(time.Since(tr.t0))})
	return int32(len(tr.spans) - 1)
}

func (tr *trace) end(i int32) { tr.spans[i].End = int64(time.Since(tr.t0)) }

// perFlow sums each span name's time within every replayed flow and
// returns the median flow's sum in microseconds, by name.
func (tr *trace) perFlow() map[string]float64 {
	sums := map[string]map[int32]float64{}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			continue
		}
		if sums[s.Name] == nil {
			sums[s.Name] = map[int32]float64{}
		}
		sums[s.Name][s.Flow] += float64(max(s.End-s.Start-tr.clock, 0))
	}
	out := make(map[string]float64, len(sums))
	for name, flows := range sums {
		vals := make([]float64, 0, len(flows))
		for _, v := range flows {
			vals = append(vals, v)
		}
		out[name] = median(vals) / 1e3
	}
	return out
}

func (tr *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed lists the metrics the replay times, which are also its span
// names: each is one public function of one layer.
var replayed = []string{
	"network.frame_read_us", "network.frame_write_us", "network.loopback_rtt_us",
	"pool.get_put_us", "protocol.http_parse_us",
	"mdl.xml_decode_us", "mdl.xml_encode_us", "mdl.bin_parse_us", "mdl.bin_compose_us",
	"bind.parse_request_us", "bind.build_request_us", "bind.parse_reply_us", "bind.build_reply_us",
	"rcache.key_us", "rcache.hit_us", "gateway.sniff_us",
}

// step is one call into a layer's public function on a captured packet.
type step struct {
	name string
	call func() error
}

// capture deploys the workload's mediator between two tees and sends one
// flow through it: the client side of the tee pair faces the deployment
// (gateway included), the service side stands in front of the service.
func capture(cfg *config, w workload, f *fixture) (client, service []exchange, models *starlink.Models, err error) {
	svcTee, err := startTee(f.target, w.serviceFramer)
	if err != nil {
		return nil, nil, nil, err
	}
	defer svcTee.close()
	models, dep, err := deploy(cfg, f, w.deploy, svcTee.addr(), "")
	if err != nil {
		return nil, nil, nil, err
	}
	defer dep.Close()
	cliTee, err := startTee(dep.Addr(), w.clientFramer)
	if err != nil {
		return nil, nil, nil, err
	}
	defer cliTee.close()
	s := f.mediated(cliTee.addr(), 0)
	_, err = s.flow()
	s.close()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("capture flow: %w", err)
	}
	client, service = cliTee.captured(), svcTee.captured()
	if len(client) == 0 || len(service) == 0 {
		return nil, nil, nil, fmt.Errorf("capture: %d client and %d service exchanges", len(client), len(service))
	}
	return client, service, models, nil
}

// xmlBody returns the XML document a packet carries, nil when it carries
// none (GIOP, a bodiless GET).
func xmlBody(packet []byte, request bool) []byte {
	var body []byte
	if request {
		req, err := httpwire.ParseRequest(packet)
		if err != nil {
			return nil
		}
		body = req.Body
	} else {
		resp, err := httpwire.ParseResponse(packet)
		if err != nil {
			return nil
		}
		body = resp.Body
	}
	if !bytes.HasPrefix(bytes.TrimSpace(body), []byte("<")) {
		return nil
	}
	return body
}

// countingWriter counts the Write calls a framer makes per message.
type countingWriter struct{ writes int }

func (c *countingWriter) Write(p []byte) (int, error) { c.writes++; return len(p), nil }

// script answers every request it receives with the captured reply at the
// same position, so a round trip carries the flow's own bytes both ways.
// It serves one connection.
func script(framer network.Framer, replies [][]byte) (addr string, stop func(), err error) {
	l, err := network.Engine{}.Listen(network.Semantics{Transport: "tcp"}, "127.0.0.1:0", framer)
	if err != nil {
		return "", nil, err
	}
	accepted := make(chan network.Conn, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
		for n := 0; ; n++ {
			if _, err := c.Recv(); err != nil {
				return
			}
			if c.Send(replies[n%len(replies)]) != nil {
				return
			}
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
		<-done
	}, nil
}

// replayResult is what the replay adds to the per-layer metrics.
type replayResult struct {
	us                       map[string]float64 // span name -> µs per flow
	xmlDecodeAllocs          float64
	bindAllocs               float64
	writesPerMessage         float64
	wireBytes, xmlBytes      int
	rebuilt, rebuiltSameByte int
	trace                    *trace
}

// plan is the list of calls one replayed flow makes, built from the
// captured packets. Inbound packets are what the mediator reads and parses
// (client requests, service replies), outbound ones what it builds and
// writes (client replies, service requests).
type plan struct {
	w               workload
	client, service []exchange
	steps           []step
	res             *replayResult
	writes          countingWriter
	// closers undo what the loopback steps opened, last first.
	closers []func()
}

func (p *plan) add(name string, call func() error) { p.steps = append(p.steps, step{name, call}) }

func (p *plan) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
}

// packet is one captured message with what the plan needs to know of it.
type packet struct {
	data    []byte
	request bool
	framer  network.Framer
}

func (p *plan) packets() (inbound, outbound []packet) {
	for _, ex := range p.client {
		inbound = append(inbound, packet{ex.request, true, p.w.clientFramer})
		outbound = append(outbound, packet{ex.reply, false, p.w.clientFramer})
	}
	for _, ex := range p.service {
		inbound = append(inbound, packet{ex.reply, false, p.w.serviceFramer})
		outbound = append(outbound, packet{ex.request, true, p.w.serviceFramer})
	}
	return inbound, outbound
}

// wire adds the network, protocol and mdl layers: framing in memory, the
// HTTP envelope, and the XML or CDR inside it.
func (p *plan) wire() error {
	inbound, outbound := p.packets()
	codec, err := giop.NewCodec()
	if err != nil {
		return err
	}
	rd, br := bytes.NewReader(nil), bufio.NewReaderSize(nil, 64<<10)
	for _, pk := range inbound {
		p.res.wireBytes += len(pk.data)
		p.add("network.frame_read_us", func() error {
			rd.Reset(pk.data)
			br.Reset(rd)
			_, err := pk.framer.ReadMessage(br)
			return err
		})
		if _, isGIOP := pk.framer.(network.GIOPFramer); isGIOP {
			p.add("mdl.bin_parse_us", func() error { _, err := codec.Parse(pk.data); return err })
			continue
		}
		if pk.request {
			p.add("protocol.http_parse_us", func() error { _, err := httpwire.ParseRequest(pk.data); return err })
		} else {
			p.add("protocol.http_parse_us", func() error { _, err := httpwire.ParseResponse(pk.data); return err })
		}
		if body := xmlBody(pk.data, pk.request); body != nil {
			p.res.xmlBytes += len(body)
			p.add("mdl.xml_decode_us", func() error { _, err := xmlenc.DecodeTree(body); return err })
		}
	}
	for _, pk := range outbound {
		p.res.wireBytes += len(pk.data)
		p.add("network.frame_write_us", func() error { return pk.framer.WriteMessage(&p.writes, pk.data) })
		if _, isGIOP := pk.framer.(network.GIOPFramer); isGIOP {
			msg, err := codec.Parse(pk.data)
			if err != nil {
				return fmt.Errorf("parse outbound GIOP: %w", err)
			}
			p.add("mdl.bin_compose_us", func() error { _, err := codec.Compose(msg); return err })
			continue
		}
		if body := xmlBody(pk.data, pk.request); body != nil {
			p.res.xmlBytes += len(body)
			tree, err := xmlenc.DecodeTree(body)
			if err != nil {
				return fmt.Errorf("decode outbound XML: %w", err)
			}
			p.add("mdl.xml_encode_us", func() error { _, err := xmlenc.EncodeDoc(tree); return err })
		}
	}
	return nil
}

// binders adds the bind layer, the four Binder methods of the deployed
// spec's binders, and the rcache calls on every service request. A Build's
// input is the matching Parse of the packet the mediator really built, and
// the rebuilt packet must parse back to the same abstract message: the
// timings are on the bytes the workload really sent.
func (p *plan) binders(models *starlink.Models, target string) error {
	var side1, side2 starlink.Binder
	for _, ss := range models.Mediators[p.w.mediator].Sides {
		b, err := models.BuildBinder(ss)
		if err != nil {
			return err
		}
		if ss.Server {
			side1 = b
		} else {
			side2 = b
		}
	}
	if side1 == nil || side2 == nil {
		return fmt.Errorf("spec %q lacks a server or a service side", p.w.mediator)
	}
	rebuilt := func(original, again []byte) {
		p.res.rebuilt++
		if bytes.Equal(original, again) {
			p.res.rebuiltSameByte++
		}
	}
	for _, ex := range p.client {
		action, _, err := side1.ParseRequest(ex.request)
		if err != nil {
			return fmt.Errorf("parse client request: %w", err)
		}
		abs, err := side1.ParseReply(action, ex.reply)
		if err != nil {
			return fmt.Errorf("parse client reply: %w", err)
		}
		built, err := side1.BuildReply(action, abs)
		if err != nil {
			return fmt.Errorf("rebuild client reply: %w", err)
		}
		if again, err := side1.ParseReply(action, built); err != nil || !again.Equal(abs) {
			return fmt.Errorf("rebuilt %s reply parses to a different message (%v)", action, err)
		}
		rebuilt(ex.reply, built)
		p.add("bind.parse_request_us", func() error { _, _, err := side1.ParseRequest(ex.request); return err })
		p.add("bind.build_reply_us", func() error { _, err := side1.BuildReply(action, abs); return err })
	}
	cache := rcache.New(rcache.Options{})
	for _, ex := range p.service {
		op, abs, err := side2.ParseRequest(ex.request)
		if err != nil {
			return fmt.Errorf("parse service request: %w", err)
		}
		built, err := side2.BuildRequest(op, abs)
		if err != nil {
			return fmt.Errorf("rebuild service request: %w", err)
		}
		if op2, again, err := side2.ParseRequest(built); err != nil || op2 != op || !again.Equal(abs) {
			return fmt.Errorf("rebuilt %s request parses to a different message (%v)", op, err)
		}
		rebuilt(ex.request, built)
		reply, err := side2.ParseReply(op, ex.reply)
		if err != nil {
			return fmt.Errorf("parse service reply: %w", err)
		}
		p.add("bind.build_request_us", func() error { _, err := side2.BuildRequest(op, abs); return err })
		p.add("bind.parse_reply_us", func() error { _, err := side2.ParseReply(op, ex.reply); return err })

		key := rcache.Key(op, target, abs, nil)
		cache.Put(op, key, reply, time.Hour)
		p.add("rcache.key_us", func() error { rcache.Key(op, target, abs, nil); return nil })
		p.add("rcache.hit_us", func() error {
			if hit, _, _ := cache.Acquire(op, key); hit == nil {
				return fmt.Errorf("stored key missed")
			}
			return nil
		})
	}
	return nil
}

// loopback adds what needs a socket: each side's exchanges against a peer
// that answers with the captured replies, and a pool checkout of a warm
// connection.
func (p *plan) loopback() error {
	dial := func(addr string, framer network.Framer) (network.Conn, error) {
		return network.Engine{}.Dial(network.Semantics{Transport: "tcp"}, addr, framer)
	}
	for _, hop := range []struct {
		framer    network.Framer
		exchanges []exchange
	}{{p.w.clientFramer, p.client}, {p.w.serviceFramer, p.service}} {
		replies := make([][]byte, len(hop.exchanges))
		for i, ex := range hop.exchanges {
			replies[i] = ex.reply
		}
		addr, stop, err := script(hop.framer, replies)
		if err != nil {
			return err
		}
		p.closers = append(p.closers, stop)
		conn, err := dial(addr, hop.framer)
		if err != nil {
			return err
		}
		p.closers = append(p.closers, func() { conn.Close() })
		for _, ex := range hop.exchanges {
			p.add("network.loopback_rtt_us", func() error {
				if err := conn.Send(ex.request); err != nil {
					return err
				}
				_, err := conn.Recv()
				return err
			})
		}
	}
	// The pool's peer accepts one connection: the pool dials it once and the
	// replay checks that same connection out and in.
	idle, stop, err := script(p.w.serviceFramer, [][]byte{nil})
	if err != nil {
		return err
	}
	p.closers = append(p.closers, stop)
	conns, err := pool.New(pool.Options{Dial: func(_ context.Context, key pool.Key) (network.Conn, error) {
		return dial(key.Addr, p.w.serviceFramer)
	}})
	if err != nil {
		return err
	}
	p.closers = append(p.closers, func() { conns.Close() })
	key := pool.Key{Color: 2, Addr: idle}
	p.add("pool.get_put_us", func() error {
		c, err := conns.Get(context.Background(), key)
		if err != nil {
			return err
		}
		conns.Put(key, c)
		return nil
	})
	return nil
}

// replay pushes the packets of one captured flow through each layer's
// public functions iters times, a span around every call.
func replay(w workload, models *starlink.Models, client, service []exchange, target string, iters int) (*replayResult, error) {
	p := &plan{w: w, client: client, service: service, res: &replayResult{}}
	defer p.close()
	if err := p.wire(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := p.binders(models, target); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// gateway: classifying the connection's first bytes.
	first := client[0].request
	p.add("gateway.sniff_us", func() error {
		if gateway.SniffBytes(first).Class == gateway.ClassUnknown {
			return fmt.Errorf("first packet not classified")
		}
		return nil
	})
	if err := p.loopback(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// One untimed pass warms every path and fails early on a bad step.
	for _, s := range p.steps {
		if err := s.call(); err != nil {
			return nil, fmt.Errorf("replay %s: %w", s.name, err)
		}
	}
	p.writes.writes = 0
	tr := newTrace(iters * (len(p.steps) + 1))
	for it := 0; it < iters; it++ {
		root := tr.begin("replay.flow", -1, int32(it))
		for _, s := range p.steps {
			i := tr.begin(s.name, root, int32(it))
			err := s.call()
			tr.end(i)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", s.name, err)
			}
		}
		tr.end(root)
	}
	res := p.res
	res.trace = tr
	res.us = tr.perFlow()
	res.writesPerMessage = float64(p.writes.writes) / float64(iters*(len(client)+len(service)))

	// Allocation counts need no clock and repeat exactly: a tenth of the
	// iterations, one loop per layer, no spans.
	allocs := func(prefix string) float64 {
		n := max(iters/10, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for it := 0; it < n; it++ {
			for _, s := range p.steps {
				if strings.HasPrefix(s.name, prefix) {
					_ = s.call() // it passed iters times above
				}
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	res.xmlDecodeAllocs = allocs("mdl.xml_decode_us")
	res.bindAllocs = allocs("bind.")
	return res, nil
}
