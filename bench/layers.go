package main

import (
	"fmt"

	"starlink/starlink"
)

// layers is the layer run: a native phase, a traced phase and a replay,
// each apart from the timed phase so none of them moves an end-to-end
// metric.
func layers(cfg *config, w workload, f *fixture, run *phase, v values) (*replayResult, error) {
	untraced := quantile(run.latencies(nil), 0.5)

	// (a) native: the service's own client against the simulated service,
	// with the workload's client count and connection use.
	sessions, closeAll := sessionsOf(w.clients, f.native)
	native := drive(sessions, cfg.layerPhase)
	closeAll()
	if native.failed > 0 || native.flows() == 0 {
		return nil, fmt.Errorf("native phase: %d flows, %d failed, first: %v", native.flows(), native.failed, native.first)
	}
	v["native.flow_p50_us"] = quantile(native.latencies(nil), 0.5)
	v["native.cpu_us_per_flow"] = native.cpuPerFlow()
	v["native.allocs_per_flow"] = float64(native.mallocs) / float64(native.flows())
	v["native.bytes_per_flow"] = float64(native.bytes) / float64(native.flows())
	v["native.overhead_ratio_p50"] = untraced / v["native.flow_p50_us"]

	// A gateway carries no observer, so its workload is traced straight at
	// the mediator, and compared with the same traffic untraced.
	v["gateway.direct_flow_p50_us"] = 0
	if w.deploy != w.mediator {
		direct, err := mediatedPhase(cfg, w, f, "")
		if err != nil {
			return nil, fmt.Errorf("direct phase: %w", err)
		}
		untraced = quantile(direct.phase.latencies(nil), 0.5)
		v["gateway.direct_flow_p50_us"] = untraced
	}

	// (b) traced: the same mediated traffic with an observer at sample
	// rate 1, attached the way an operator attaches it: an admin address.
	traced, err := mediatedPhase(cfg, w, f, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	v["observe.traced_flow_p50_us"] = quantile(traced.phase.latencies(nil), 0.5)
	v["observe.overhead_ratio"] = v["observe.traced_flow_p50_us"] / untraced
	v["observe.events_per_flow"] = float64(traced.events) / float64(traced.phase.flows())
	var flowUS, c1, c2 []float64
	for _, ft := range traced.obs.Flows() {
		if ft.Failed() {
			continue
		}
		flowUS = append(flowUS, float64(ft.Root.Duration)/1e3)
		var byColor [3]float64
		for _, sp := range ft.Root.Children {
			if sp.Kind != "message" || sp.Color < 1 || sp.Color > 2 {
				continue
			}
			// The first request's span starts while the session still
			// waits for the client; only its part inside the flow counts.
			start := sp.Start
			if start.Before(ft.Start) {
				start = ft.Start
			}
			if d := sp.Start.Add(sp.Duration).Sub(start); d > 0 {
				byColor[sp.Color] += float64(d) / 1e3
			}
		}
		c1, c2 = append(c1, byColor[1]), append(c2, byColor[2])
	}
	if len(flowUS) == 0 {
		return nil, fmt.Errorf("traced phase: the observer kept no flow")
	}
	v["engine.flow_span_p50_us"] = median(flowUS)
	v["engine.msg_span_c1_us"] = median(c1)
	v["engine.msg_span_c2_us"] = median(c2)

	// (c) replay: one captured flow's packets through each layer's public
	// functions.
	client, service, models, err := capture(cfg, w, f)
	if err != nil {
		return nil, err
	}
	rr, err := replay(w, models, client, service, f.target, cfg.replayIters)
	if err != nil {
		return nil, err
	}
	for _, name := range replayed {
		v[name] = rr.us[name] // 0 when the flow has no such packet
	}
	v["network.writes_per_message"] = rr.writesPerMessage
	v["network.wire_bytes_per_flow"] = float64(rr.wireBytes)
	v["mdl.xml_bytes_per_flow"] = float64(rr.xmlBytes)
	v["mdl.xml_decode_allocs"] = rr.xmlDecodeAllocs
	v["bind.allocs_per_flow"] = rr.bindAllocs
	// What the flow span holds beyond the layers timed on their own: the
	// engine loop, client-side I/O and hand-offs between goroutines. Means
	// throughout, all from the traced phase, and the service side's binding
	// weighted by the exchanges a flow really made, so that a mix of cache
	// hits and misses adds up.
	work := traced.work
	perExchange := work.exchanges / float64(len(service))
	v["engine.self_us"] = mean(flowUS) -
		work.exchanges*work.exchangeUS - work.translates*work.transUS -
		v["bind.parse_request_us"] - v["bind.build_reply_us"] -
		perExchange*(v["bind.build_request_us"]+v["bind.parse_reply_us"])
	return rr, nil
}

// layerPhase is one mediated phase of the layer run: what the clients
// saw, and the observer with the events it took in meanwhile, when the
// deployment carried one.
type layerPhase struct {
	phase  *phase
	work   engineWork
	obs    *starlink.Observer
	events uint64
}

// mediatedPhase drives the workload's mediator, deployed without a
// gateway, for one layer phase; an admin address is what attaches an
// observer to a deployment.
func mediatedPhase(cfg *config, w workload, f *fixture, admin string) (*layerPhase, error) {
	_, dep, err := deploy(cfg, f, w.mediator, f.target, admin)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	sessions, closeAll := sessionsOf(w.clients, func(c int) *session { return f.mediated(dep.Addr(), c) })
	defer closeAll()
	// A tenth of the phase warms sessions, pool and caches first.
	if warm := drive(sessions, cfg.layerPhase/10); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d flows failed, first: %w", warm.failed, warm.first)
	}
	lp := &layerPhase{}
	if admin != "" {
		md, ok := dep.(*starlink.MediatorDeployment)
		if !ok || md.Observer == nil {
			return nil, fmt.Errorf("deployment with an admin address has no observer")
		}
		lp.obs = md.Observer
		lp.events = lp.obs.Stats().Events
	}
	before, _, err := engineSnapshot(dep, w)
	if err != nil {
		return nil, err
	}
	lp.phase = drive(sessions, cfg.layerPhase)
	if lp.phase.failed > 0 || lp.phase.flows() == 0 {
		return nil, fmt.Errorf("%d flows, %d failed, first: %v", lp.phase.flows(), lp.phase.failed, lp.phase.first)
	}
	// Once the engine has accounted the last flow, its span is closed too.
	after, _, err := engineSnapshot(dep, w)
	if err != nil {
		return nil, err
	}
	lp.work = workBetween(before, after, float64(lp.phase.flows()))
	if lp.obs != nil {
		lp.events = lp.obs.Stats().Events - lp.events
	}
	return lp, nil
}
