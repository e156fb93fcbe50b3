package observe

import (
	"starlink/internal/gateway"
)

// GatewayRegistry builds a Registry that serves the process's metrics and
// a gateway's, under the starlink_gateway_* namespace, mirroring
// MediatorRegistry: listener totals, the sniffer's per-class counts, and
// per route the accepted, shed, dropped and reload counters plus the live
// admitted-flows gauge. A scrape reads the runtime once and takes one
// Stats of the gateway.
func GatewayRegistry(gw *gateway.Gateway) *Registry {
	r := NewRegistry()
	registerProcess(r, readProcess)
	registerGateway(r, gw.Stats)
	return r
}

func registerGateway(r *Registry, stats func() gateway.Stats) {
	g := sample(r, stats)
	g.scalar("counter", "starlink_gateway_conns_total", "Connections accepted by the front-door listener.",
		func(st gateway.Stats) uint64 { return st.Conns })
	g.vec("counter", "starlink_gateway_sniffed_total", "class",
		"Connections classified by the wire sniffer, by protocol class.",
		func(st gateway.Stats) map[string]uint64 { return st.Sniffed })
	g.scalar("counter", "starlink_gateway_fallback_total", "Unmatched connections sent to the default route.",
		func(st gateway.Stats) uint64 { return st.Fallbacks })
	g.scalar("counter", "starlink_gateway_unrouted_total", "Unmatched connections dropped for want of a default route.",
		func(st gateway.Stats) uint64 { return st.Unrouted })
	perRoute := func(f func(gateway.RouteStats) uint64) func(gateway.Stats) map[string]uint64 {
		return func(st gateway.Stats) map[string]uint64 {
			out := make(map[string]uint64, len(st.Routes))
			for _, rt := range st.Routes {
				out[rt.Name] = f(rt)
			}
			return out
		}
	}
	g.vec("counter", "starlink_gateway_accepted_total", "route",
		"Connections admitted and handed to the route's mediator.",
		perRoute(func(rt gateway.RouteStats) uint64 { return rt.Accepted }))
	g.vec("counter", "starlink_gateway_shed_total", "route",
		"Connections refused by admission control (rate limit or flow cap).",
		perRoute(func(rt gateway.RouteStats) uint64 { return rt.Shed }))
	g.vec("counter", "starlink_gateway_dropped_total", "route",
		"Admitted connections lost to a draining target mid-reload.",
		perRoute(func(rt gateway.RouteStats) uint64 { return rt.Dropped }))
	g.vec("counter", "starlink_gateway_reloads_total", "route",
		"Hot reloads (target swaps) performed on the route.",
		perRoute(func(rt gateway.RouteStats) uint64 { return rt.Reloads }))
	g.vec("gauge", "starlink_gateway_active_flows", "route",
		"Admitted connections currently open on the route.",
		perRoute(func(rt gateway.RouteStats) uint64 {
			if rt.ActiveFlows < 0 {
				return 0
			}
			return uint64(rt.ActiveFlows)
		}))
}
