package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"starlink/internal/bind"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/observe"
)

// ErrGateway is wrapped by gateway spec failures.
var ErrGateway = errors.New("core: invalid gateway spec")

// GatewayRouteSpec declares one hosted mediator in a gateway spec.
type GatewayRouteSpec struct {
	// Name identifies the route (metrics label, default reference).
	Name string
	// Mediator names the *.mediator spec the route hosts.
	Mediator string
	// Match overrides the wire class ("giop", "http", "xml", "json");
	// "" derives it from the mediator's server-side protocol.
	Match string
	// PathPrefix narrows an HTTP match to a path prefix; "" derives it
	// from the server side's path (when the protocol has one).
	PathPrefix string
	// Payload narrows an HTTP match to a body kind ("xml" or "json") —
	// how two POST routes on one path stay distinct.
	Payload string
	// Rate, Burst and MaxFlows configure admission control; zero values
	// leave the corresponding limit off.
	Rate     float64
	Burst    int
	MaxFlows int
	// Deadline overrides the hosted mediator's per-flow deadline budget
	// (`deadline=` option): a flow that would outlive it is failed fast
	// with a protocol-correct fault, the deadline-budget analogue of
	// shed-style admission rejection. Zero keeps the mediator spec's
	// flow_deadline (or the engine default).
	Deadline time.Duration
}

// GatewaySpec is a parsed *.gateway deployment spec. gatewayDirectives
// in spec.go is its grammar, one row per directive; docs/GATEWAY.md
// prints the same rows.
type GatewaySpec struct {
	// Listen is the front-door address.
	Listen string
	// Admin, when non-empty, is where the gateway's metrics endpoint
	// binds.
	Admin string
	// Default names the route taking unmatched connections ("" drops
	// them).
	Default string
	// SniffBytes and SniffTimeout bound the wire sniffer (zero values
	// take the gateway defaults).
	SniffBytes   int
	SniffTimeout time.Duration
	// Routes in declaration (match) order.
	Routes []GatewayRouteSpec
}

// buildRoute assembles one route: a detached mediator (pool started,
// no listener — the gateway feeds it connections) plus the matcher,
// server-side binder and admission policy the gateway needs.
func (m *Models) buildRoute(rs GatewayRouteSpec) (gateway.RouteConfig, *engine.Mediator, error) {
	spec, ok := m.Mediators[rs.Mediator]
	if !ok {
		return gateway.RouteConfig{}, nil, fmt.Errorf("%w: route %q: mediator spec %q not loaded", ErrGateway, rs.Name, rs.Mediator)
	}
	side, err := m.serverSide(spec)
	if err != nil {
		return gateway.RouteConfig{}, nil, fmt.Errorf("route %q: mediator %q: %w", rs.Name, rs.Mediator, err)
	}
	p, _ := protocolOf(side.Protocol)
	match := gateway.Matcher{Class: p.class}
	if match.Class == gateway.ClassUnknown {
		return gateway.RouteConfig{}, nil, fmt.Errorf("route %q: %w: protocol %q cannot be gateway-hosted", rs.Name, ErrGateway, side.Protocol)
	}
	if rs.Match != "" {
		match.Class = wireClass(rs.Match)
	}
	if match.Class == gateway.ClassHTTP {
		match.PathPrefix = orElse(rs.PathPrefix, side.Path)
		match.Payload = wireClass(rs.Payload)
	}
	var binder bind.Binder
	med, err := m.build(spec, func(cfg *engine.Config) {
		if rs.Deadline > 0 {
			// Per-route deadline: the gateway operator's budget beats the
			// mediator spec's own flow_deadline for flows admitted here.
			cfg.FlowDeadline = rs.Deadline
		}
		binder = cfg.Sides[side.Color].Binder
	})
	if err == nil {
		if err = med.StartDetached(); err != nil {
			med.Close()
		}
	}
	if err != nil {
		return gateway.RouteConfig{}, nil, fmt.Errorf("route %q: %w", rs.Name, err)
	}
	return gateway.RouteConfig{
		Name:  rs.Name,
		Match: match,
		Admission: gateway.AdmissionPolicy{
			Rate:     rs.Rate,
			Burst:    rs.Burst,
			MaxFlows: rs.MaxFlows,
		},
		Binder: binder,
		Target: med,
	}, med, nil
}

// GatewayDeployment is a running gateway together with the mediators
// it hosts and its optional metrics endpoint.
type GatewayDeployment struct {
	// Gateway is the running front door.
	Gateway *gateway.Gateway
	// Registry exposes the gateway's metrics; nil without an admin
	// address.
	Registry *observe.Registry
	// Admin is the metrics endpoint; nil when not configured.
	Admin *observe.Admin

	spec *GatewaySpec
	// matchers pins each route's deploy-time wire shape so a reload
	// cannot silently repoint a route at a mediator speaking a
	// different framing.
	matchers map[string]gateway.Matcher

	mu        sync.Mutex
	mediators map[string]*engine.Mediator
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the gateway's front-door address.
func (d *GatewayDeployment) Addr() string { return d.Gateway.Addr() }

// Snapshot captures the front-door counters plus one engine snapshot
// per hosted mediator, keyed by route name.
func (d *GatewayDeployment) Snapshot() DeploySnapshot {
	gs := d.Gateway.Stats()
	snap := DeploySnapshot{
		Kind:      "gateway",
		Mediators: make(map[string]engine.Snapshot),
		Gateway:   &gs,
	}
	d.mu.Lock()
	meds := make(map[string]*engine.Mediator, len(d.mediators))
	for name, med := range d.mediators {
		meds[name] = med
	}
	d.mu.Unlock()
	for name, med := range meds {
		snap.Mediators[name] = med.Snapshot()
	}
	return snap
}

// DeployGateway builds and starts the named gateway spec: every
// route's mediator is built from the loaded models and started
// detached, the front door binds the spec's listen address
// (listenOverride wins when non-empty), and when an admin address is
// configured (spec or adminOverride) a metrics endpoint serves the
// gateway's per-route counters.
func (m *Models) DeployGateway(name, listenOverride, adminOverride string) (*GatewayDeployment, error) {
	spec, ok := m.Gateways[name]
	if !ok {
		return nil, fmt.Errorf("%w: gateway spec %q not loaded", ErrGateway, name)
	}
	gw, routes, mediators, err := m.buildGateway(spec)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*GatewayDeployment, error) {
		closeAll(mediators)
		return nil, err
	}
	if err := gw.Start(orElse(listenOverride, spec.Listen, "127.0.0.1:0")); err != nil {
		return fail(err)
	}
	d := &GatewayDeployment{
		Gateway:   gw,
		spec:      spec,
		matchers:  make(map[string]gateway.Matcher, len(routes)),
		mediators: mediators,
	}
	for _, rc := range routes {
		d.matchers[rc.Name] = rc.Match
	}
	if adminAddr := orElse(adminOverride, spec.Admin); adminAddr != "" {
		d.Registry = observe.GatewayRegistry(gw)
		admin, err := observe.ServeAdmin(adminAddr, observe.AdminConfig{Registry: d.Registry})
		if err != nil {
			gw.Close()
			return fail(fmt.Errorf("core: gateway admin endpoint: %w", err))
		}
		d.Admin = admin
	}
	return d, nil
}

// buildGateway is the build half of DeployGateway, and what Check runs for
// a gateway spec: every route's mediator built and started detached, and
// the front door made, listening nowhere yet. A failure closes the
// mediators built before it.
func (m *Models) buildGateway(spec *GatewaySpec) (*gateway.Gateway, []gateway.RouteConfig, map[string]*engine.Mediator, error) {
	var (
		routes    []gateway.RouteConfig
		mediators = make(map[string]*engine.Mediator, len(spec.Routes))
	)
	for _, rs := range spec.Routes {
		rc, med, err := m.buildRoute(rs)
		if err != nil {
			closeAll(mediators)
			return nil, nil, nil, err
		}
		routes = append(routes, rc)
		mediators[rs.Name] = med
	}
	gw, err := gateway.New(gateway.Config{
		Routes:       routes,
		Default:      spec.Default,
		SniffBytes:   spec.SniffBytes,
		SniffTimeout: spec.SniffTimeout,
	})
	if err != nil {
		closeAll(mediators)
		return nil, nil, nil, err
	}
	return gw, routes, mediators, nil
}

// closeAll closes a gateway's mediators.
func closeAll(mediators map[string]*engine.Mediator) {
	for _, med := range mediators {
		med.Close()
	}
}

// Reload hot-swaps every route onto mediators rebuilt from models
// (typically a fresh LoadModels of the same directory). The swap is
// all-or-nothing per reload: each new mediator is built and started
// detached first, and any failure aborts before a single route is
// repointed. Old mediators drain via Shutdown bounded by ctx — flows
// in flight when the swap lands finish on the mediator that admitted
// them, so a mid-soak reload loses nothing.
func (d *GatewayDeployment) Reload(ctx context.Context, models *Models) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	fresh := make(map[string]*engine.Mediator, len(d.spec.Routes))
	fail := func(err error) error {
		for _, med := range fresh {
			med.Close()
		}
		return err
	}
	for _, rs := range d.spec.Routes {
		rc, med, err := models.buildRoute(rs)
		if err != nil {
			return fail(fmt.Errorf("core: gateway reload: %w", err))
		}
		if rc.Match != d.matchers[rs.Name] {
			med.Close()
			return fail(fmt.Errorf("%w: reload: route %q changed wire shape; redeploy the gateway", ErrGateway, rs.Name))
		}
		// Carry live backend health across the swap: a replica the old
		// mediator ejected stays ejected (with its cooloff clock intact)
		// instead of taking fresh traffic the moment the reload lands.
		// Discovery counters ride along the same way, so /metrics rates
		// stay continuous across the reload.
		med.Adopt(d.mediators[rs.Name])
		fresh[rs.Name] = med
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		drainErr error
	)
	for name, med := range fresh {
		old, err := d.Gateway.Swap(name, med)
		if err != nil {
			// Unreachable once deployed (routes are fixed), but do not
			// leak the built mediator if it ever happens.
			med.Close()
			return fmt.Errorf("core: gateway reload: %w", err)
		}
		d.mediators[name] = med
		if oldMed, ok := old.(*engine.Mediator); ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := oldMed.Shutdown(ctx); err != nil {
					errMu.Lock()
					if drainErr == nil {
						drainErr = err
					}
					errMu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	return drainErr
}

// Shutdown gracefully stops the deployment: the front door stops
// accepting, every hosted mediator drains its in-flight flows (bounded
// by ctx), and the admin endpoint closes. A later Close is a no-op.
func (d *GatewayDeployment) Shutdown(ctx context.Context) error {
	var firstErr error
	if err := d.Gateway.Shutdown(ctx); err != nil {
		firstErr = err
	}
	d.mu.Lock()
	meds := make([]*engine.Mediator, 0, len(d.mediators))
	for _, med := range d.mediators {
		meds = append(meds, med)
	}
	d.mu.Unlock()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	for _, med := range meds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := med.Shutdown(ctx); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	d.closeOnce.Do(func() {
		if d.Admin != nil {
			d.closeErr = d.Admin.Close()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	return d.closeErr
}

// Close abruptly stops the gateway, every hosted mediator and the
// admin endpoint. Idempotent, and a no-op after Shutdown.
func (d *GatewayDeployment) Close() error {
	d.closeOnce.Do(func() {
		d.closeErr = d.Gateway.Close()
		d.mu.Lock()
		meds := make([]*engine.Mediator, 0, len(d.mediators))
		for _, med := range d.mediators {
			meds = append(meds, med)
		}
		d.mu.Unlock()
		for _, med := range meds {
			if err := med.Close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
		if d.Admin != nil {
			if err := d.Admin.Close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
	})
	return d.closeErr
}
