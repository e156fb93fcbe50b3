// Package bridge implements the baseline Section 1 argues against: a
// direct protocol-level bridge that translates middleware messages
// mechanically while assuming the applications already agree on
// operations and data ("in a protocol bridge even a simple difference in
// the operation name breaks the solution"). It exists so the evaluation
// can demonstrate exactly where protocol-only interoperability stops and
// application-middleware mediation becomes necessary.
//
// The bridge maps any incoming RPC-style call one-to-one onto the target
// protocol: the operation name is preserved verbatim, parameters are
// carried across positionally, and the reply is translated back. No
// renaming, no reordering, no data translation — the paper's protocol
// bridge behaviour.
package bridge

import (
	"fmt"

	"starlink/internal/bind"
	"starlink/internal/network"
)

// Bridge forwards requests between two protocol binders with identity
// application mapping.
type Bridge struct {
	from   bind.Binder
	to     bind.Binder
	target string

	srv *network.Server
}

// New builds a bridge that accepts `from`-protocol clients and forwards
// to a `to`-protocol service at target.
func New(from, to bind.Binder, target string) *Bridge {
	return &Bridge{from: from, to: to, target: target}
}

// Start listens for client connections.
func (b *Bridge) Start(listenAddr string) error {
	var eng network.Engine
	l, err := eng.Listen(network.Semantics{Transport: "tcp"}, listenAddr, b.from.Framer())
	if err != nil {
		return err
	}
	b.srv = network.Serve(l, b.serve)
	return nil
}

// Addr returns the client-facing address.
func (b *Bridge) Addr() string { return b.srv.Addr() }

func (b *Bridge) serve(client network.Conn) {
	var service network.Conn
	defer func() {
		if service != nil {
			service.Close()
		}
	}()
	for {
		data, err := client.Recv()
		if err != nil {
			return
		}
		reply, err := b.forward(&service, data)
		if err != nil {
			return // a protocol bridge has no recovery story
		}
		if err := client.Send(reply); err != nil {
			return
		}
	}
}

func (b *Bridge) forward(service *network.Conn, data []byte) ([]byte, error) {
	// Identity mapping: same action, same parameters.
	action, abs, err := b.from.ParseRequest(data)
	if err != nil {
		return nil, fmt.Errorf("bridge: parse client request: %w", err)
	}
	out, err := b.to.BuildRequest(action, abs)
	if err != nil {
		return nil, fmt.Errorf("bridge: build target request: %w", err)
	}
	if *service == nil {
		var eng network.Engine
		conn, err := eng.Dial(network.Semantics{Transport: "tcp"}, b.target, b.to.Framer())
		if err != nil {
			return nil, fmt.Errorf("bridge: dial target: %w", err)
		}
		*service = conn
	}
	if err := (*service).Send(out); err != nil {
		return nil, fmt.Errorf("bridge: send: %w", err)
	}
	replyData, err := (*service).Recv()
	if err != nil {
		return nil, fmt.Errorf("bridge: recv: %w", err)
	}
	replyAbs, err := b.to.ParseReply(action, replyData)
	if err != nil {
		return nil, fmt.Errorf("bridge: parse target reply: %w", err)
	}
	replyAbs.ID = abs.ID // the reply answers the client's request
	return b.from.BuildReply(action, replyAbs)
}

// Close stops the bridge and waits for in-flight connections.
func (b *Bridge) Close() error {
	if b.srv == nil {
		return nil
	}
	return b.srv.Close()
}
