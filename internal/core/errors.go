package core

import (
	"strconv"
	"strings"
)

// SpecError is the typed form of every mediator- and gateway-spec
// parse failure: callers inspect Line, Directive and Msg instead of
// string-matching the rendered message. It wraps the parser's
// sentinel errors — errors.Is(err, ErrSpec) holds for both parsers,
// and errors.Is(err, ErrGateway) additionally holds for gateway
// specs — and is surfaced by errors.As.
type SpecError struct {
	// Line is the 1-based line the problem was found on; 0 for
	// whole-document problems (e.g. a missing mandatory directive).
	Line int
	// Directive is the directive being parsed; "" when the problem is
	// not tied to one (whole-document checks).
	Directive string
	// Msg describes the problem.
	Msg string

	// sentinels are the wrapped classification errors (ErrSpec, and
	// ErrGateway for gateway specs); the first one prefixes Error().
	sentinels []error
}

// Error renders the same message shape the parsers have always
// produced: "<sentinel>: line N: directive "x": <msg>", dropping the
// line and directive parts when absent.
func (e *SpecError) Error() string {
	var b strings.Builder
	b.WriteString(e.sentinels[0].Error())
	if e.Line > 0 {
		b.WriteString(": line ")
		b.WriteString(strconv.Itoa(e.Line))
	}
	if e.Directive != "" {
		b.WriteString(": directive ")
		b.WriteString(strconv.Quote(e.Directive))
	}
	b.WriteString(": ")
	b.WriteString(e.Msg)
	return b.String()
}

// Unwrap exposes the sentinel errors so errors.Is sees through the
// typed wrapper.
func (e *SpecError) Unwrap() []error { return e.sentinels }
