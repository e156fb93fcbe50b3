package mtl

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"starlink/internal/message"
)

// builtins are the functions available to every MTL program. Names are
// matched case-insensitively (the paper writes both SetHost and cache).
// None of them writes into an argument tree: they read it, return it, or
// (cache) store a copy of it. CompiledProgram.ReadOnly relies on that, so a
// builtin that mutates its arguments must make ReadOnly count its calls.
var builtins = map[string]Func{
	"cache":     builtinCache,
	"getcache":  builtinGetCache,
	"sethost":   builtinSetHost,
	"concat":    builtinConcat,
	"toint":     builtinToInt,
	"tostring":  builtinToString,
	"count":     builtinCount,
	"newstruct": builtinNewStruct,
	"newarray":  builtinNewArray,
	"child":     builtinChild,
	"label":     builtinLabel,
	"urlencode": builtinURLEncode,
	"urldecode": builtinURLDecode,
	"default":   builtinDefault,
	"add":       builtinArithAdd,
	"sub":       builtinArithSub,
	"mul":       builtinArithMul,
	"replace":   builtinReplace,
	"trim":      builtinTrim,
	"lower":     builtinLower,
	"upper":     builtinUpper,
	"substr":    builtinSubstr,
}

// TableFunc builds a one-argument translation function from a lookup
// table — the runtime form of a vocabulary model (e.g. UPnP URNs to SLP
// service types). Unmapped inputs are errors, so missing vocabulary is
// caught at the γ transition rather than producing a wrong message.
func TableFunc(table map[string]string) Func {
	return func(_ *Env, args []any) (any, error) {
		if err := needArgs(args, 1); err != nil {
			return nil, err
		}
		key := ValueString(args[0])
		v, ok := table[key]
		if !ok {
			return nil, fmt.Errorf("no mapping for %q", key)
		}
		return v, nil
	}
}

func needArgs(args []any, n int) error {
	if len(args) != n {
		return fmt.Errorf("want %d argument(s), got %d", n, len(args))
	}
	return nil
}

// cache(key, value) stores value (a field tree or scalar) in the session
// cache — the Fig. 9 "cache(Photo, entryN)" keyword.
func builtinCache(env *Env, args []any) (any, error) {
	if err := needArgs(args, 2); err != nil {
		return nil, err
	}
	if env.Cache == nil {
		return nil, errors.New("no session cache configured")
	}
	env.Cache.Put(ValueString(args[0]), valueToField("cached", args[1]))
	return nil, nil
}

// getcache(key) retrieves a previously cached value — the Fig. 10
// "getCache" keyword.
func builtinGetCache(env *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	if env.Cache == nil {
		return nil, errors.New("no session cache configured")
	}
	f, err := env.Cache.Get(ValueString(args[0]))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// sethost(url) retargets the outgoing side of the mediator — Fig. 9's
// "SetHost(https://picasaweb.google.com)".
func builtinSetHost(env *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	env.Host = ValueString(args[0])
	return nil, nil
}

func builtinConcat(_ *Env, args []any) (any, error) {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(ValueString(a))
	}
	return b.String(), nil
}

func builtinToInt(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	s := strings.TrimSpace(ValueString(args[0]))
	if s == "" {
		return int64(0), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cannot convert %q to int", s)
	}
	return n, nil
}

func builtinToString(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	return ValueString(args[0]), nil
}

// count(tree) reports the number of children of a field tree.
func builtinCount(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	f, ok := args[0].(*message.Field)
	if !ok {
		return nil, errors.New("count() needs a field tree")
	}
	return int64(len(f.Children)), nil
}

// newstruct(label) creates an empty structured field for incremental
// construction (Fig. 9's "new Photo(...)").
func builtinNewStruct(env *Env, args []any) (any, error) {
	return newNode(env, args, message.TypeStruct)
}

// newarray(label) creates an empty ordered-sequence field; binders render
// array fields as protocol-level lists even when they hold 0 or 1
// elements.
func builtinNewArray(env *Env, args []any) (any, error) {
	return newNode(env, args, message.TypeArray)
}

// newNode is a node of the Env's store, whose child list it keeps across
// Env.Reset, as a builder variable's root is (cBuild).
func newNode(env *Env, args []any, typ message.Type) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	f := env.store.Node(ValueString(args[0]))
	f.Type = typ
	return f, nil
}

// child(tree, label) returns a named child of a field tree.
func builtinChild(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 2); err != nil {
		return nil, err
	}
	f, ok := args[0].(*message.Field)
	if !ok {
		return nil, errors.New("child() needs a field tree")
	}
	c := f.Child(ValueString(args[1]))
	if c == nil {
		return nil, fmt.Errorf("no child %q", ValueString(args[1]))
	}
	return fieldValue(c), nil
}

// label(tree) returns a field tree's label.
func builtinLabel(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	f, ok := args[0].(*message.Field)
	if !ok {
		return nil, errors.New("label() needs a field tree")
	}
	return f.Label, nil
}

func builtinURLEncode(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	return url.QueryEscape(ValueString(args[0])), nil
}

func builtinURLDecode(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	s, err := url.QueryUnescape(ValueString(args[0]))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// default(v, fallback) returns v unless it is empty.
func builtinDefault(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 2); err != nil {
		return nil, err
	}
	if ValueString(args[0]) == "" {
		return args[1], nil
	}
	return args[0], nil
}

func arith(args []any, op func(a, b int64) int64) (any, error) {
	if err := needArgs(args, 2); err != nil {
		return nil, err
	}
	a, err := builtinToInt(nil, args[:1])
	if err != nil {
		return nil, err
	}
	b, err := builtinToInt(nil, args[1:])
	if err != nil {
		return nil, err
	}
	return op(a.(int64), b.(int64)), nil
}

func builtinArithAdd(_ *Env, args []any) (any, error) {
	return arith(args, func(a, b int64) int64 { return a + b })
}

func builtinArithSub(_ *Env, args []any) (any, error) {
	return arith(args, func(a, b int64) int64 { return a - b })
}

func builtinArithMul(_ *Env, args []any) (any, error) {
	return arith(args, func(a, b int64) int64 { return a * b })
}

func builtinReplace(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 3); err != nil {
		return nil, err
	}
	return strings.ReplaceAll(ValueString(args[0]), ValueString(args[1]), ValueString(args[2])), nil
}

func builtinTrim(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	return strings.TrimSpace(ValueString(args[0])), nil
}

func builtinLower(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	return strings.ToLower(ValueString(args[0])), nil
}

func builtinUpper(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 1); err != nil {
		return nil, err
	}
	return strings.ToUpper(ValueString(args[0])), nil
}

func builtinSubstr(_ *Env, args []any) (any, error) {
	if err := needArgs(args, 3); err != nil {
		return nil, err
	}
	s := ValueString(args[0])
	from, err := builtinToInt(nil, args[1:2])
	if err != nil {
		return nil, err
	}
	to, err := builtinToInt(nil, args[2:3])
	if err != nil {
		return nil, err
	}
	f, t := int(from.(int64)), int(to.(int64))
	if f < 0 || t > len(s) || f > t {
		return nil, fmt.Errorf("substr bounds [%d,%d) out of range for %d bytes", f, t, len(s))
	}
	return s[f:t], nil
}
