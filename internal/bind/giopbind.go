package bind

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"starlink/internal/automata"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
)

// GIOPBinder binds abstract actions to GIOP request/reply messages
// through the binary-MDL codec — the Fig. 7 IIOP binding:
//
//	?Action    = GIOPRequest.Operation
//	!Action    = correlated by RequestID
//	ParameterN = GIOPRequest.ParameterArray.ParameterN
//
// Positional parameters take their abstract names from the API usage
// automaton's MsgDef field order.
type GIOPBinder struct {
	// ObjectKey targets the remote object on BuildRequest.
	ObjectKey string
	// Defs names positional parameters per action; reply parameter names
	// come from the "<action>.reply" entry.
	Defs map[string]automata.MsgDef

	codec  mdl.Codec
	nextID atomic.Uint64
}

var _ Binder = (*GIOPBinder)(nil)

// NewGIOPBinder compiles the GIOP MDL document.
func NewGIOPBinder(objectKey string, defs map[string]automata.MsgDef) (*GIOPBinder, error) {
	codec, err := giop.NewCodec()
	if err != nil {
		return nil, err
	}
	return &GIOPBinder{ObjectKey: objectKey, Defs: defs, codec: codec}, nil
}

// Framer implements Binder.
func (b *GIOPBinder) Framer() network.Framer { return network.GIOPFramer{} }

func (b *GIOPBinder) paramNames(msgName string) []string {
	if b.Defs == nil {
		return nil
	}
	return b.Defs[msgName].Fields
}

// ParseRequest implements Binder.
func (b *GIOPBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	return b.ParseRequestIn(nil, packet)
}

// ParseRequestIn implements Binder.
func (b *GIOPBinder) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	concrete, err := b.codec.ParseIn(st, packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if concrete.Name != "GIOPRequest" {
		return "", nil, fmt.Errorf("%w: expected GIOPRequest, got %s", ErrBadMessage, concrete.Name)
	}
	action, err := concrete.GetString("Operation")
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	abs := bindPositional(st, action, concrete, b.paramNames(action))
	// The request id is the header the reply is correlated by.
	id, _ := concrete.GetInt("RequestID")
	abs.ID = uint64(id)
	return action, abs, nil
}

// bindPositional makes the abstract message name of concrete's parameters,
// each under the name the MsgDef gives its position, "paramN" where it
// gives none. concrete is freshly parsed and the caller's to give away, so
// its parameters are relabelled where they stand, not copied, and the
// message that names them is made in st.
func bindPositional(st *message.Store, name string, concrete *message.Message, names []string) *message.Message {
	abs := st.Message(name)
	arr := concrete.Field("ParameterArray")
	if arr == nil {
		return abs
	}
	for i, p := range arr.Children {
		if i < len(names) {
			p.Label = names[i]
		} else {
			p.Label = "param" + strconv.Itoa(i+1)
		}
	}
	abs.Fields = arr.Children
	return abs
}

// BuildRequest implements Binder.
func (b *GIOPBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder: abstract fields become positional CDR
// parameters in MsgDef order.
func (b *GIOPBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	st := message.Scratch()
	defer st.Release()
	params := b.positionalParams(st, action, abs)
	req := giop.NewRequestIn(st, b.nextID.Add(1), b.ObjectKey, action, params)
	return b.codec.AppendCompose(dst, req)
}

// positionalParams orders abstract fields by the action's MsgDef; fields
// not in the def follow in message order. Each parameter is a shallow copy
// of its field relabelled "Parameter", carved with the others from one
// slab of st's: the composer only reads it, so it shares the field's
// children and bytes.
func (b *GIOPBinder) positionalParams(st *message.Store, msgName string, abs *message.Message) []*message.Field {
	names := b.paramNames(msgName)
	nodes := st.Nodes(len(abs.Fields))[:0]
	params := st.Links(len(abs.Fields))[:0]
	param := func(f *message.Field) {
		// A MsgDef that names a field twice outgrows the slab; the
		// parameters carved before stay where they are.
		nodes = append(nodes, *f)
		cp := &nodes[len(nodes)-1]
		cp.Label = "Parameter"
		params = append(params, cp)
	}
	for _, n := range names {
		if f := abs.Field(n); f != nil {
			param(f)
		}
	}
	for _, f := range abs.Fields {
		// A named one has gone out above.
		if !contains(names, f.Label) {
			param(f)
		}
	}
	return params
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// BuildErrorReply implements ErrorReplier with a GIOP system exception.
func (b *GIOPBinder) BuildErrorReply(action string, req *message.Message, errMsg string) ([]byte, error) {
	var id uint64
	if req != nil {
		id = req.ID
	}
	reply := giop.NewReply(id, giop.StatusSystemException,
		[]*message.Field{giop.StringParam("mediation failed: " + errMsg)})
	return b.codec.Compose(reply)
}

var _ ErrorReplier = (*GIOPBinder)(nil)

// ParseReply implements Binder.
func (b *GIOPBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	return b.ParseReplyIn(nil, action, packet)
}

// ParseReplyIn implements Binder.
func (b *GIOPBinder) ParseReplyIn(st *message.Store, action string, packet []byte) (*message.Message, error) {
	concrete, err := b.codec.ParseIn(st, packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if concrete.Name != "GIOPReply" {
		return nil, fmt.Errorf("%w: expected GIOPReply, got %s", ErrBadMessage, concrete.Name)
	}
	status, _ := concrete.GetInt("ReplyStatus")
	if status != giop.StatusNoException {
		return nil, fmt.Errorf("%w: action %s: reply status %d", ErrBadMessage, action, status)
	}
	return bindPositional(st, action+".reply", concrete, b.paramNames(action+".reply")), nil
}

// BuildReply implements Binder.
func (b *GIOPBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder. The reply is correlated by abs.ID, the
// id of the request it answers.
// The reply's scaffold is made in a scratch store, given back once the
// packet is composed.
func (b *GIOPBinder) AppendReply(dst []byte, action string, abs *message.Message) ([]byte, error) {
	st := message.Scratch()
	defer st.Release()
	reply := giop.NewReplyIn(st, abs.ID, giop.StatusNoException,
		b.positionalParams(st, action+".reply", abs))
	return b.codec.AppendCompose(dst, reply)
}
