package casestudy

import (
	"reflect"
	"testing"

	"starlink/internal/automata"
)

// TestCallsShareNoState: tests take a model from here and change it — a
// start state, a transition, a pairing — so each call hands out a value
// of its own, whether it is parsed from a file or built here.
func TestCallsShareNoState(t *testing.T) {
	for name, fn := range map[string]func() *automata.Automaton{
		"FlickrUsage": FlickrUsage, "PicasaUsage": PicasaUsage, "AddUsage": AddUsage, "PlusUsage": PlusUsage,
	} {
		a, want := fn(), fn()
		a.Start, a.States[0], a.Final[0] = "zz", "zz", "zz"
		a.Transitions[0].Message = "zz"
		for k := range a.Messages {
			delete(a.Messages, k)
		}
		if got := fn(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a change to one result shows in the next: %+v", name, got)
		}
	}
	for name, fn := range map[string]func() *automata.Merged{
		"XMLRPCMediator": XMLRPCMediator, "SOAPMediator": SOAPMediator, "ReverseMediator": ReverseMediator,
		"DiscoveryMediator": DiscoveryMediator, "SearchMediator": SearchMediator,
	} {
		m, want := fn(), fn()
		m.Start, m.Final[0] = "zz", "zz"
		m.States[1].Colors[0] = 9
		m.Transitions[1].MTL = "zz"
		if got := fn(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a change to one result shows in the next: %+v", name, got)
		}
	}
	for name, fn := range map[string]func() *automata.Equivalence{
		"Equivalence": Equivalence, "AddPlusEquivalence": AddPlusEquivalence,
	} {
		fn().Add("zz", "yy")
		if fn().Equivalent("zz", "yy") {
			t.Errorf("%s: a pair added to one result shows in the next", name)
		}
	}
	f := DiscoveryFuncs()
	delete(f, "maptype")
	if DiscoveryFuncs()["maptype"] == nil {
		t.Error("DiscoveryFuncs: a function deleted from one result is gone from the next")
	}
}
