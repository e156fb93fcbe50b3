package observe

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/models"
)

// testMerged is a tiny three-edge automaton: client send, γ, service
// send — enough to exercise span-kind annotation and hit counting.
func testMerged() *automata.Merged {
	return &automata.Merged{
		Name: "T", Color1: 1, Color2: 2, Start: "m0", Final: []string{"m3"},
		States: []automata.MergedState{
			{Name: "m0", Colors: []int{1}}, {Name: "m1", Colors: []int{1, 2}},
			{Name: "m2", Colors: []int{2}}, {Name: "m3", Colors: []int{2}},
		},
		Transitions: []automata.MergedTransition{
			{From: "m0", To: "m1", Kind: automata.KindMessage, Color: 1, Action: automata.Send, Message: "req"},
			{From: "m1", To: "m2", Kind: automata.KindGamma},
			{From: "m2", To: "m3", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "svc"},
		},
	}
}

// feedFlow drives one synthetic flow (session/flow numbered) through
// the observer, failing it when fail is non-nil.
func feedFlow(o *Observer, session, flow uint64, fail error) {
	t0 := time.Now()
	o.ObserveTrace(engine.TraceEvent{Session: session, Flow: flow, Kind: engine.TraceFlowStart, Time: t0})
	o.ObserveTrace(engine.TraceEvent{
		Session: session, Flow: flow, Kind: engine.TraceTransition, Time: t0.Add(time.Millisecond),
		Transition: "m0->m1", State: "m1", Color: 1, Elapsed: time.Millisecond,
	})
	o.ObserveTrace(engine.TraceEvent{
		Session: session, Flow: flow, Kind: engine.TraceTransition, Time: t0.Add(2 * time.Millisecond),
		Transition: "m1->m2", State: "m2", Elapsed: 100 * time.Microsecond,
	})
	if fail != nil {
		o.ObserveTrace(engine.TraceEvent{
			Session: session, Flow: flow, Kind: engine.TraceError, Time: t0.Add(3 * time.Millisecond),
			Err: fail, Wire: []byte("GET /bogus HTTP/1.1\r\n"),
		})
		return
	}
	o.ObserveTrace(engine.TraceEvent{
		Session: session, Flow: flow, Kind: engine.TraceTransition, Time: t0.Add(3 * time.Millisecond),
		Transition: "m2->m3", State: "m3", Color: 2, Elapsed: time.Millisecond,
	})
	o.ObserveTrace(engine.TraceEvent{
		Session: session, Flow: flow, Kind: engine.TraceFlowEnd, Time: t0.Add(4 * time.Millisecond),
		Elapsed: 4 * time.Millisecond,
	})
}

func TestSpanAssembly(t *testing.T) {
	o := New(Options{Merged: testMerged()})
	feedFlow(o, 1, 1, nil)
	flows := o.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	ft := flows[0]
	if ft.Session != 1 || ft.Flow != 1 || ft.Failed() {
		t.Errorf("flow header: %+v", ft)
	}
	if ft.Root.Kind != SpanFlow || ft.Root.Duration != 4*time.Millisecond {
		t.Errorf("root span: %+v", ft.Root)
	}
	kinds := make([]string, len(ft.Root.Children))
	for i, sp := range ft.Root.Children {
		kinds[i] = sp.Kind
	}
	if want := []string{SpanMessage, SpanGamma, SpanMessage}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("span kinds = %v, want %v", kinds, want)
	}
	if msg := ft.Root.Children[0].Message; msg != "req" {
		t.Errorf("first span message = %q, want req", msg)
	}
	if d := ft.Root.Children[0].Duration; d != time.Millisecond {
		t.Errorf("first span duration = %v", d)
	}
	// All three edges were hit exactly once.
	hits := o.Stats().TransitionHits
	for _, tr := range []string{"m0->m1", "m1->m2", "m2->m3"} {
		if hits[tr] != 1 {
			t.Errorf("hits[%s] = %d, want 1", tr, hits[tr])
		}
	}
}

func TestFailedFlowReachesRecorder(t *testing.T) {
	o := New(Options{Merged: testMerged()})
	feedFlow(o, 1, 1, nil)
	feedFlow(o, 2, 1, errors.New("parse client request: boom"))
	entries := o.Recorder().Entries()
	if len(entries) != 1 {
		t.Fatalf("recorder entries = %d, want 1", len(entries))
	}
	ft := entries[0]
	if !ft.Failed() || !strings.Contains(ft.Err, "boom") {
		t.Errorf("recorded flow err = %q", ft.Err)
	}
	if !strings.Contains(ft.Wire, "GET /bogus") {
		t.Errorf("wire hexdump missing payload: %q", ft.Wire)
	}
	if len(ft.Root.Children) != 2 {
		t.Errorf("failed flow kept %d spans, want 2", len(ft.Root.Children))
	}
	st := o.Stats()
	if st.RecordedFailed != 1 || st.RecordedSlow != 0 {
		t.Errorf("recorder stats = %+v", st)
	}
}

func TestErrorWithoutFlowStartSynthesizes(t *testing.T) {
	o := New(Options{})
	o.ObserveTrace(engine.TraceEvent{
		Session: 9, Flow: 1, Kind: engine.TraceError, Time: time.Now(),
		Err: errors.New("stuck"), Wire: []byte{0xde, 0xad},
	})
	entries := o.Recorder().Entries()
	if len(entries) != 1 || entries[0].Err != "stuck" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Wire == "" {
		t.Error("synthesized flow lost its wire capture")
	}
}

func TestSlowFlowReachesRecorder(t *testing.T) {
	o := New(Options{SlowThreshold: time.Millisecond})
	feedFlow(o, 1, 1, nil) // 4ms flow >= 1ms threshold
	if got := o.Stats().RecordedSlow; got != 1 {
		t.Errorf("slow recorded = %d, want 1", got)
	}
}

func TestSampling(t *testing.T) {
	o := New(Options{SampleRate: 2})
	for i := uint64(1); i <= 4; i++ {
		feedFlow(o, i, 1, nil)
	}
	st := o.Stats()
	if st.FlowsAssembled != 4 || st.FlowsSampled != 2 || st.FlowsDropped != 2 {
		t.Errorf("stats = %+v, want 4 assembled / 2 sampled / 2 dropped", st)
	}
	if got := len(o.Flows()); got != 2 {
		t.Errorf("flow ring holds %d, want 2", got)
	}
}

func TestDisabledCostsNothing(t *testing.T) {
	o := New(Options{Disabled: true})
	feedFlow(o, 1, 1, nil)
	if st := o.Stats(); st.Events != 0 || st.FlowsAssembled != 0 {
		t.Errorf("disabled observer consumed events: %+v", st)
	}
	o.SetEnabled(true)
	feedFlow(o, 1, 2, nil)
	if st := o.Stats(); st.FlowsAssembled != 1 {
		t.Errorf("re-enabled observer missed the flow: %+v", st)
	}
}

func TestSessionEndReleasesState(t *testing.T) {
	o := New(Options{})
	o.ObserveTrace(engine.TraceEvent{Session: 5, Flow: 1, Kind: engine.TraceFlowStart, Time: time.Now()})
	o.ObserveTrace(engine.TraceEvent{Session: 5, Kind: engine.TraceSessionEnd, Time: time.Now()})
	count := 0
	o.sessions.Range(func(any, any) bool { count++; return true })
	if count != 0 {
		t.Errorf("session state leaked: %d entries", count)
	}
}

func TestDOTIncludesHitCounts(t *testing.T) {
	o := New(Options{Merged: testMerged()})
	feedFlow(o, 1, 1, nil)
	dot := o.DOT()
	for _, want := range []string{"digraph \"T\"", "!req (1)", "γ (1)", "!svc (1)"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if New(Options{}).DOT() != "" {
		t.Error("DOT without automaton should be empty")
	}
}

// TestRingConcurrency hammers the ring from parallel writers while a
// reader snapshots; run under -race this pins the lock-free claims.
func TestRingConcurrency(t *testing.T) {
	r := newRing[int](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := w*1000 + i
				r.add(&v)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if got := len(r.snapshot()); got > 16 {
				t.Errorf("snapshot len %d > capacity", got)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if r.total() != 4000 {
		t.Errorf("total = %d, want 4000", r.total())
	}
	if r.len() != 16 {
		t.Errorf("len = %d, want 16", r.len())
	}
}

// TestObserverConcurrentSessions drives many synthetic sessions in
// parallel — the sync.Map and counters must hold up under -race.
func TestObserverConcurrentSessions(t *testing.T) {
	o := New(Options{Merged: testMerged(), FlowRing: 32})
	var wg sync.WaitGroup
	for s := uint64(1); s <= 16; s++ {
		wg.Add(1)
		go func(s uint64) {
			defer wg.Done()
			for f := uint64(1); f <= 20; f++ {
				feedFlow(o, s, f, nil)
			}
			o.ObserveTrace(engine.TraceEvent{Session: s, Kind: engine.TraceSessionEnd, Time: time.Now()})
		}(s)
	}
	wg.Wait()
	if st := o.Stats(); st.FlowsAssembled != 16*20 {
		t.Errorf("assembled = %d, want %d", st.FlowsAssembled, 16*20)
	}
	if hits := o.Stats().TransitionHits; hits["m0->m1"] != 16*20 {
		t.Errorf("hits = %d, want %d", hits["m0->m1"], 16*20)
	}
}

// TestDOTMatchesGolden: the merged automaton's DOT and the observer's,
// which adds each edge's hit count, are one renderer; both render every
// merged automaton under models/ and Merge(AAdd, APlus) byte for byte as
// the two renderers they replaced did (testdata/merged.dot and
// testdata/hits.dot, hit counts 1, 2, … in transition order).
func TestDOTMatchesGolden(t *testing.T) {
	files, err := fs.Glob(models.FS, "*.merged.xml")
	if err != nil {
		t.Fatal(err)
	}
	var shipped []*automata.Merged
	for _, name := range files {
		data, err := models.FS.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := automata.UnmarshalMerged(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shipped = append(shipped, m)
	}
	addPlus, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name: "Add+Plus", Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var plain, hits []byte
	for _, m := range append(shipped, addPlus) {
		plain = append(plain, m.DOT()...)
		o := New(Options{Merged: m})
		for i, tr := range m.Transitions {
			o.transitions[tr.From+"->"+tr.To].hits.Store(uint64(i + 1))
		}
		hits = append(hits, o.DOT()...)
	}
	for file, got := range map[string][]byte{"testdata/merged.dot": plain, "testdata/hits.dot": hits} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the DOT of the six merged automata differs from %s:\n%s", file, got)
		}
	}
}
