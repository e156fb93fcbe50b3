package engine_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
)

// TestGammaSeesOnlyApplicationFields: the abstract request a γ reads holds
// the Add parameters and nothing else. The GIOP request id is the
// message's ID, a header no γ program can count, read or graft. So
// count(m1.Msg) over Add(20, 22) is 2, and a γ that grafts the whole
// request into the Plus request puts no field on the wire that the client
// did not send.
func TestGammaSeesOnlyApplicationFields(t *testing.T) {
	for _, tt := range []struct {
		name  string
		gamma string
		check func(t *testing.T, body string, params []soap.Param)
	}{
		{"count", "m2.Msg.x = m1.Msg.x\nm2.Msg.y = count(m1.Msg)", func(t *testing.T, _ string, params []soap.Param) {
			if want := []soap.Param{{Name: "x", Value: "20"}, {Name: "y", Value: "2"}}; !slices.Equal(params, want) {
				t.Errorf("Plus sent %v, want %v: count(m1.Msg) is the two Add parameters", params, want)
			}
		}},
		{"graft", "m2.Msg.all = m1.Msg", func(t *testing.T, body string, params []soap.Param) {
			if want := []soap.Param{{Name: "x", Value: "20"}, {Name: "y", Value: "22"}}; !slices.Equal(params, want) {
				t.Errorf("Plus sent %v, want %v", params, want)
			}
			if strings.Contains(body, "<_") {
				t.Errorf("a field the client never sent reached the wire:\n%s", body)
			}
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var mu sync.Mutex
			var bodies []string
			result, err := soap.MarshalResponse("Plus", []soap.Param{{Name: "result", Value: "42"}})
			if err != nil {
				t.Fatal(err)
			}
			svc, err := httpwire.Serve("127.0.0.1:0", func(req *httpwire.Request) *httpwire.Response {
				mu.Lock()
				bodies = append(bodies, string(req.Body))
				mu.Unlock()
				return &httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: result}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			med := startAddPlus(t, svc.Addr(), func(cfg *engine.Config) {
				merged := *cfg.Merged
				merged.Transitions = slices.Clone(merged.Transitions)
				for i, tr := range merged.Transitions {
					if tr.Kind == automata.KindGamma && tr.From == "m1" {
						merged.Transitions[i].MTL = tt.gamma
					}
				}
				cfg.Merged = &merged
			})
			client, err := giop.Dial(med.Addr(), "calc")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 1 || results[0].ValueString() != "42" {
				t.Errorf("Add = %v", results)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(bodies) != 1 {
				t.Fatalf("the service was called %d times, want once", len(bodies))
			}
			_, params, err := soap.ParseRequest([]byte(bodies[0]))
			if err != nil {
				t.Fatal(err)
			}
			tt.check(t, bodies[0], params)
		})
	}
}
