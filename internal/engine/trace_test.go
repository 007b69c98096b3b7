package engine

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// Tracing is write-only telemetry: solving the same request with and
// without an obs trace on the context must produce bit-identical
// solutions, and the trace must never leak into the response beyond the
// Timing field. CI runs this under -race. Pinned by the observability
// acceptance criteria; do not weaken to a field-subset comparison.
func TestSolutionBitIdenticalTracingOnOff(t *testing.T) {
	for _, req := range []Request{s420Req(), s820Req()} {
		req := req
		t.Run(req.Circuit, func(t *testing.T) {
			t.Parallel()
			// Fresh engines per side so neither run warms the other's caches.
			plain, err := New(Options{}).Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
			traced, err := New(Options{}).Solve(ctx, req)
			if err != nil {
				t.Fatal(err)
			}

			if plain.Timing != nil {
				t.Error("untraced solve has non-nil Response.Timing")
			}
			if traced.Timing == nil {
				t.Fatal("traced solve has nil Response.Timing")
			}

			a, err := json.Marshal(normalized(plain.Solution))
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(normalized(traced.Solution))
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("solution differs with tracing on:\noff: %s\non:  %s", a, b)
			}
		})
	}
}

// The traced solve's span tree must carry the documented phase spans
// with their parent links intact.
func TestTraceSpanTreeShape(t *testing.T) {
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
	resp, err := New(Options{}).Solve(ctx, s820Req())
	if err != nil {
		t.Fatal(err)
	}
	td := resp.Timing
	if td == nil {
		t.Fatal("nil Timing")
	}
	byName := make(map[string]obs.SpanData)
	byID := make(map[string]obs.SpanData)
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
		byID[sp.SpanID] = sp
	}
	for _, name := range []string{"solve", "prepare", "atpg", "matrix", "fsim", "covering", "reduce", "ascent", "bb"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("span %q missing from trace (have %d spans)", name, len(td.Spans))
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for child, parent := range map[string]string{
		"prepare":  "solve",
		"matrix":   "solve",
		"covering": "solve",
		"atpg":     "prepare",
		"reduce":   "covering",
		"bb":       "covering",
	} {
		if got := byID[byName[child].Parent].Name; got != parent {
			t.Errorf("span %q parent = %q, want %q", child, got, parent)
		}
	}
	// The atpg span counts the PODEM search, not only fault simulation.
	atpgAttrs := make(map[string]int64)
	for _, a := range byName["atpg"].Attrs {
		atpgAttrs[a.Key] = a.Int
	}
	for _, key := range []string{"podem_decisions", "podem_backtracks", "podem_implications"} {
		if atpgAttrs[key] <= 0 {
			t.Errorf("atpg span %s = %d, want > 0", key, atpgAttrs[key])
		}
	}
	for _, sp := range td.Spans {
		if sp.Duration < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.Duration)
		}
	}
}
