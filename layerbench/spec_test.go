package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/engine"
)

// The metrics a run emits must be exactly the ones BENCHMARK.json lists,
// with the same units.
func TestMetricsMatchSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range sp.PerLayer {
		want[m.Name] = m.Unit
	}
	got := layerMetrics(nil, 1, 0, engine.Stats{}, map[string]any{})
	got["failed_share"] = metric{0, "share"}
	compareMetrics(t, "per_layer", want, got)

	want = map[string]string{}
	for _, m := range sp.EndToEnd {
		want[m.Name] = m.Unit
	}
	info := map[string]any{}
	res, err := measuredRun(&fakeWorkload{}, 0, info)
	if err != nil {
		t.Fatal(err)
	}
	compareMetrics(t, "end_to_end", want, res.Metrics)
}

func compareMetrics(t *testing.T, list string, want map[string]string, got map[string]metric) {
	t.Helper()
	var names []string
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if g, ok := got[n]; !ok {
			t.Errorf("%s: %s listed but not emitted", list, n)
		} else if g.Unit != want[n] {
			t.Errorf("%s: %s emitted in %q, listed in %q", list, n, g.Unit, want[n])
		}
	}
}

// fakeWorkload serves one instant request per pass.
type fakeWorkload struct{}

func (*fakeWorkload) setup() error                 { return nil }
func (*fakeWorkload) release()                     {}
func (*fakeWorkload) pass(int) []request           { return []request{{}} }
func (*fakeWorkload) check(request, outcome) error { return nil }
func (*fakeWorkload) serve(request) (outcome, time.Duration, error) {
	return outcome{cost: 1, optimal: true}, time.Millisecond, nil
}
func (*fakeWorkload) traceSetup(*recorder) error                      { return nil }
func (*fakeWorkload) traced(*recorder, int, request) (outcome, error) { return outcome{}, nil }
func (*fakeWorkload) close()                                          {}
