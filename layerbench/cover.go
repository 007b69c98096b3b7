package main

import (
	"fmt"
	"time"

	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// committed are the corpus instances every cover pass includes: the medium
// and hard tiers, which the exact solver proves within milliseconds.
var committed = []string{"medium-1", "medium-2", "medium-3", "medium-4", "hard-1", "hard-2", "hard-3", "hard-4"}

// coverShapes are the generated Balas–Ho shapes and how many instances of
// each a pass draws. Unit-cost instances take about 50ms each, the
// uniform-cost ones mostly 5-25ms. Hardness varies widely, so a pass needs
// many instances for its summed time to repeat from seed to seed, and the
// unit-cost shape outnumbers the other so that the median falls inside its
// cluster rather than in the gap between the two. Costs in [1, 20] keep
// the summed cover cost from swinging with a few expensive optima.
var coverShapes = []struct {
	params corpus.Params
	count  int
}{
	{corpus.Params{Rows: 130, Cols: 80, Density: 0.45, Costs: corpus.CostUnit}, 40},
	{corpus.Params{Rows: 160, Cols: 100, Density: 0.35, Costs: corpus.CostUniform, MaxCost: 20}, 16},
}

// cover solves set-covering instances with the exact solver directly, at
// Parallelism 1: serial search makes node counts and costs repeat exactly,
// which they do not when workers race on the incumbent.
type cover struct {
	seed      int64
	instances []*corpus.Instance // the committed ones
	golden    map[string]int
}

func newCover(seed int64) *cover { return &cover{seed: seed} }

// setup loads the committed instances and proves each against golden.json.
func (w *cover) setup() error {
	golden, err := goldenOptima()
	if err != nil {
		return err
	}
	w.instances, w.golden = nil, golden
	for _, name := range committed {
		inst, err := corpus.Load(name)
		if err != nil {
			return err
		}
		sol, err := solveInstance(inst)
		if err != nil {
			return err
		}
		if err := checkCover(inst, sol, golden[name]); err != nil {
			return err
		}
		w.instances = append(w.instances, inst)
	}
	return nil
}

func (w *cover) release() { w.instances = nil }

// goldenOptima returns the proven optimum of each committed instance, -1
// where none is proven.
func goldenOptima() (map[string]int, error) {
	m, err := corpus.GoldenManifest()
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for name, g := range m {
		out[name] = -1
		if g.Optimal != nil {
			out[name] = *g.Optimal
		}
	}
	return out, nil
}

func (w *cover) pass(p int) []request {
	rng := passRNG(w.seed, p)
	var out []request
	for _, inst := range w.instances {
		out = append(out, request{inst: inst, golden: w.golden[inst.Name]})
	}
	for si, shape := range coverShapes {
		params := shape.params
		for i := range shape.count {
			params.Seed = seedValue(rng)
			inst, err := corpus.Generate(fmt.Sprintf("shape%d-p%d-%d", si, p, i), params)
			if err != nil {
				panic(err) // the shapes are constants that validate
			}
			out = append(out, request{inst: inst, golden: -1})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// solveInstance runs the exact solver on an instance, weighted when it
// has costs other than 1.
func solveInstance(inst *corpus.Instance) (setcover.Solution, error) {
	opts := setcover.ExactOptions{Parallelism: 1}
	if w := inst.Weights(); w != nil {
		return inst.Problem.SolveExactWeighted(w, opts)
	}
	return inst.Problem.SolveExact(opts)
}

func (w *cover) serve(r request) (outcome, time.Duration, error) {
	start := time.Now()
	sol, err := solveInstance(r.inst)
	d := time.Since(start)
	return outcome{cover: sol, cost: sol.Cost, optimal: sol.Optimal}, d, err
}

func (w *cover) check(r request, o outcome) error { return checkCover(r.inst, o.cover, r.golden) }

func (w *cover) traceSetup(*recorder) error { return w.setup() }

// traced has no engine path to compare against: the untraced run calls
// the same setcover function.
func (w *cover) traced(rec *recorder, id int, r request) (outcome, error) {
	root := rec.begin(id, -1, "request", false)
	s := rec.begin(id, root, "setcover.exact", false)
	sol, err := solveInstance(r.inst)
	rec.end(s, exactCounts(sol))
	rec.end(root, nil)
	return outcome{cover: sol, cost: sol.Cost, optimal: sol.Optimal}, err
}

func (w *cover) close() {}
