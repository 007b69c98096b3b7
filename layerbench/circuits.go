package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dmatrix"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/setcover"
	"repro/internal/store"
	"repro/internal/tpg"
)

// ladder is the circuit ladder: combinational and full-scan circuits whose
// cold solves span 50ms to about 1s. s820 is the one whose Detection
// Matrix keeps a residual after reduction, so the exact search runs on it.
var ladder = []string{"c432", "s420", "s820", "c880", "s953", "s1238"}

var objectives = []string{"triplets", "testlength"}

// warmATPGSeeds is how many ATPG seeds warm sets up per circuit, each with
// two θ seeds per generator. The warm tail is set by the few keys whose
// residual needs the exact search, and whether a circuit has such keys
// depends mostly on its ATPG test set. With one test set per circuit, the
// tail and throughput moved by 25-30% from seed to seed. Three test sets
// were steadier still, but their set-up (about 13s, three times a run)
// did not fit the benchmark's time budget.
const warmATPGSeeds = 2

type circuitMode int

const (
	cold circuitMode = iota
	warm
	restart
)

// circuits serves the three circuit workloads through engine.Engine. They
// differ in where each request finds its artifacts: nowhere (cold), in the
// engine's caches (warm) or in an on-disk store read by a fresh engine
// (restart).
type circuits struct {
	mode circuitMode
	seed int64
	dir  string // restart: parent of the store directories

	keys  []engine.Request // warm, restart: the matrices set up
	eng   *engine.Engine   // warm: the engine holding them
	built engine.Stats     // warm: its counters once set up
	st    *store.Store     // restart: the filled store
	fills int

	// verified maps a warm or restart request to its checked answer, so a
	// repeated request is checked by comparison.
	verified map[engine.Request][]byte

	// Traced pass: the artifacts the decomposed warm path solves on, flows
	// by flowKey.
	flows    map[string]*core.Flow
	matrices map[engine.Request]*dmatrix.Matrix
	// nodeDiffs counts traced requests whose answers differed from the
	// engine's only in the B&B node count (see answerJSON).
	nodeDiffs int
}

func newCircuits(mode circuitMode, seed int64, dir string) *circuits {
	w := &circuits{mode: mode, seed: seed, dir: dir, verified: map[engine.Request][]byte{}}
	rng := rand.New(rand.NewSource(seed))
	switch mode {
	case warm:
		// Every ladder circuit × warmATPGSeeds test sets × every generator
		// × two θ seeds.
		for _, c := range ladder {
			for range warmATPGSeeds {
				atpgSeed := seedValue(rng)
				for _, kind := range tpg.Kinds() {
					for range 2 {
						w.keys = append(w.keys, engine.Request{Circuit: c, TPG: kind, ATPGSeed: atpgSeed, Seed: seedValue(rng)})
					}
				}
			}
		}
	case restart:
		// Every ladder circuit × every generator × one θ seed.
		for _, c := range ladder {
			atpgSeed := seedValue(rng)
			for _, kind := range tpg.Kinds() {
				w.keys = append(w.keys, engine.Request{Circuit: c, TPG: kind, ATPGSeed: atpgSeed, Seed: seedValue(rng)})
			}
		}
	}
	return w
}

// seedValue draws a positive seed (zero would select an engine default).
func seedValue(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<31) }

// passRNG is the generator of pass p: each pass is a function of the
// workload seed and its index alone.
func passRNG(seed int64, p int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p) + 1))
}

func (w *circuits) pass(p int) []request {
	rng := passRNG(w.seed, p)
	var out []request
	if w.mode == cold {
		// Every circuit meets every generator once, c880 twice. Cold
		// latencies cluster by circuit; with six equal clusters the median
		// would fall in the gap between the third and fourth, an average of
		// two extremes. Doubling the middle circuit puts the median, p75 and
		// p90 inside one cluster each.
		for _, c := range ladder {
			reps := 1
			if c == "c880" {
				reps = 2
			}
			for range reps {
				for _, kind := range tpg.Kinds() {
					out = append(out, request{eng: engine.Request{Circuit: c, TPG: kind,
						ATPGSeed: seedValue(rng), Seed: seedValue(rng), Objective: "triplets"}})
				}
			}
		}
	} else {
		for _, k := range w.keys {
			for _, obj := range objectives {
				q := k
				q.Objective = obj
				if w.mode == warm {
					// Serial exact search: at Parallelism 2 on two CPUs the
					// keys with a residual wait on a descheduled worker
					// whenever the machine is busy, and the warm tail, which
					// sits on those keys, tripled under load while the median
					// moved by a quarter.
					q.Parallelism = 1
				}
				out = append(out, request{eng: q})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *circuits) setup() error {
	ctx := context.Background()
	switch w.mode {
	case cold:
		// Runtime warm-up: one cold solve of the smallest circuit.
		_, err := engine.New(engine.Options{}).Solve(ctx, engine.Request{Circuit: ladder[0], TPG: "adder", ATPGSeed: w.seed, Seed: w.seed})
		return err
	case warm:
		e := engine.New(engine.Options{})
		for _, k := range w.keys {
			if _, err := e.Solve(ctx, k); err != nil {
				return err
			}
		}
		w.eng, w.built = e, e.Stats()
		return nil
	default:
		st, err := store.Open(filepath.Join(w.dir, fmt.Sprintf("store-%d", w.fills)))
		if err != nil {
			return err
		}
		w.fills++
		e := engine.New(engine.Options{Store: st})
		for _, k := range w.keys {
			if _, err := e.Solve(ctx, k); err != nil {
				return err
			}
		}
		if s := e.Stats(); s.StoreErrors != 0 {
			return fmt.Errorf("store fill: %d store errors", s.StoreErrors)
		}
		w.st = st
		return nil
	}
}

// release drops the set-up engine and store. The store's files stay until
// close, which removes the run's directory.
func (w *circuits) release() { w.eng, w.st = nil, nil }

// engineFor returns the engine that serves one request.
func (w *circuits) engineFor() *engine.Engine {
	switch w.mode {
	case cold:
		return engine.New(engine.Options{})
	case warm:
		return w.eng
	default:
		return engine.New(engine.Options{Store: w.st})
	}
}

func (w *circuits) serve(r request) (outcome, time.Duration, error) {
	start := time.Now()
	e := w.engineFor()
	resp, err := e.Solve(context.Background(), r.eng)
	d := time.Since(start)
	if err != nil {
		return outcome{}, d, err
	}
	return w.outcome(r, resp, e, engine.Stats{}), d, nil
}

func (w *circuits) outcome(r request, resp *engine.Response, e *engine.Engine, before engine.Stats) outcome {
	o := outcome{resp: resp, eng: e, stats: e.Stats(), optimal: resp.Solution.Optimal && !resp.Interrupted}
	o.delta = subStats(o.stats, before)
	o.cost = len(resp.Solution.Triplets)
	if r.eng.Objective == "testlength" {
		o.cost = resp.Solution.TestLength
	}
	return o
}

// assertPath fails a request that did not take its workload's path, so a
// workload that drifts onto another path fails instead of measuring it.
func (w *circuits) assertPath(s engine.Stats) error {
	var ok bool
	switch w.mode {
	case cold:
		ok = s.PrepareHits == 0 && s.MatrixHits == 0 && s.PrepareBuilds == 1 && s.MatrixBuilds == 1
	case warm:
		ok = s.PrepareBuilds == w.built.PrepareBuilds && s.MatrixBuilds == w.built.MatrixBuilds
	default:
		ok = s.PrepareBuilds == 0 && s.MatrixBuilds == 0 && s.StoreMisses == 0 && s.StoreErrors == 0 &&
			s.FlowStoreLoads == 1 && s.MatrixStoreLoads == 1
	}
	if !ok {
		return fmt.Errorf("request left the workload's path: engine stats %+v", s)
	}
	return nil
}

func (w *circuits) check(r request, o outcome) error {
	if err := w.assertPath(o.stats); err != nil {
		return err
	}
	if o.resp.Interrupted {
		return fmt.Errorf("%s/%s: solve interrupted", r.eng.Circuit, r.eng.TPG)
	}
	got, err := answerJSON(o.resp.Solution)
	if err != nil {
		return err
	}
	if want, ok := w.verified[r.eng]; ok {
		if string(got) != string(want) {
			return fmt.Errorf("%s/%s: answer differs from the one verified earlier", r.eng.Circuit, r.eng.TPG)
		}
		return nil
	}
	flow, _, err := o.eng.PrepareNamed(context.Background(), r.eng.Circuit, atpg.Options{Seed: r.eng.ATPGSeed})
	if err != nil {
		return err
	}
	if err := checkSolution(flow, r.eng.TPG, o.resp.Solution); err != nil {
		return err
	}
	if w.mode != cold {
		w.verified[r.eng] = got
	}
	return nil
}

// answerJSON is a solution's JSON without its B&B node count: at
// Parallelism > 1 that count depends on worker timing, the one field the
// repository's determinism contract leaves out.
func answerJSON(sol *core.Solution) ([]byte, error) {
	s := *sol
	s.SolverNodes = 0
	return json.Marshal(&s)
}

// coreOptions are the solver options engine.Solve derives from a request
// with no overrides other than Parallelism.
func coreOptions(q engine.Request) core.Options {
	o := core.Options{Seed: q.Seed, Parallelism: q.Parallelism, Context: context.Background()}
	if q.Objective == "testlength" {
		o.Objective = core.MinimizeTestLength
	}
	return o
}

// flowKey and matrixKey mirror the engine's store keys for a named circuit
// with default ATPG tuning. If they drift from the engine's, the traced
// restart pass finds no record and fails.
func flowKey(q engine.Request) string {
	o := atpg.Options{Seed: q.ATPGSeed}.WithDefaults()
	return fmt.Sprintf("bench:%s|atpg:seed=%d,rand=%d,stall=%d,bt=%d,skip=%t",
		q.Circuit, o.Seed, o.MaxRandomPatterns, o.RandomStallBlocks, o.BacktrackLimit, o.SkipCompaction)
}

func matrixKey(q engine.Request) string {
	return fmt.Sprintf("%s|tpg:%s,T=%d,theta-seed=%d", flowKey(q), q.TPG, core.DefaultCycles, q.Seed)
}

// traceSetup prepares the traced pass. Warm keeps the flows and matrices
// the decomposed path solves on. Restart fills its store record by record,
// recording each save and, as a side call, the encoding inside it.
func (w *circuits) traceSetup(rec *recorder) error {
	if w.mode == cold {
		return nil
	}
	e := engine.New(engine.Options{})
	if w.mode == warm {
		if err := w.setup(); err != nil {
			return err
		}
		e = w.eng // its flows are the ones engine.Solve will use
	}
	w.flows = map[string]*core.Flow{}
	w.matrices = map[engine.Request]*dmatrix.Matrix{}
	for _, k := range w.keys {
		flow, _, err := e.PrepareNamed(context.Background(), k.Circuit, atpg.Options{Seed: k.ATPGSeed})
		if err != nil {
			return err
		}
		gen, err := tpg.ByName(k.TPG, len(flow.Circuit.Inputs))
		if err != nil {
			return err
		}
		m, err := flow.BuildMatrix(gen, coreOptions(k))
		if err != nil {
			return err
		}
		w.flows[flowKey(k)], w.matrices[k] = flow, m
	}
	if w.mode != restart {
		return nil
	}
	st, err := store.Open(filepath.Join(w.dir, "store-traced"))
	if err != nil {
		return err
	}
	w.st = st
	saved := map[string]bool{}
	for _, k := range w.keys {
		if fk := flowKey(k); !saved[fk] {
			saved[fk] = true
			flow := w.flows[fk]
			if err := recordSave(rec, "flow", func() error { return st.SaveFlow(fk, flow) },
				func() ([]byte, error) { return store.EncodeFlow(fk, flow) }); err != nil {
				return err
			}
		}
		mk, m := matrixKey(k), w.matrices[k]
		if err := recordSave(rec, "matrix", func() error { return st.SaveMatrix(mk, m) },
			func() ([]byte, error) { return store.EncodeMatrix(mk, m) }); err != nil {
			return err
		}
	}
	return nil
}

// recordSave times one store write (request 0, the setup) and then replays
// its encoding as a side call, so the write's self time excludes encoding.
func recordSave(rec *recorder, kind string, save func() error, encode func() ([]byte, error)) error {
	s := rec.begin(0, -1, "store.save", false)
	err := save()
	rec.end(s, map[string]int64{kind: 1})
	if err != nil {
		return err
	}
	enc := rec.begin(0, s, "store.encode", true)
	data, err := encode()
	rec.end(enc, map[string]int64{"bytes": int64(len(data))})
	return err
}

// traced serves one request through the layers' public functions in the
// order the engine calls them, then through engine.Solve, whose answer it
// must reproduce.
func (w *circuits) traced(rec *recorder, id int, r request) (outcome, error) {
	q := r.eng
	root := rec.begin(id, -1, "request", false)
	var flow *core.Flow
	var m *dmatrix.Matrix
	var err error
	switch w.mode {
	case cold:
		flow, m, err = tracedBuild(rec, id, root, q)
	case warm:
		k := q
		k.Objective, k.Parallelism = "", 0
		flow, m = w.flows[flowKey(q)], w.matrices[k]
	default:
		flow, m, err = w.tracedLoad(rec, id, root, q)
	}
	if err != nil {
		rec.end(root, nil)
		return outcome{}, err
	}
	gen, err := tpg.ByName(q.TPG, len(flow.Circuit.Inputs))
	if err != nil {
		rec.end(root, nil)
		return outcome{}, err
	}
	opts := coreOptions(q)
	cs := rec.begin(id, root, "core", false)
	sol, err := flow.SolveMatrix(m, gen, opts)
	rec.end(cs, nil)
	rec.end(root, nil)
	if err != nil {
		return outcome{}, err
	}
	if err := replayCovering(rec, id, cs, m, opts); err != nil {
		return outcome{}, err
	}

	e := w.engineFor()
	before := e.Stats()
	es := rec.begin(id, -1, "engine.solve", true)
	resp, err := e.Solve(context.Background(), q)
	rec.end(es, nil)
	if err != nil {
		return outcome{}, err
	}
	o := w.outcome(r, resp, e, before)
	mine, err := answerJSON(sol)
	if err != nil {
		return o, err
	}
	theirs, err := answerJSON(resp.Solution)
	if err != nil {
		return o, err
	}
	if string(mine) != string(theirs) {
		return o, fmt.Errorf("%s/%s: traced answer differs from engine.Solve's", q.Circuit, q.TPG)
	}
	if sol.SolverNodes != resp.Solution.SolverNodes {
		w.nodeDiffs++
	}
	return o, nil
}

// tracedBuild is the cold path: circuit, fault list, ATPG, matrix.
func tracedBuild(rec *recorder, id, root int, q engine.Request) (*core.Flow, *dmatrix.Matrix, error) {
	s := rec.begin(id, root, "bench", false)
	c, err := bench.ScanView(q.Circuit)
	rec.end(s, nil)
	if err != nil {
		return nil, nil, err
	}
	rec.spans[s].Counts = map[string]int64{"gates": int64(c.NumLogicGates())}

	s = rec.begin(id, root, "fault", false)
	all, _, err := fault.List(c)
	rec.end(s, map[string]int64{"faults": int64(len(all))})
	if err != nil {
		return nil, nil, err
	}

	s = rec.begin(id, root, "atpg", false)
	res, err := atpg.Run(c, all, atpg.Options{Seed: q.ATPGSeed})
	rec.end(s, nil)
	if err != nil {
		return nil, nil, err
	}
	st := res.Stats
	rec.spans[s].Counts = map[string]int64{
		"patterns":                   int64(len(res.Patterns)),
		"patterns_before_compaction": int64(st.PatternsBeforeCompaction),
		"random_patterns":            int64(st.RandomPatterns),
		"podem_targets":              int64(st.PodemDetected + st.PodemUntestable + st.PodemAborted),
		"aborted":                    int64(st.PodemAborted),
		"gate_evals":                 st.GateEvals,
	}

	s = rec.begin(id, root, "dmatrix", false)
	flow := core.NewFlow(c, all, res)
	gen, err := tpg.ByName(q.TPG, len(c.Inputs))
	var m *dmatrix.Matrix
	if err == nil {
		m, err = flow.BuildMatrix(gen, coreOptions(q))
	}
	rec.end(s, nil)
	if err != nil {
		return nil, nil, err
	}
	rec.spans[s].Counts = map[string]int64{"rows": int64(len(m.Rows)), "gate_evals": m.GateEvals, "triplet_sims": int64(m.TripletSims)}
	return flow, m, nil
}

// tracedLoad is the restart path: read and decode the flow and matrix
// records the engine would load.
func (w *circuits) tracedLoad(rec *recorder, id, root int, q engine.Request) (*core.Flow, *dmatrix.Matrix, error) {
	read := func(kind store.Kind, key string) ([]byte, error) {
		s := rec.begin(id, root, "store.read", false)
		data, err := w.st.GetRaw(kind, store.HashKey(key))
		rec.end(s, map[string]int64{"bytes": int64(len(data))})
		if err == nil && data == nil {
			err = fmt.Errorf("store holds no %s record for %s", kind, key)
		}
		return data, err
	}
	fk, mk := flowKey(q), matrixKey(q)
	data, err := read(store.KindFlows, fk)
	if err != nil {
		return nil, nil, err
	}
	s := rec.begin(id, root, "store.decode_flow", false)
	flow, err := store.DecodeFlow(fk, data)
	rec.end(s, nil)
	if err != nil {
		return nil, nil, err
	}
	if data, err = read(store.KindMatrices, mk); err != nil {
		return nil, nil, err
	}
	s = rec.begin(id, root, "store.decode_matrix", false)
	m, err := store.DecodeMatrix(mk, data)
	rec.end(s, nil)
	if err == nil && (flow == nil || m == nil) {
		err = fmt.Errorf("store records for %s are of another format version", mk)
	}
	return flow, m, err
}

// replayCovering re-runs the covering steps of Flow.SolveMatrix on the same
// matrix as side calls of the core span: problem build, reduction and, when
// a residual survives, the exact search.
func replayCovering(rec *recorder, id, parent int, m *dmatrix.Matrix, opts core.Options) error {
	s := rec.begin(id, parent, "setcover.build", true)
	p := setcover.NewProblem(m.NumFaults)
	for _, row := range m.Rows {
		p.AddRow(row)
	}
	rec.end(s, nil)

	var weights []int
	if opts.Objective == core.MinimizeTestLength {
		weights = make([]int, len(m.Rows))
		for i, row := range m.Rows {
			weights[i] = m.EffectiveLength(i, row.Elements())
		}
	}
	s = rec.begin(id, parent, "setcover.reduce", true)
	var red *setcover.Reduction
	var err error
	if weights != nil {
		red, err = p.ReduceWeighted(weights)
	} else {
		red = p.Reduce()
	}
	rec.end(s, nil)
	if err != nil {
		return err
	}
	rec.spans[s].Counts = map[string]int64{"iterations": int64(red.Iterations),
		"residual_rows": int64(red.Residual.NumRows()), "residual_cols": int64(red.Residual.NumCols())}
	if red.Empty() {
		return nil
	}
	exact := opts.Exact
	exact.Context = opts.Context
	var sub setcover.Solution
	s = rec.begin(id, parent, "setcover.exact", true)
	if weights != nil {
		subWeights := make([]int, len(red.RowMap))
		for i, r := range red.RowMap {
			subWeights[i] = weights[r]
		}
		sub, err = red.Residual.SolveExactWeighted(subWeights, exact)
	} else {
		sub, err = red.Residual.SolveExact(exact)
	}
	rec.end(s, nil)
	if err != nil {
		return err
	}
	rec.spans[s].Counts = exactCounts(sub)
	return nil
}

func exactCounts(sol setcover.Solution) map[string]int64 {
	return map[string]int64{"nodes": sol.Nodes, "cost": int64(sol.Cost), "root_lb": int64(sol.RootLB)}
}

func subStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		PrepareBuilds:    a.PrepareBuilds - b.PrepareBuilds,
		PrepareHits:      a.PrepareHits - b.PrepareHits,
		MatrixBuilds:     a.MatrixBuilds - b.MatrixBuilds,
		MatrixHits:       a.MatrixHits - b.MatrixHits,
		FlowStoreLoads:   a.FlowStoreLoads - b.FlowStoreLoads,
		MatrixStoreLoads: a.MatrixStoreLoads - b.MatrixStoreLoads,
	}
}

func (w *circuits) close() { os.RemoveAll(w.dir) }
