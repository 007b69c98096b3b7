// Command layerbench is the repository's benchmark. It drives the
// reseeding flow in-process through the public engine.Engine and setcover
// APIs as a closed loop with one client, on one of four seeded workloads:
//
//	cold     every request on a fresh Engine: circuit, faults, ATPG, matrix, cover
//	warm     every request served from a set-up Engine's caches
//	restart  every request on a fresh Engine reading an on-disk store
//	cover    exact set-covering solves of generated and committed instances
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash layerbench/run.sh --workload cold --seed 1 --seconds 12 --trace 0
//	bash layerbench/run.sh steady --workload warm --runs 5
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// a traced pass that times each layer's public functions from outside and
// reports the per-layer metrics. The last line of standard output is the
// result object; the line before it carries run details (sample count,
// tail percentile, set-up repetitions). Every answer is checked, and any
// failure makes the run exit 1. See README.md for what each metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// request is one item of a workload's sequence: a circuit query or a
// covering instance (golden is its committed optimum, -1 if none).
type request struct {
	eng    engine.Request
	inst   *corpus.Instance
	golden int
}

// requestKey identifies a request without holding on to its instance, so
// that counting distinct requests keeps no generated instance alive.
type requestKey struct {
	eng  engine.Request
	inst string
}

func (r request) key() requestKey {
	k := requestKey{eng: r.eng}
	if r.inst != nil {
		k.inst = r.inst.Name
	}
	return k
}

// outcome is what serving one request returned.
type outcome struct {
	cost    int
	optimal bool
	resp    *engine.Response
	eng     *engine.Engine
	stats   engine.Stats // the serving engine's counters after the call
	delta   engine.Stats // the part of them the call added
	cover   setcover.Solution
}

// A workload is a seeded request sequence and the state it runs against.
type workload interface {
	// setup builds the state the timed requests need. It is timed and
	// repeated; the last state is kept.
	setup() error
	// release drops the state the last setup built, so that the next
	// repetition does not hold two of them at once.
	release()
	// pass returns pass p of the sequence.
	pass(p int) []request
	// serve runs one request untraced and times it.
	serve(r request) (outcome, time.Duration, error)
	// check verifies an outcome, untimed.
	check(r request, o outcome) error
	// traceSetup replaces setup in a traced run.
	traceSetup(rec *recorder) error
	// traced runs one request as layer calls recorded in rec.
	traced(rec *recorder, id int, r request) (outcome, error)
	close()
}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "cold":
		return newCircuits(cold, seed, dir), nil
	case "warm":
		return newCircuits(warm, seed, dir), nil
	case "restart":
		return newCircuits(restart, seed, dir), nil
	case "cover":
		return newCover(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold, warm, restart or cover)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run repeats its set-up at least minSetups times and until setupBudget
// has passed, up to maxSetups; setup_s is the median. Quick set-ups are
// thereby repeated often enough for their median to hold still.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold, warm, restart or cover")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	seconds := fs.Float64("seconds", 15, "time spent in measured calls before the run may stop")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		return 2
	}
	defer w.close()

	info := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seconds, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed)), info)
	} else {
		res, err = measuredRun(w, *seconds, info)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		return 1
	}
	line, err := json.Marshal(map[string]any{"info": info})
	if err == nil {
		fmt.Println(string(line))
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// minPasses is how many passes a run serves however long they take. A
// cold pass is 28 requests taking about 7s; with two passes per run its
// p75 tail rested on 14 requests and spread by 16-24% over ten seeds.
func minPasses(w workload) int {
	if c, ok := w.(*circuits); ok && c.mode == cold {
		return 3
	}
	return 1
}

// loop serves whole passes of w, at least minPasses, until the measured
// time reaches seconds. Stopping only between passes keeps every circuit,
// generator and instance shape equally represented. serve runs one request
// and returns its measured time. The first failure ends the loop: the run
// is rejected anyway, and a workload whose requests all fail would never
// accumulate measured time.
func loop(w workload, seconds float64, serve func(p int, r request) (time.Duration, error)) (attempted, failed, passes int, busy time.Duration) {
	for p := 0; p < minPasses(w) || busy.Seconds() < seconds; p++ {
		for _, r := range w.pass(p) {
			attempted++
			d, err := serve(p, r)
			if err != nil {
				fmt.Fprintf(os.Stderr, "layerbench: request %d failed: %v\n", attempted, err)
				return attempted, 1, p, busy
			}
			busy += d
		}
		passes++
	}
	return attempted, 0, passes, busy
}

func measuredRun(w workload, seconds float64, info map[string]any) (result, error) {
	var setups []float64
	for total := 0.0; len(setups) < minSetups || (total < setupBudget.Seconds() && len(setups) < maxSetups); {
		w.release()
		runtime.GC() // free the previous repetition's state outside the timing
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	runtime.GC() // start measuring from the same heap state in every run
	var lat []float64
	distinct := map[requestKey]bool{}
	optimal, costTotal := 0, 0
	start := time.Now()
	attempted, failed, passes, busy := loop(w, seconds, func(p int, r request) (time.Duration, error) {
		o, d, err := w.serve(r)
		if err == nil {
			err = w.check(r, o)
		}
		if err != nil {
			return 0, err
		}
		lat = append(lat, float64(d)/1e6)
		distinct[r.key()] = true
		if o.optimal {
			optimal++
		}
		if p == 0 {
			costTotal += o.cost
		}
		return d, nil
	})
	// Warm and restart replay the same requests every pass, so their
	// samples above a percentile may be a handful of requests measured many
	// times over. The tail must have ten distinct requests beyond it.
	tail, tailOK := tailPercentile(len(distinct))
	info["samples"], info["distinct_requests"] = len(lat), len(distinct)
	info["tail_percentile"], info["tail_has_10_beyond"] = tail, tailOK
	info["passes"], info["busy_s"], info["wall_s"] = passes, busy.Seconds(), time.Since(start).Seconds()
	info["setup_runs"] = len(setups)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}}
	if len(lat) > 0 {
		res.Metrics["solves_per_s"] = metric{float64(len(lat)) / busy.Seconds(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{median(lat), "ms"}
		res.Metrics["latency_tail_ms"] = metric{percentile(lat, tail), "ms"}
		res.Metrics["cover_cost_total"] = metric{float64(costTotal), "cost"}
		res.Metrics["optimal_share"] = metric{float64(optimal) / float64(len(lat)), "share"}
	}
	return res, nil
}

func tracedRun(w workload, seconds float64, spansPath string, info map[string]any) (result, error) {
	rec := newRecorder()
	if err := w.traceSetup(rec); err != nil {
		return result{}, fmt.Errorf("trace setup: %w", err)
	}
	var stats engine.Stats
	id, firstPass := 0, 0
	attempted, failed, passes, _ := loop(w, seconds, func(p int, r request) (time.Duration, error) {
		id++
		if p == 0 {
			firstPass = id
		}
		start := len(rec.spans)
		o, err := w.traced(rec, id, r)
		if err == nil {
			err = w.check(r, o)
		}
		if err != nil {
			return 0, err
		}
		stats = addStats(stats, o.delta)
		var d time.Duration
		for _, s := range rec.spans[start:] {
			if s.Name == "request" {
				d += s.dur()
			}
		}
		return d, nil
	})
	if err := rec.write(spansPath); err != nil {
		return result{}, err
	}
	info["spans_file"], info["passes"], info["requests"] = spansPath, passes, id
	if c, ok := w.(*circuits); ok {
		info["node_count_diffs"] = c.nodeDiffs
	}
	m := layerMetrics(rec.spans, float64(max(passes, 1)), firstPass, stats, info)
	m["failed_share"] = metric{float64(failed) / float64(max(attempted, 1)), "share"}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func addStats(a, b engine.Stats) engine.Stats {
	a.PrepareBuilds += b.PrepareBuilds
	a.PrepareHits += b.PrepareHits
	a.MatrixBuilds += b.MatrixBuilds
	a.MatrixHits += b.MatrixHits
	a.FlowStoreLoads += b.FlowStoreLoads
	a.MatrixStoreLoads += b.MatrixStoreLoads
	return a
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
