// Package atpg generates compacted deterministic test sets for stuck-at
// faults on combinational circuits.
//
// It stands in for the commercial gate-level ATPG (TestGen in the paper)
// that supplies the reseeding flow with its inputs: the target fault list F
// and the deterministic test set ATPGTS that covers F completely. The flow
// is classical: a random-pattern phase with fault dropping, a deterministic
// PODEM phase for the random-resistant faults, and reverse-order fault
// simulation to compact the final pattern sequence.
package atpg

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/ctxutil"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/parallel"
)

// Options tunes the ATPG run. The zero value selects sensible defaults.
type Options struct {
	// Seed drives pattern randomness (random phase and X-filling).
	Seed int64
	// MaxRandomPatterns bounds the random phase (default 10*64).
	MaxRandomPatterns int
	// RandomStallBlocks stops the random phase after this many consecutive
	// 64-pattern blocks without a new detection (default 2).
	RandomStallBlocks int
	// BacktrackLimit bounds PODEM backtracks per fault (default 1000).
	BacktrackLimit int
	// SkipCompaction keeps the raw pattern list (useful for ablation).
	SkipCompaction bool
	// Parallelism bounds the worker pool of every phase: fault simulation
	// in the random, PODEM-grading and compaction phases, and the PODEM
	// searches themselves. 1 forces serial; 0 (and any negative value)
	// means one worker per available processor. The generated test set and
	// every Stats counter are bit-identical for any value: fsim folds its
	// workers' results in fault order, PODEM searches draw no randomness,
	// and Run X-fills their input cubes and folds their counters in target
	// order on the calling goroutine.
	Parallelism int
	// Context, when non-nil, cancels the run: it is checked between
	// fault-simulation blocks (through fsim), before every PODEM search and
	// at each phase boundary. A cancelled run returns the context's error —
	// there is no partial test set.
	Context context.Context
}

// WithDefaults returns the options with every zero tuning field replaced by
// its documented default. Run applies it internally; the reseeding Engine
// applies it too before deriving cache keys, so that explicitly passing a
// default value and leaving the field zero address the same artifact.
func (o Options) WithDefaults() Options {
	if o.MaxRandomPatterns == 0 {
		o.MaxRandomPatterns = 640
	}
	if o.RandomStallBlocks == 0 {
		o.RandomStallBlocks = 2
	}
	if o.BacktrackLimit == 0 {
		o.BacktrackLimit = 1000
	}
	return o
}

// Stats reports how the test set was produced.
type Stats struct {
	RandomPatterns           int // patterns tried in the random phase
	RandomDetected           int // faults detected by the random phase
	PodemDetected            int // faults detected by PODEM patterns
	PodemUntestable          int // faults proven untestable
	PodemAborted             int // faults abandoned at the backtrack limit
	PatternsBeforeCompaction int
	GateEvals                int64 // fault-simulation effort
	// PODEM search effort, summed over every target.
	PodemDecisions    int64 // primary-input assignments chosen by backtrace
	PodemBacktracks   int64 // dead ends reached
	PodemImplications int64 // gate evaluations during event propagation
}

// Result is the outcome of an ATPG run.
type Result struct {
	// Patterns is the final (compacted) deterministic test set, the
	// paper's ATPGTS.
	Patterns []bitvec.Vector
	// Detected[i] reports whether faults[i] is detected by Patterns.
	Detected []bool
	// Untestable lists indices of faults proven redundant.
	Untestable []int
	// Aborted lists indices of faults abandoned at the backtrack limit.
	Aborted []int
	Stats   Stats
}

// Coverage returns detected / total over the full fault list.
func (r *Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 1
	}
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(r.Detected))
}

// TestableCoverage returns detected / (total − untestable), the paper's
// "testable fault coverage".
func (r *Result) TestableCoverage() float64 {
	testable := len(r.Detected) - len(r.Untestable)
	if testable <= 0 {
		return 1
	}
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(testable)
}

// DetectedFaults returns the indices of detected faults, the target list F
// for the reseeding flow.
func (r *Result) DetectedFaults() []int {
	var out []int
	for i, d := range r.Detected {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Run generates a compacted test set for the fault list on the finalized
// combinational circuit.
func Run(c *netlist.Circuit, faults []fault.Fault, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	if !c.IsCombinational() {
		return nil, fmt.Errorf("atpg: circuit %q is sequential; apply FullScan first", c.Name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sim, err := fsim.New(c)
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	res := &Result{Detected: make([]bool, len(faults))}
	width := len(c.Inputs)

	// Phase 1: random patterns with fault dropping. Patterns that detect
	// nothing new are discarded block by block.
	var patterns []bitvec.Vector
	undetected := make([]int, len(faults))
	for i := range faults {
		undetected[i] = i
	}
	stall := 0
	for len(patterns) < opts.MaxRandomPatterns && len(undetected) > 0 && stall < opts.RandomStallBlocks {
		block := make([]bitvec.Vector, 64)
		for i := range block {
			block[i] = bitvec.Random(width, rng)
		}
		sub := subset(faults, undetected)
		fres, err := sim.Run(sub, block, fsim.Options{DropDetected: true, Parallelism: opts.Parallelism, Context: opts.Context})
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		res.Stats.GateEvals += fres.GateEvals
		res.Stats.RandomPatterns += len(block)
		if fres.NumDetected == 0 {
			stall++
			continue
		}
		stall = 0
		// Keep only patterns that first-detect something.
		keep := make([]bool, len(block))
		for si, fp := range fres.FirstPattern {
			if fp >= 0 {
				keep[fp] = true
				fi := undetected[si]
				res.Detected[fi] = true
				res.Stats.RandomDetected++
			}
		}
		for pi, k := range keep {
			if k {
				patterns = append(patterns, block[pi])
			}
		}
		undetected = filterUndetected(undetected, res.Detected)
	}

	// Phase 2: PODEM on the remaining faults. Patterns are produced in
	// batches of up to 64 (one per distinct target fault) and then fault
	// simulated as a single block, so each deterministic pattern can drop
	// many faults at the cost of one parallel-pattern pass.
	//
	// The searches of a batch run in windows of 64−len(batch) targets on
	// the worker pool, one podem per worker. A window never holds more
	// targets than the batch has room for detections, so every search it
	// runs is one the serial loop would run too. Results are consumed in
	// target order, and only the consumer draws from rng (the X-fill of a
	// detected target's cube), so the test set, the untestable and aborted
	// lists and every counter match a serial run exactly.
	workers := parallel.Degree(opts.Parallelism)
	gens := make([]*podem, workers) // created on a worker's first search
	var slots [64]searchResult
	classified := make([]bool, len(faults)) // untestable or aborted
	for len(undetected) > 0 {
		var batch []bitvec.Vector
		var targets []int
		for pos := 0; pos < len(undetected) && len(batch) < 64; {
			window := undetected[pos:min(pos+64-len(batch), len(undetected))]
			pos += len(window)
			err := parallel.ForEach(workers, len(window), func(w, i int) error {
				if err := ctxutil.Err(opts.Context); err != nil {
					return err
				}
				g := gens[w]
				if g == nil {
					g = newPodem(c, opts.BacktrackLimit)
					gens[w] = g
				}
				r := &slots[i]
				r.st = g.search(faults[window[i]])
				r.eff = g.eff
				if r.st == statusDetected {
					r.cube = g.cube(r.cube)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("atpg: %w", err)
			}
			for i, fi := range window {
				r := &slots[i]
				res.Stats.PodemDecisions += r.eff.decisions
				res.Stats.PodemBacktracks += r.eff.backtracks
				res.Stats.PodemImplications += r.eff.implications
				switch r.st {
				case statusUntestable:
					res.Untestable = append(res.Untestable, fi)
					res.Stats.PodemUntestable++
					classified[fi] = true
				case statusAborted:
					res.Aborted = append(res.Aborted, fi)
					res.Stats.PodemAborted++
					classified[fi] = true
				case statusDetected:
					batch = append(batch, fillCube(r.cube, rng))
					targets = append(targets, fi)
				}
			}
		}
		n := 0
		for _, fi := range undetected {
			if !classified[fi] {
				undetected[n] = fi
				n++
			}
		}
		undetected = undetected[:n]
		if len(batch) == 0 {
			break // every remaining fault in range was classified
		}
		sub := subset(faults, undetected)
		fres, err := sim.Run(sub, batch, fsim.Options{DropDetected: true, Parallelism: opts.Parallelism, Context: opts.Context})
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		res.Stats.GateEvals += fres.GateEvals
		for si, d := range fres.Detected {
			if d {
				res.Detected[undetected[si]] = true
				res.Stats.PodemDetected++
			}
		}
		for bi, fi := range targets {
			if !res.Detected[fi] {
				// PODEM said detected but simulation disagrees: that is a
				// generator bug; fail loudly rather than looping forever.
				return nil, fmt.Errorf("atpg: internal error: PODEM pattern %d does not detect %s",
					bi, faults[fi].String(c))
			}
		}
		patterns = append(patterns, batch...)
		undetected = filterUndetected(undetected, res.Detected)
	}
	res.Stats.PatternsBeforeCompaction = len(patterns)

	// Phase 3: reverse-order compaction. Simulating the sequence backwards
	// with fault dropping keeps only patterns that still first-detect a
	// fault; later (deterministic, high-yield) patterns absorb the work of
	// earlier random ones.
	if !opts.SkipCompaction && len(patterns) > 0 {
		detectedIdx := res.DetectedFaults()
		sub := subset(faults, detectedIdx)
		reversed := make([]bitvec.Vector, len(patterns))
		for i, p := range patterns {
			reversed[len(patterns)-1-i] = p
		}
		fres, err := sim.Run(sub, reversed, fsim.Options{DropDetected: true, Parallelism: opts.Parallelism, Context: opts.Context})
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		res.Stats.GateEvals += fres.GateEvals
		keep := make([]bool, len(reversed))
		for _, fp := range fres.FirstPattern {
			if fp >= 0 {
				keep[fp] = true
			}
		}
		var compacted []bitvec.Vector
		for i := len(reversed) - 1; i >= 0; i-- { // restore original order
			if keep[i] {
				compacted = append(compacted, reversed[i])
			}
		}
		patterns = compacted
	}
	res.Patterns = patterns
	return res, nil
}

// searchResult is one PODEM target's outcome, written by the worker that
// searched it and consumed in target order by Run.
type searchResult struct {
	st   status
	cube []byte // detecting input cube (statusDetected only); buffer reused
	eff  effort
}

func subset(faults []fault.Fault, idx []int) []fault.Fault {
	out := make([]fault.Fault, len(idx))
	for i, fi := range idx {
		out[i] = faults[fi]
	}
	return out
}

func filterUndetected(idx []int, detected []bool) []int {
	n := 0
	for _, fi := range idx {
		if !detected[fi] {
			idx[n] = fi
			n++
		}
	}
	return idx[:n]
}
