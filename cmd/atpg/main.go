// Command atpg runs the deterministic test generator on a circuit and
// prints the compacted test set with coverage statistics, including the
// full fault-collapsing report (total, representatives, classes, largest
// class). It can emit the patterns to a file consumed by cmd/faultsim.
// SIGINT/SIGTERM cancel a long run.
//
// Usage:
//
//	atpg -circuit c880 -j 4
//	atpg -file mydesign.bench -o patterns.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	reseeding "repro"
	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/netlist"
)

func main() {
	var (
		circuit = flag.String("circuit", "c880", "benchmark circuit name")
		file    = flag.String("file", "", ".bench netlist file (overrides -circuit)")
		seed    = flag.Int64("seed", 1, "random seed")
		limit   = flag.Int("backtracks", 0, "PODEM backtrack limit (0 = default)")
		jobs    = flag.Int("j", 0,
			"worker goroutines for fault simulation and PODEM (0 = all processors; the test set is identical for any value)")
		out = flag.String("o", "", "write patterns to this file (one binary string per line)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := loadCircuit(*file, *circuit)
	if err != nil {
		fail(err)
	}
	// The facade variant keeps the collapsing statistics the plain Faults
	// helper discards.
	faults, stats, err := reseeding.FaultsWithStats(c)
	if err != nil {
		fail(err)
	}
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates\n",
		c.Name, len(c.Inputs), len(c.Outputs), c.NumLogicGates())
	fmt.Printf("faults: %d collapsed from %d in %d equivalence classes (largest class %d)\n",
		stats.Collapsed, stats.Total, stats.Classes, stats.MaxClass)

	res, err := atpg.Run(c, faults, atpg.Options{Seed: *seed, BacktrackLimit: *limit, Parallelism: *jobs, Context: ctx})
	if err != nil {
		fail(err)
	}
	fmt.Printf("patterns: %d (from %d before compaction; %d random-phase patterns tried)\n",
		len(res.Patterns), res.Stats.PatternsBeforeCompaction, res.Stats.RandomPatterns)
	fmt.Printf("coverage: %.2f%% raw, %.2f%% of testable\n",
		100*res.Coverage(), 100*res.TestableCoverage())
	fmt.Printf("detected: %d random-phase, %d deterministic; %d untestable, %d aborted\n",
		res.Stats.RandomDetected, res.Stats.PodemDetected,
		res.Stats.PodemUntestable, res.Stats.PodemAborted)
	fmt.Printf("PODEM effort: %d decisions, %d backtracks, %d implications\n",
		res.Stats.PodemDecisions, res.Stats.PodemBacktracks, res.Stats.PodemImplications)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		w := bufio.NewWriter(f)
		for _, p := range res.Patterns {
			fmt.Fprintln(w, p.String())
		}
		if err := w.Flush(); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d patterns to %s\n", len(res.Patterns), *out)
	}
}

func loadCircuit(file, circuit string) (*netlist.Circuit, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := netlist.Parse(file, f)
		if err != nil {
			return nil, err
		}
		if !c.IsCombinational() {
			return c.FullScan()
		}
		return c, nil
	}
	return bench.ScanView(circuit)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atpg:", err)
	os.Exit(1)
}
