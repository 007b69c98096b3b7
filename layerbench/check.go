package main

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
	"repro/internal/tpg"
)

// checkSolution verifies a reseeding solution without trusting the
// Detection Matrix the engine built: every chosen triplet is expanded
// again on its generator for its trimmed length and fault-simulated
// against the target faults, and the union of those detection rows must
// cover all of them.
func checkSolution(flow *core.Flow, kind string, sol *core.Solution) error {
	if !sol.Optimal {
		return fmt.Errorf("%s/%s: cover not proven optimal", sol.Circuit, kind)
	}
	if sol.NumNecessary+sol.NumFromSolver != len(sol.Triplets) {
		return fmt.Errorf("%s/%s: %d necessary + %d from solver != %d triplets",
			sol.Circuit, kind, sol.NumNecessary, sol.NumFromSolver, len(sol.Triplets))
	}
	gen, err := tpg.ByName(kind, len(flow.Circuit.Inputs))
	if err != nil {
		return err
	}
	sim, err := fsim.New(flow.Circuit)
	if err != nil {
		return err
	}
	rows := make([]*bitvec.Set, len(sol.Triplets))
	assigned, length := 0, 0
	for i, t := range sol.Triplets {
		pats, err := tpg.Expand(gen, tpg.Triplet{Delta: t.Delta, Theta: t.Theta, Cycles: t.EffectiveCycles})
		if err != nil {
			return err
		}
		res, err := sim.Run(flow.TargetFaults, pats, fsim.Options{DropDetected: true, Parallelism: 1})
		if err != nil {
			return err
		}
		rows[i] = bitvec.NewSet(len(flow.TargetFaults))
		for fi, d := range res.Detected {
			if d {
				rows[i].Add(fi)
			}
		}
		assigned += t.AssignedFaults
		length += t.EffectiveCycles
	}
	if assigned != len(flow.TargetFaults) {
		return fmt.Errorf("%s/%s: %d faults assigned, %d targeted", sol.Circuit, kind, assigned, len(flow.TargetFaults))
	}
	if length != sol.TestLength {
		return fmt.Errorf("%s/%s: trimmed lengths sum to %d, test length says %d", sol.Circuit, kind, length, sol.TestLength)
	}
	if err := coversAll(len(flow.TargetFaults), rows); err != nil {
		return fmt.Errorf("%s/%s: %w", sol.Circuit, kind, err)
	}
	return nil
}

// coversAll reports the first column that none of the rows covers.
func coversAll(numCols int, rows []*bitvec.Set) error {
	covered := bitvec.NewSet(numCols)
	for _, r := range rows {
		covered.Or(r)
	}
	if covered.Len() == numCols {
		return nil
	}
	for c := 0; c < numCols; c++ {
		if !covered.Contains(c) {
			return fmt.Errorf("column %d of %d is not covered (%d uncovered)", c, numCols, numCols-covered.Len())
		}
	}
	panic("unreachable")
}

// checkCover verifies an exact solve of a covering instance: the rows
// cover every column, the reported cost is their cost, the search proved
// optimality, the root bound does not exceed the cost, and a committed
// instance reaches its golden optimum (golden < 0 when there is none).
func checkCover(inst *corpus.Instance, sol setcover.Solution, golden int) error {
	if !inst.Problem.Verify(sol.Rows) {
		return fmt.Errorf("%s: rows %v do not cover every column", inst.Name, sol.Rows)
	}
	cost := 0
	for _, r := range sol.Rows {
		cost += inst.Costs[r]
	}
	switch {
	case cost != sol.Cost:
		return fmt.Errorf("%s: rows cost %d, solver reports %d", inst.Name, cost, sol.Cost)
	case !sol.Optimal:
		return fmt.Errorf("%s: not proven optimal", inst.Name)
	case sol.RootLB > sol.Cost:
		return fmt.Errorf("%s: root bound %d above cost %d", inst.Name, sol.RootLB, sol.Cost)
	case golden >= 0 && sol.Cost != golden:
		return fmt.Errorf("%s: cost %d, golden optimum %d", inst.Name, sol.Cost, golden)
	}
	return nil
}
