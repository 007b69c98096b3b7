package main

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
	"repro/internal/tpg"
)

func setOf(n int, elems ...int) *bitvec.Set {
	s := bitvec.NewSet(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func TestCoversAllRejectsOneFlippedBit(t *testing.T) {
	rows := []*bitvec.Set{setOf(4, 0, 1), setOf(4, 2), setOf(4, 2, 3)}
	if err := coversAll(4, rows); err != nil {
		t.Fatalf("valid cover rejected: %v", err)
	}
	// Column 1 is covered by row 0 alone.
	rows[0].Remove(1)
	if err := coversAll(4, rows); err == nil {
		t.Fatal("cover with a flipped row bit accepted")
	}
}

// flipPrivateBit returns a copy of the instance in which one chosen row
// loses a column that no other chosen row covers.
func flipPrivateBit(t *testing.T, inst *corpus.Instance, chosen []int) *corpus.Instance {
	t.Helper()
	p := setcover.NewProblem(inst.Problem.NumCols())
	flipped := false
	for r := 0; r < inst.Problem.NumRows(); r++ {
		row := inst.Problem.Row(r).Clone()
		if !flipped && r == chosen[0] {
			others := bitvec.NewSet(p.NumCols())
			for _, o := range chosen[1:] {
				others.Or(inst.Problem.Row(o))
			}
			if c := row.FirstNotIn(others); c >= 0 {
				row.Remove(c)
				flipped = true
			}
		}
		p.AddRow(row)
	}
	if !flipped {
		t.Fatal("no private column in the first chosen row")
	}
	return &corpus.Instance{Name: inst.Name, Costs: inst.Costs, Problem: p}
}

func TestCheckCoverRejectsOneFlippedRowBit(t *testing.T) {
	inst, err := corpus.Load("medium-3")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := goldenOptima()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solveInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCover(inst, sol, golden[inst.Name]); err != nil {
		t.Fatalf("valid solve rejected: %v", err)
	}
	if err := checkCover(flipPrivateBit(t, inst, sol.Rows), sol, golden[inst.Name]); err == nil {
		t.Fatal("cover with a flipped row bit accepted")
	}
	wrong := sol
	wrong.Cost++
	if err := checkCover(inst, wrong, -1); err == nil {
		t.Fatal("misreported cost accepted")
	}
}

func TestCheckSolutionRejectsTamperedTriplet(t *testing.T) {
	c, err := bench.ScanView("c432")
	if err != nil {
		t.Fatal(err)
	}
	flow, err := core.Prepare(c, atpg.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tpg.ByName("adder", len(c.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := flow.Solve(gen, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolution(flow, "adder", sol); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
	// Dropping a triplet leaves its assigned faults uncovered.
	short := *sol
	short.Triplets = sol.Triplets[1:]
	short.NumNecessary, short.NumFromSolver = len(short.Triplets), 0
	if err := checkSolution(flow, "adder", &short); err == nil {
		t.Fatal("solution missing a triplet accepted")
	}
}
