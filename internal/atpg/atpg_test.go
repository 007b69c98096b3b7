package atpg

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
)

const c17Bench = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func mustParse(t testing.TB, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

func TestFullCoverageC17(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, faults, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("c17 coverage = %v, want 1.0 (aborted: %d, untestable: %d)",
			res.Coverage(), len(res.Aborted), len(res.Untestable))
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns produced")
	}
	// The classic minimal test set for c17 has 4-5 patterns; compaction
	// should land close.
	if len(res.Patterns) > 10 {
		t.Errorf("compacted test set unusually large: %d patterns", len(res.Patterns))
	}

	// Independent check: grading the returned patterns must reproduce the
	// claimed detection record.
	sim, _ := fsim.New(c)
	fres, err := sim.Run(faults, res.Patterns, fsim.Options{DropDetected: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if fres.Detected[i] != res.Detected[i] {
			t.Errorf("fault %s: ATPG claims %v, grading says %v",
				faults[i].String(c), res.Detected[i], fres.Detected[i])
		}
	}
}

func TestPodemDirectOnAllC17Faults(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	gen := newPodem(c, 1000)
	rng := rand.New(rand.NewSource(3))
	sim, _ := fsim.New(c)
	for _, f := range faults {
		st := gen.search(f)
		if st != statusDetected {
			t.Errorf("PODEM failed on testable fault %s (status %d)", f.String(c), st)
			continue
		}
		pattern := fillCube(gen.cube(nil), rng)
		res, err := sim.Run([]fault.Fault{f}, []bitvec.Vector{pattern}, fsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected[0] {
			t.Errorf("PODEM pattern %s does not detect %s", pattern, f.String(c))
		}
	}
}

func TestRedundantFaultProvenUntestable(t *testing.T) {
	// z = OR(a, NOT(a)): z s-a-1 is redundant.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(q)
n = NOT(a)
z = OR(a, n)
q = AND(z, b)
`
	c := mustParse(t, "red", src)
	gz, _ := c.GateByName("z")
	faults := []fault.Fault{{Gate: gz.ID, Pin: fault.OutputPin, StuckAt1: true}}
	gen := newPodem(c, 1000)
	if st := gen.search(faults[0]); st != statusUntestable {
		t.Errorf("redundant fault classified %d, want untestable", st)
	}

	res, err := Run(c, faults, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Untestable) != 1 {
		t.Errorf("Run did not classify the redundant fault: %+v", res.Stats)
	}
	if res.TestableCoverage() != 1.0 {
		t.Errorf("testable coverage = %v, want 1.0", res.TestableCoverage())
	}
}

func TestXorChainNeedsDeterministicPhase(t *testing.T) {
	// A 16-input AND tree is strongly random-resistant: the only test for
	// "output s-a-0" needs all 16 inputs at 1 (probability 2^-16).
	src := `
INPUT(i0)` + "\n"
	for i := 1; i < 16; i++ {
		src += "INPUT(i" + itoa(i) + ")\n"
	}
	src += "OUTPUT(z)\n"
	// Balanced AND tree.
	src += `
a0 = AND(i0, i1)
a1 = AND(i2, i3)
a2 = AND(i4, i5)
a3 = AND(i6, i7)
a4 = AND(i8, i9)
a5 = AND(i10, i11)
a6 = AND(i12, i13)
a7 = AND(i14, i15)
b0 = AND(a0, a1)
b1 = AND(a2, a3)
b2 = AND(a4, a5)
b3 = AND(a6, a7)
c0 = AND(b0, b1)
c1 = AND(b2, b3)
z = AND(c0, c1)
`
	c := mustParse(t, "andtree", src)
	faults, _, _ := fault.List(c)
	res, err := Run(c, faults, Options{Seed: 1, MaxRandomPatterns: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("AND tree coverage = %v, want 1.0", res.Coverage())
	}
	if res.Stats.PodemDetected == 0 {
		t.Error("expected the deterministic phase to contribute")
	}
}

func TestCompactionShrinksOrKeeps(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	raw, err := Run(c, faults, Options{Seed: 5, SkipCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Run(c, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.Patterns) > len(raw.Patterns) {
		t.Errorf("compaction grew the test set: %d -> %d",
			len(raw.Patterns), len(compacted.Patterns))
	}
	if compacted.Coverage() != raw.Coverage() {
		t.Errorf("compaction changed coverage: %v vs %v",
			raw.Coverage(), compacted.Coverage())
	}
}

func TestSequentialRejected(t *testing.T) {
	c := mustParse(t, "seq", `
INPUT(a)
OUTPUT(z)
z = AND(a, q)
q = DFF(z)
`)
	if _, err := Run(c, nil, Options{}); err == nil {
		t.Fatal("expected error for sequential circuit")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	r1, err := Run(c, faults, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, faults, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Patterns) != len(r2.Patterns) {
		t.Fatalf("same seed produced different test set sizes: %d vs %d",
			len(r1.Patterns), len(r2.Patterns))
	}
	for i := range r1.Patterns {
		if !r1.Patterns[i].Equal(r2.Patterns[i]) {
			t.Fatalf("same seed produced different pattern %d", i)
		}
	}
}

// cancelOnNthErr is a cancellable context that cancels itself on the n-th
// Err call, so a test can stop a run at a chosen check point.
type cancelOnNthErr struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func (c *cancelOnNthErr) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// A context cancelled while PODEM searches run on several workers makes
// Run return the context's error and no result, with every worker gone.
func TestCancelDuringParallelPodem(t *testing.T) {
	c, err := bench.ScanView("c880")
	if err != nil {
		t.Fatal(err)
	}
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One 64-pattern random block (one check in fsim) leaves hundreds of
	// PODEM targets, so the 20th check is a per-target check inside the
	// first window of searches.
	ctx := &cancelOnNthErr{Context: base, cancel: cancel, n: 20}
	res, err := Run(c, faults, Options{Seed: 1, MaxRandomPatterns: 64, Parallelism: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled Run returned a result with %d patterns", len(res.Patterns))
	}
	if n := ctx.calls.Load(); n < 20 {
		t.Fatalf("only %d context checks: the run ended before the cancellation point", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEval3TruthTables(t *testing.T) {
	// Spot-check the X-propagation rules.
	cases := []struct {
		t    netlist.GateType
		in   []byte
		want byte
	}{
		{netlist.And, []byte{v0, vX}, v0}, // controlling beats X
		{netlist.And, []byte{v1, vX}, vX},
		{netlist.Nand, []byte{v0, vX}, v1},
		{netlist.Or, []byte{v1, vX}, v1},
		{netlist.Or, []byte{v0, vX}, vX},
		{netlist.Nor, []byte{v1, vX}, v0},
		{netlist.Xor, []byte{v1, vX}, vX}, // XOR never resolves X
		{netlist.Xor, []byte{v1, v1}, v0},
		{netlist.Xnor, []byte{v1, v0}, v0},
		{netlist.Not, []byte{vX}, vX},
		{netlist.Not, []byte{v0}, v1},
		{netlist.Buf, []byte{v1}, v1},
	}
	for _, cse := range cases {
		if got := eval3(cse.t, cse.in); got != cse.want {
			t.Errorf("eval3(%v, %v) = %d, want %d", cse.t, cse.in, got, cse.want)
		}
	}
}

// Randomized: ATPG must reach full testable coverage on random circuits and
// its claimed detections must match independent grading.
func TestRandomCircuitsFullTestableCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		c := randomCircuit(t, rng, 6, 40)
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, faults, Options{Seed: int64(trial), BacktrackLimit: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Aborted) > 0 {
			t.Errorf("trial %d: %d aborts on a small circuit", trial, len(res.Aborted))
		}
		if res.TestableCoverage() != 1.0 {
			t.Errorf("trial %d: testable coverage %v", trial, res.TestableCoverage())
		}
		sim, _ := fsim.New(c)
		fres, err := sim.Run(faults, res.Patterns, fsim.Options{DropDetected: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			if fres.Detected[i] != res.Detected[i] {
				t.Errorf("trial %d fault %s: claim %v, grading %v",
					trial, faults[i].String(c), res.Detected[i], fres.Detected[i])
			}
		}
	}
}

func randomCircuit(t testing.TB, rng *rand.Rand, nIn, nGates int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("rand")
	var signals []string
	for i := 0; i < nIn; i++ {
		name := "pi" + itoa(i)
		if _, err := c.AddInput(name); err != nil {
			t.Fatal(err)
		}
		signals = append(signals, name)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not}
	for i := 0; i < nGates; i++ {
		tp := types[rng.Intn(len(types))]
		n := 2
		if tp == netlist.Not {
			n = 1
		}
		fanin := make([]string, n)
		for j := range fanin {
			fanin[j] = signals[len(signals)-1-rng.Intn(min(len(signals), 10))]
		}
		name := "g" + itoa(i)
		if _, err := c.AddGate(name, tp, fanin...); err != nil {
			t.Fatal(err)
		}
		signals = append(signals, name)
	}
	used := map[string]bool{}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			used[c.Gates[f].Name] = true
		}
	}
	var dangling []string
	for _, g := range c.Gates {
		if !used[g.Name] {
			dangling = append(dangling, g.Name)
		}
	}
	for len(dangling) > 2 {
		name := "t" + itoa(len(c.Gates))
		if _, err := c.AddGate(name, netlist.Or, dangling[0], dangling[1]); err != nil {
			t.Fatal(err)
		}
		dangling = append(dangling[2:], name)
	}
	for _, d := range dangling {
		if err := c.MarkOutput(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

func BenchmarkATPGC17(b *testing.B) {
	c := mustParse(b, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, faults, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
