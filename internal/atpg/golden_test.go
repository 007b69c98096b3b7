package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
)

// fingerprint hashes everything Run decides: the compacted patterns, the
// detection record, the untestable and aborted lists, and the Stats
// counters that predate the PODEM effort counters.
func fingerprint(res *Result) string {
	h := sha256.New()
	for _, p := range res.Patterns {
		fmt.Fprintf(h, "P%s\n", p.Hex())
	}
	h.Write([]byte("D"))
	for _, d := range res.Detected {
		if d {
			h.Write([]byte{'1'})
		} else {
			h.Write([]byte{'0'})
		}
	}
	fmt.Fprintf(h, "\nU%v\nA%v\n", res.Untestable, res.Aborted)
	st := res.Stats
	fmt.Fprintf(h, "S%d %d %d %d %d %d %d\n", st.RandomPatterns, st.RandomDetected, st.PodemDetected,
		st.PodemUntestable, st.PodemAborted, st.PatternsBeforeCompaction, st.GateEvals)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenATPG pins Run's output. The fingerprints were recorded from the
// serial PODEM phase, so they hold the parallel searches and the in-order
// X-fill to the serial test set bit for bit. The effort counters are gated
// exactly, as every deterministic work counter is.
var goldenATPG = []struct {
	circuit                             string
	seed                                int64
	fingerprint                         string
	decisions, backtracks, implications int64
}{
	{"c432", 1, "5aefd7eb823367d5e716b3027769e8e3cce07d717bb4f996862b70fb54da100a", 5477, 4698, 232933},
	{"c432", 2, "ab827495a89e9e894787b5b3f3b8bb43141454ec52b553a7d2a0ce351e428391", 5504, 4699, 233398},
	{"s420", 1, "5bf5bf61a9baa42f3f8539b5368b8da9ab407d8956b56645c46fd3bba88d6fda", 8272, 7733, 367218},
	{"s420", 2, "6a62d1319d031c001205c11e0005d89ce792db4df36a642bd4b1c143a2fd8a20", 8466, 7750, 371854},
	{"s820", 1, "060fca3032f0335cae17fe8a4fe19dee65812ff7c5ec6c2855f692ecb4eeb779", 3847, 3923, 410337},
	{"s820", 2, "1f90a663d2c187cb982db902ca93f6bbc81333c1752942d5a8c75e3edce8d62c", 3894, 3936, 412816},
	{"c880", 1, "cff5cf458c3cdf302bcd35bf408c2050e376e9edca3c044963059871bae8313d", 19724, 18398, 1345270},
	{"c880", 2, "a3337651a88d6f2db129f92d89361ff3b1603a50426ced1969d5d8e37f8e73e0", 20057, 18627, 1360814},
}

// TestGoldenFingerprints runs every golden case at several PODEM worker
// counts (0 is one per processor, so `go test -cpu 1,2,4` varies it too)
// and requires the pinned fingerprint and effort counters at each.
func TestGoldenFingerprints(t *testing.T) {
	for _, g := range goldenATPG {
		t.Run(fmt.Sprintf("%s/seed%d", g.circuit, g.seed), func(t *testing.T) {
			c, err := bench.ScanView(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			faults, _, err := fault.List(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []int{1, 2, 3, 0} {
				res, err := Run(c, faults, Options{Seed: g.seed, Parallelism: j})
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(res); got != g.fingerprint {
					t.Errorf("j=%d: fingerprint %s, want %s", j, got, g.fingerprint)
				}
				st := res.Stats
				if st.PodemDecisions != g.decisions || st.PodemBacktracks != g.backtracks || st.PodemImplications != g.implications {
					t.Errorf("j=%d: PODEM effort %d/%d/%d (decisions/backtracks/implications), want %d/%d/%d",
						j, st.PodemDecisions, st.PodemBacktracks, st.PodemImplications,
						g.decisions, g.backtracks, g.implications)
				}
			}
		})
	}
}
