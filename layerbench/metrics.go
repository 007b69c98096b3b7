package main

import (
	"sort"
	"time"

	"repro/internal/engine"
)

// layerTotals gathers one span name's calls over a traced run.
type layerTotals struct {
	self, dur []float64 // per call, ms
	selfSum   float64   // ms, all passes
	self0     float64   // ms, first pass only
	counts    map[string]int64
}

// layerMetrics derives the per-layer metrics of a traced run. Busy times
// are self times, reported as the median per call and as the total per
// pass (".pass"). Counts are summed over the first pass, which a seed fixes
// exactly, and rates divide them by that pass's busy time. Spans of
// request 0 are the set-up's store writes, reported per fill.
func layerMetrics(spans []span, passes float64, firstPass int, stats engine.Stats, info map[string]any) map[string]metric {
	self := selfTimes(spans)
	layers := map[string]*layerTotals{}
	get := func(name string) *layerTotals {
		if layers[name] == nil {
			layers[name] = &layerTotals{counts: map[string]int64{}}
		}
		return layers[name]
	}
	reqDur := map[int]time.Duration{}
	engineDur := map[int]time.Duration{}
	for i, s := range spans {
		l := get(s.Name)
		ms := float64(self[i]) / 1e6
		l.self = append(l.self, ms)
		l.dur = append(l.dur, float64(s.dur())/1e6)
		l.selfSum += ms
		if s.Request <= firstPass {
			l.self0 += ms
			for k, v := range s.Counts {
				l.counts[k] += v
			}
		}
		switch s.Name {
		case "request":
			reqDur[s.Request] += s.dur()
		case "engine.solve":
			engineDur[s.Request] += s.dur()
		}
	}

	m := map[string]metric{}
	busy := func(metricName, spanName string) {
		l := get(spanName)
		m[metricName] = metric{medianOr0(l.self), "ms"}
		m[metricName+".pass"] = metric{l.selfSum / passes, "ms"}
	}
	count := func(metricName, spanName, key string) {
		unit := "count"
		if key == "bytes" {
			unit = "B"
		}
		m[metricName] = metric{float64(get(spanName).counts[key]), unit}
	}
	ratio := func(metricName, unit string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[metricName] = metric{v, unit}
	}

	busy("bench.busy_ms", "bench")
	busy("fault.busy_ms", "fault")
	count("fault.faults", "fault", "faults")

	busy("atpg.busy_ms", "atpg")
	a := get("atpg").counts
	count("atpg.gate_evals", "atpg", "gate_evals")
	count("atpg.podem_targets", "atpg", "podem_targets")
	count("atpg.random_patterns", "atpg", "random_patterns")
	count("atpg.patterns", "atpg", "patterns")
	ratio("atpg.aborted_share", "share", float64(a["aborted"]), float64(a["podem_targets"]))
	ratio("atpg.compaction_ratio", "share", float64(a["patterns"]), float64(a["patterns_before_compaction"]))

	busy("dmatrix.busy_ms", "dmatrix")
	d := get("dmatrix")
	count("dmatrix.gate_evals", "dmatrix", "gate_evals")
	count("dmatrix.triplet_sims", "dmatrix", "triplet_sims")
	count("dmatrix.rows", "dmatrix", "rows")
	ratio("dmatrix.gate_evals_per_us", "1/us", float64(d.counts["gate_evals"]), d.self0*1e3)

	busy("setcover.build_ms", "setcover.build")
	busy("setcover.reduce_ms", "setcover.reduce")
	count("setcover.reduce_iterations", "setcover.reduce", "iterations")
	count("setcover.residual_cols", "setcover.reduce", "residual_cols")
	busy("setcover.exact_ms", "setcover.exact")
	x := get("setcover.exact")
	count("setcover.nodes", "setcover.exact", "nodes")
	ratio("setcover.nodes_per_ms", "1/ms", float64(x.counts["nodes"]), x.self0)
	ratio("setcover.root_gap", "share", float64(x.counts["cost"]-x.counts["root_lb"]), float64(x.counts["cost"]))

	core := get("core")
	m["core.covering_ms"] = metric{medianOr0(core.dur), "ms"}
	m["core.covering_ms.pass"] = metric{sum(core.dur) / passes, "ms"}
	busy("core.assemble_ms", "core")

	var overhead []float64
	for id, ed := range engineDur {
		overhead = append(overhead, float64(ed-reqDur[id])/1e6)
	}
	m["engine.overhead_ms"] = metric{medianOr0(overhead), "ms"}
	m["engine.overhead_ms.pass"] = metric{sum(overhead) / passes, "ms"}
	ratio("engine.prepare_hit_share", "share", float64(stats.PrepareHits),
		float64(stats.PrepareHits+stats.PrepareBuilds+stats.FlowStoreLoads))
	ratio("engine.matrix_hit_share", "share", float64(stats.MatrixHits),
		float64(stats.MatrixHits+stats.MatrixBuilds+stats.MatrixStoreLoads))
	ratio("engine.store_load_share", "share", float64(stats.FlowStoreLoads+stats.MatrixStoreLoads),
		float64(stats.PrepareHits+stats.PrepareBuilds+stats.FlowStoreLoads+stats.MatrixHits+stats.MatrixBuilds+stats.MatrixStoreLoads))

	busy("store.read_ms", "store.read")
	count("store.read_bytes", "store.read", "bytes")
	busy("store.decode_flow_ms", "store.decode_flow")
	busy("store.decode_matrix_ms", "store.decode_matrix")
	// The set-up fills the store once: its totals are per fill.
	enc, save := get("store.encode"), get("store.save")
	m["store.encode_ms"] = metric{medianOr0(enc.self), "ms"}
	m["store.encode_ms.pass"] = metric{enc.selfSum, "ms"}
	m["store.write_ms"] = metric{medianOr0(save.self), "ms"}
	m["store.write_ms.pass"] = metric{save.selfSum, "ms"}
	count("store.write_bytes", "store.encode", "bytes")

	var reqs []float64
	for _, v := range reqDur {
		reqs = append(reqs, float64(v)/1e6)
	}
	m["trace.latency_p50_ms"] = metric{medianOr0(reqs), "ms"}
	m["trace.pass_ms"] = metric{sum(reqs) / passes, "ms"}
	ratio("trace.solves_per_s", "1/s", float64(len(reqs)), sum(reqs)/1e3)

	// Which layer has the largest self time, as a share of the traced
	// request time: the check that each workload exercises what it is for.
	groups := map[string]string{"store.decode_flow": "store.decode", "store.decode_matrix": "store.decode"}
	shares := map[string]float64{}
	for i, s := range spans {
		if s.Request == 0 || (s.Side && s.Parent < 0) {
			continue
		}
		g := s.Name
		if v, ok := groups[g]; ok {
			g = v
		}
		shares[g] += float64(self[i]) / 1e6 / sum(reqs)
	}
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	if len(names) > 0 {
		info["top_layer"] = names[0]
	}
	info["self_time_share"] = shares
	return m
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
