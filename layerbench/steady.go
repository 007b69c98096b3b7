package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the steadiness report reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// steady runs one workload several times, each run in its own process with
// its own seed, and prints each metric's median, quartiles and spread (the
// quartile distance as a share of the median) against the metric's bound.
// A spread under a third of its bound is reported steady.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 5, "number of runs; run i uses seed+i")
	seed := fs.Int64("seed", 1, "seed of the first run")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	var sp spec
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench steady:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench steady:", err)
		return 2
	}

	values := map[string][]float64{}
	fmt.Printf("workload %s, %d runs of %ds\n", *name, *runs, sp.RunSeconds)
	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	for i := range *runs {
		s := *seed + int64(i)
		cmd := exec.Command(exe, "--workload", *name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		var info struct {
			Info map[string]any `json:"info"`
		}
		if err == nil && len(lines) >= 2 {
			err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-2]), &info)
			}
		}
		if err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "layerbench steady: run with seed %d failed: %v\n", s, err)
			return 1
		}
		fmt.Printf("seed %d: samples %v, distinct requests %v, tail percentile %v, passes %v, set-ups %v\n",
			s, info.Info["samples"], info.Info["distinct_requests"], info.Info["tail_percentile"], info.Info["passes"], info.Info["setup_runs"])
		var names []string
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Println()
	}

	fmt.Printf("%-28s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	row := func(name, unit string, bound float64) {
		xs := values[name]
		if len(xs) < 2 {
			fmt.Printf("%-28s missing\n", name)
			return
		}
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict := "steady"
		if spread > bound/3 {
			verdict = "NOISY"
		}
		fmt.Printf("%-28s %12.4g %12.4g %12.4g %7.1f%% %7.2f  %s %s\n", name, q2, q1, q3, 100*spread, bound, unit, verdict)
	}
	for _, m := range sp.EndToEnd {
		row(m.Name, m.Unit, m.Bound)
	}
	return 0
}

// commit is the checked-out revision, when the tree is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
