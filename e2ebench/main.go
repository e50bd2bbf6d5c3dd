// Command e2ebench is the end-to-end benchmark of the collector: how long
// distributed garbage lives before it is reclaimed, what a collection
// round costs, and how fast a mutator runs while collection is on, on
// three seeded workloads (heap_churn, cycle_storm, mixed_async).
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 e2ebench/run.py --workload cycle_storm --seed 1 --seconds 10 --trace 0
//
// --trace 0 runs one untraced pass and prints the end-to-end metrics.
// --trace 1 runs an untraced and a traced pass of half the length each and
// prints the per-layer metrics of the traced one, including the tracing
// overhead between the two. The last line of standard output is one JSON
// object; the lines before it are a human-readable report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload: heap_churn, cycle_storm or mixed_async")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: add a traced pass and print per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build/spans", "where the traced pass writes its spans")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	out, err := run(w, *seed, *seconds, *trace == 1, *spanDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(w *workload, seed int64, seconds float64, traced bool, spanDir string) (*result, error) {
	mode := "closed loop, stepped"
	if w.async {
		mode = fmt.Sprintf("open loop, %.0f steps/s offered", w.stepsPerSec)
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%g trace=%v (%s)\n", w.name, seed, seconds, traced, mode)
	fmt.Printf("# why: %s\n", w.why)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	passSeconds := seconds
	if traced {
		passSeconds = seconds / 2
	}
	base, err := runPass(w, seed, passSeconds, false)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(base)
	printPass("untraced", base)
	fmt.Println("# end-to-end metrics (untraced pass)")
	printMetrics(e2e)
	passes := []*passResult{base}

	out := &result{Metrics: map[string]jsonMetric{}}
	shown := e2e
	if traced {
		tr, err := runPass(w, seed, passSeconds, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tr)
		layers := perLayer(tr, base)
		printPass("traced", tr)
		fmt.Println("# per-layer metrics (traced pass)")
		printMetrics(layers)
		printSelfTimes(tr)
		if err := writeSpans(spanDir, w.name, seed, tr); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
		}
		shown = layers
	}
	out.Correct = true
	for _, p := range passes {
		out.Attempted += p.steps
		out.Failed += p.failed
		if !p.gate.ok() || p.failed > 0 {
			out.Correct = false
		}
		for _, v := range p.gate.violations {
			fmt.Fprintf(os.Stderr, "e2ebench: invariant violation: %s\n", v)
		}
	}
	fmt.Printf("# correctness gate: correct=%v\n", out.Correct)
	for _, p := range passes {
		fmt.Printf("#   unsafe_sweeps=%d garbage_left=%d live_mismatch=%d invariant_violations=%d failed_ops=%d/%d drain_rounds=%d\n",
			p.gate.unsafeSweeps, p.gate.garbageLeft, p.gate.liveMismatch, len(p.gate.violations), p.failed, p.steps, p.drainRound)
	}
	for _, m := range shown {
		if m.inJSON {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return out, nil
}

// printPass prints a pass's sample counts.
func printPass(name string, p *passResult) {
	fmt.Printf("# %s pass: steady phase %.3f s, %d rounds, %d steps, %d reclaim samples; drain %d rounds\n",
		name, p.steadyWall.Seconds(), p.rounds, p.steps, len(p.reclaimRounds), p.drainRound)
}

func writeSpans(dir, workload string, seed int64, p *passResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, r := range []*recorder{p.rec, p.crec} {
		if r == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.jsonl", workload, seed, []string{"generator", "collector"}[i])))
		if err != nil {
			return err
		}
		if err := r.writeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
