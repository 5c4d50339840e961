// Command perfbench is the repository benchmark: it drives three
// deployment shapes of FSMonitor with seeded file-system churn, checks
// every delivered event against a reference derived from the op log, and
// prints one JSON result line with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run plus the layer ladder).
//
//	perfbench --workload local-churn --seed 1 --seconds 10 --trace 0
//
// Human-readable detail (sample counts, phase timings) goes to stderr; the
// last line of stdout is the result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one deployment shape with its traffic.
type workload struct {
	name  string
	local bool
	nodes int // clustered aggregation nodes (0 = classic single aggregator)
	top   int // top-level directories
	sub   int // leaf directories per top-level directory
	// seedDrainEPS is the shape's catch-up capacity on the seed code: the
	// median drain_eps over ten seeds (perfbench/trajectory.jsonl). The
	// open-loop rates are fixed shares of it, so each shape runs its open
	// loop at the same load relative to what it can take.
	seedDrainEPS float64
	// setupTrials is how many times set-up is measured (median reported).
	setupTrials int
}

// The open loop's low and high rates as shares of seedDrainEPS. The low
// rate leaves the pipeline mostly idle; the high rate loads it with the
// generator competing for the cores, yet leaves room to absorb the
// host's CPU steal without a standing queue (BENCHMARK.md).
const (
	lowShare  = 0.05
	highShare = 0.10
)

// lowEPS and highEPS are the open-loop rates in events/s, rounded to
// 1000 so that they read as the fixed figures BENCHMARK.md lists.
func (w workload) lowEPS() float64  { return roundK(lowShare * w.seedDrainEPS) }
func (w workload) highEPS() float64 { return roundK(highShare * w.seedDrainEPS) }

func roundK(x float64) float64 { return math.Round(x/1000) * 1000 }

// drainOpsPerSec sizes the catch-up phase: ops per --seconds second.
const drainOpsPerSec = 10000

var workloads = []workload{
	{
		name:         "local-churn",
		local:        true,
		top:          8,
		sub:          8,
		seedDrainEPS: 344871,
		setupTrials:  25,
	},
	{
		name:         "lustre-agg1",
		top:          16,
		sub:          16,
		seedDrainEPS: 726465,
		setupTrials:  25,
	},
	{
		name:         "lustre-cluster2",
		nodes:        2,
		top:          16,
		sub:          16,
		seedDrainEPS: 341303,
		setupTrials:  5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale multiplies every phase's op count (tests run tiny scales).
	scale float64
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
	// tmpDir holds the runs' scratch directories ("" = .bench_build/tmp).
	tmpDir string
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "traffic seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1")
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		scale:    1,
		traceDir: ".bench_build/traces",
	}
	start := time.Now()
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d finished in %.1fs correct=%v failed=%d/%d\n",
		w.name, cfg.seed, time.Since(start).Seconds(), res.Correct, res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload: the untraced end-to-end run, or, with
// cfg.trace, an untraced reference run, the traced run and the ladder.
func run(w workload, cfg config) (result, error) {
	if !cfg.trace {
		r, err := runShape(w, cfg, nil)
		if err != nil {
			return result{}, err
		}
		return r.endToEnd(), nil
	}
	base, err := runShape(w, cfg, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := runShape(w, cfg, tr)
	if err != nil {
		return result{}, err
	}
	lad, err := runLadder(w, cfg)
	if err != nil {
		return result{}, err
	}
	res := traced.perLayer(base, lad, tr)
	if cfg.traceDir != "" {
		if err := tr.write(cfg.traceDir, w.name, cfg.seed, traced); err != nil {
			return result{}, err
		}
	}
	return res, nil
}
