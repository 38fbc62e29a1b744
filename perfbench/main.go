// Command perfbench is the repository benchmark: one command that runs
// a named workload, checks every simulated result against pinned
// digests, and prints every end-to-end metric (or, traced, every
// per-layer metric) with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds this package and wishsimd first:
//
//	bash perfbench/run.sh --workload sim-membound --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --regen    # re-pin the result digests (a model change)
//
// See README.md for the workloads, the metrics, and the layer → metric
// table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metrics maps metric names to values.
type metrics map[string]float64

// endToEnd and perLayer name every metric with its unit; BENCHMARK.json
// lists the same names and units (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_uops_per_s", "uops/s", "higher"},
	{"req_per_s", "1/s", "higher"},
	{"warm_run_p50_ms", "ms", "lower"},
	{"warm_run_p99_ms", "ms", "lower"},
	{"fresh_run_p50_ms", "ms", "lower"},
	{"campaign_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"cpu.run_ms", "ms", "lower"},
	{"cpu.ns_per_uop", "ns/uop", "lower"},
	{"cpu.ns_per_cycle", "ns/cycle", "lower"},
	{"cpu.core_ms", "ms", "lower"},
	{"cpu.skip_speedup", "ratio", "higher"},
	{"cpu.new_ms", "ms", "lower"},
	{"cpu.new_alloc_mb", "MB", "lower"},
	{"workload.meminit_ms", "ms", "lower"},
	{"artifact.get_ms", "ms", "lower"},
	{"compiler.compile_ms", "ms", "lower"},
	{"artifact.count", "count", "lower"},
	{"emu.run_ms", "ms", "lower"},
	{"emu.ns_per_uop", "ns/uop", "lower"},
	{"bpred.replay_ms", "ms", "lower"},
	{"bpred.replay_accuracy", "ratio", "higher"},
	{"conf.replay_ms", "ms", "lower"},
	{"conf.high_conf_share", "ratio", "higher"},
	{"cache.replay_ms", "ms", "lower"},
	{"cpu.cycles", "count", "lower"},
	{"cpu.retired_uops", "count", "lower"},
	{"cpu.useful_fetch_ratio", "ratio", "higher"},
	{"cpu.flushes", "count", "lower"},
	{"cpu.window_full_share", "ratio", "lower"},
	{"cpu.flush_recovery_share", "ratio", "lower"},
	{"bpred.mispred_per_1k", "per_1k_uops", "lower"},
	{"cache.l1d_miss_ratio", "ratio", "lower"},
	{"cache.l2_miss_ratio", "ratio", "lower"},
	{"lab.memo_hit_us", "us", "lower"},
	{"lab.store_get_us", "us", "lower"},
	{"api.codec_us", "us", "lower"},
	{"lab.store_put_us", "us", "lower"},
	{"journal.append_us", "us", "lower"},
	{"serve.fresh_sim_ms", "ms", "lower"},
	{"serve.sim_share", "ratio", "lower"},
	{"serve.direct_warm_p50_ms", "ms", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.max_worker_share", "ratio", "lower"},
	{"cluster.reroutes", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"lab.hit_ratio", "ratio", "higher"},
	{"lab.disk_hits", "count", "higher"},
	{"lab.mem_hits", "count", "higher"},
	{"lab.fresh", "count", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"journal.bytes", "bytes", "lower"},
	{"journal.frames", "count", "lower"},
	{"serve.worker_rss_mb", "MB", "lower"},
	{"cluster.coordinator_rss_mb", "MB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

type metricDef struct{ name, unit, better string }

// workloads are the workloads the program runs. BENCHMARK.json gates
// the two sim workloads; serve-cluster is run by hand and inside every
// traced run (README.md says why).
var workloads = []string{"sim-membound", "sim-mixed", "serve-cluster"}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 40, "measured window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = flag.String("dir", "perfbench", "the benchmark's source directory (pinned digests)")
		bin     = flag.String("bin", "", "directory holding the wishsimd binary (serve-cluster)")
		work    = flag.String("work", "", "scratch directory for stores, journals, logs and spans")
		regen   = flag.Bool("regen", false, "re-pin the result digests of every spec set and exit")
		flip    = flag.Bool("inject-flip", false, "flip one byte of the first result checked (self-test: the run must fail)")
	)
	flag.Parse()
	log := os.Stderr

	if *regen {
		if err := regenerate(*dir, log); err != nil {
			fmt.Fprintf(log, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *work == "" {
		fmt.Fprintln(log, "perfbench: -work is required")
		return 2
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sig
		stopAll()
		os.RemoveAll(runDir)
		os.Exit(1)
	}()

	chk := &Checker{FlipOne: *flip}
	var tr *Tracer
	if *trace == 1 {
		tr = NewTracer()
	}
	m, notes, err := runWorkload(*wl, *seed, *seconds, tr, *dir, *bin, runDir, chk, log)
	if err != nil {
		fmt.Fprintf(log, "perfbench: %v\n", err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(*work, "spans", fmt.Sprintf("%s-seed%d.jsonl", *wl, *seed))
		if err := tr.WriteFile(path); err != nil {
			fmt.Fprintf(log, "perfbench: spans: %v\n", err)
			return 1
		}
		notes = append(notes, fmt.Sprintf("%d spans written to %s", len(tr.Spans()), path))
	}
	defs := endToEnd
	if tr != nil {
		defs = perLayer
	}
	out, err := report(os.Stdout, *wl, *seed, defs, m, notes, chk)
	if err != nil {
		fmt.Fprintf(log, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(out)
	if chk.Failed() > 0 {
		for _, e := range chk.Errors() {
			fmt.Fprintf(log, "perfbench: FAILED: %s\n", e)
		}
		return 1
	}
	return 0
}

// A run builds its spec set and loads the pins at least
// minSetups times and for at least setupBudget; the median is the
// spec-set part of setup_s. Repeating for a fixed time averages over
// the host's speed swings, which last seconds.
const (
	minSetups   = 5
	setupBudget = 500 * time.Millisecond
	// clusterSetups is how many times serve-cluster builds its whole
	// cluster; the median is the cluster part of its setup_s.
	clusterSetups = 3
)

func runWorkload(wl string, seed int64, seconds float64, tr *Tracer, dir, bin, runDir string,
	chk *Checker, log io.Writer) (metrics, []string, error) {
	rng := rand.New(rand.NewSource(seed))
	var set specSet
	var pins map[string]string
	var setupS []float64
	for begin := time.Now(); len(setupS) < minSetups || time.Since(begin) < setupBudget; {
		t := time.Now()
		var err error
		if set, err = setFor(wl); err != nil {
			return nil, nil, err
		}
		if pins, err = loadPins(digestPath(dir, wl)); err != nil {
			return nil, nil, err
		}
		if err = checkPinned(set, pins); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	fmt.Fprintf(log, "perfbench: %s: %d specs at scale %g, seed %d\n", wl, len(set.Specs), set.Scale, seed)

	switch wl {
	case "serve-cluster":
		if bin == "" {
			return nil, nil, errors.New("serve-cluster needs -bin (the directory holding wishsimd)")
		}
		setups := clusterSetups
		if tr != nil {
			setups = 1
		}
		m, notes, err := runCluster(set, pins, filepath.Join(bin, "wishsimd"), runDir, seconds, seed, setups, true, tr, chk, log)
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			return m, notes, nil
		}
		// Building the spec set and its pins precedes the cluster set-up.
		m["setup_s"] += median(setupS)
		notes = append(notes, fmt.Sprintf("setup_s: plus the median of %d set-ups of the spec set and its pins, %.4fs", len(setupS), median(setupS)))
		return m, notes, nil
	default:
		if tr != nil {
			m, notes, err := traceSim(set, pins, rng, tr, chk, log)
			if err != nil {
				return nil, nil, err
			}
			sm, snotes, err := traceServing(dir, bin, runDir, seconds, seed, tr, chk, log)
			if err != nil {
				return nil, nil, err
			}
			for k, v := range sm {
				if servingLayer(k) {
					m[k] = v
				}
			}
			for _, n := range snotes {
				notes = append(notes, "serving layers: "+n)
			}
			return m, notes, nil
		}
		m, notes := runSim(set, pins, seconds, rng, chk, log)
		m["setup_s"] = median(setupS)
		notes = append(notes, fmt.Sprintf("setup_s: median of %d set-ups of the spec set and its pins", len(setupS)))
		return m, notes, nil
	}
}

// traceServing runs the serve-cluster closed loop traced, so the traced
// run of every gated workload also measures the serving layers (the
// serve-cluster workload itself is not gated; see README.md).
func traceServing(dir, bin, runDir string, seconds float64, seed int64, tr *Tracer, chk *Checker, log io.Writer) (metrics, []string, error) {
	if bin == "" {
		return nil, nil, errors.New("the serving layers need -bin (the directory holding wishsimd)")
	}
	set, err := setFor("serve-cluster")
	if err != nil {
		return nil, nil, err
	}
	pins, err := loadPins(digestPath(dir, set.Name))
	if err != nil {
		return nil, nil, err
	}
	if err := checkPinned(set, pins); err != nil {
		return nil, nil, err
	}
	return runCluster(set, pins, filepath.Join(bin, "wishsimd"), runDir, seconds, seed, 1, false, tr, chk, log)
}

// servingLayer reports whether a per-layer metric belongs to the
// serving modules rather than the simulator.
func servingLayer(name string) bool {
	for _, p := range []string{"lab.", "api.", "journal.", "store.", "serve.", "cluster."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable table and returns the final JSON
// line. failed_frac is printed here; it is 0 on correct code, so it is
// carried by the JSON's attempted and failed counts, not as a metric.
func report(w io.Writer, wl string, seed int64, defs []metricDef, m metrics, notes []string, chk *Checker) (string, error) {
	fmt.Fprintf(w, "perfbench %s seed %d\n", wl, seed)
	res := jsonResult{Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = chk.Attempted(), chk.Failed()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "  %-28s %16.6g (%d failed of %d attempted)\n", "failed_frac", chk.FailedFrac(), res.Failed, res.Attempted)
	for _, n := range notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// regenerate re-pins the digests of every spec set.
func regenerate(dir string, log io.Writer) error {
	for _, wl := range workloads {
		set, err := setFor(wl)
		if err != nil {
			return err
		}
		results, err := simulateAll(set.Specs)
		if err != nil {
			return err
		}
		digests := make(map[string]string, len(results))
		for h, r := range results {
			digests[h] = resultDigest(r)
		}
		if err := writePins(digestPath(dir, wl), set, digests); err != nil {
			return err
		}
		fmt.Fprintf(log, "perfbench: pinned %d %s digests\n", len(digests), wl)
	}
	return nil
}
