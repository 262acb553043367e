// Command perfbench is the repository's benchmark: it drives the tuning
// service (an in-process tuned.Server, through ServeHTTP) and the network
// tuner (autotune.TuneNetwork) on three workloads, checks every answer,
// and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured with tracing off; with --trace 1 they are the per-layer ones,
// from a run that measures the timed phase once untraced and once traced
// and also reports the difference (the tracing overhead). The lines above
// it are the same metrics for people, with their sample counts.
// perfbench/README.md describes every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"serve-hit":   runServeHit,
	"serve-mixed": runServeMixed,
	"sweep-cold":  runSweepCold,
}

// runConfig is what every workload runner gets from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spans   string // file the traced run writes its spans to
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve-hit, serve-mixed or sweep-cold")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-hit|serve-mixed|sweep-cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		spans: fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *workload, *seed)}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// entry is one reported metric with the sample count behind it.
type entry struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the value (0 = a single reading)
	note  string // caveat printed next to the value
	// ungated marks an end-to-end figure that is printed but left out of
	// the end-to-end JSON (and so carries no bound), because the shared
	// machines the benchmark runs on do not hold it steady from run to run;
	// the traced run's JSON reports it.
	ungated bool
}

// report collects a run's outcome: request accounting, the problems the
// correctness gate found, and the metrics.
type report struct {
	attempted int
	failed    int
	problems  []string
	e2e       []entry
	layer     []entry
}

// fail books one failed attempt with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ungatedEntries returns the entries marked ungated.
func ungatedEntries(es []entry) []entry {
	var out []entry
	for _, e := range es {
		if e.ungated {
			out = append(out, e)
		}
	}
	return out
}

// tail marks a tail-latency entry as ungated: a shift in machine load moves
// a tail far more than the median it belongs to.
func tail(e entry) entry {
	e.ungated = true
	return e
}

// percentileEntry reports the q-quantile of samples, noting when the sample
// count is below what the percentile rule requires.
func percentileEntry(name string, xs []float64, q float64) entry {
	v, ok := percentile(xs, q)
	e := entry{name: name, unit: "ms", value: v, n: len(xs)}
	if !ok {
		e.note = fmt.Sprintf("below the percentile rule: needs %d samples", minSamples(q))
	}
	return e
}

// heapMB is HeapInuse after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable lines, then the JSON result as the last
// line. Problems go to standard error.
func (r *report) print(f io.Writer, trace bool) error {
	entries := r.e2e
	if trace {
		entries = r.layer
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(entries))}
	sorted := append([]entry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, e := range sorted {
		line := fmt.Sprintf("%-34s %14.6g %-6s", e.name, e.value, e.unit)
		if e.n > 0 {
			line += fmt.Sprintf(" n=%d", e.n)
		}
		if e.note != "" {
			line += "  (" + e.note + ")"
		}
		if e.ungated && !trace {
			line += "  (not gated: in the traced run's JSON)"
		}
		fmt.Fprintln(f, line)
		if !e.ungated || trace {
			res.Metrics[e.name] = jsonMetric{Value: e.value, Unit: e.unit}
		}
	}
	fmt.Fprintf(f, "attempted %d, failed %d\n", r.attempted, r.failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}
