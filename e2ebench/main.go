// Command e2ebench is the repository's end-to-end and per-layer
// benchmark. Each run builds one workload's deployment through the
// public entry points (updlrm.NewServer, cluster.NewFrontend over a
// local transport, core.New), drives it for a fixed time, checks every
// output (see checker), and prints its figures. The last line of
// standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end figures of an untraced
// run. With -trace 1 the run is split: an untraced half, then a traced
// half (spans around every call, a CPU profile, a timed cluster
// transport), then replay probes through standalone engine, cache and
// cover-planner instances; the metrics are the per-layer figures plus
// the tracing overhead between the two halves.
//
// Every figure names its clock: "measured" is host wall time,
// "modeled" is the PIM cost model (metrics.Breakdown), and "count" is a
// tally or a ratio of tallies.
//
// Usage (from the repository root, normally through run.sh):
//
//	e2ebench -workload serve-light -seed 3 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	// out is the directory span dumps are written to ("" = none).
	out string
	// perturbAt corrupts the perturbAt-th checked CTR (0 = never).
	perturbAt int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", "", "directory for the traced run's span dump (empty = none)")
	perturb := fs.Int64("perturb", 0, "self-test: corrupt the n-th checked CTR")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "e2ebench: want -seconds > 0 and -trace 0 or 1")
		return 2
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		out: *out, perturbAt: *perturb}
	rep, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := rep.resultJSON()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// measure is one reported figure.
type measure struct {
	name, unit, clock string
	value             float64
	samples           int // observations behind the figure
}

// report collects a run's figures and operation counts.
type report struct {
	attempted, failed int64
	correct           bool
	measures          []measure
}

func (r *report) add(name, unit, clock string, value float64, samples int) {
	r.measures = append(r.measures, measure{name, unit, clock, value, samples})
}

// print writes one human-readable line per figure.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%-28s %14s %-6s %-9s %s\n", "metric", "value", "unit", "clock", "samples")
	for _, m := range r.measures {
		fmt.Fprintf(w, "%-28s %14.6g %-6s %-9s n=%d\n", m.name, m.value, m.unit, m.clock, m.samples)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct)
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

func (r *report) resultJSON() (string, error) {
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(r.measures))}
	for _, m := range r.measures {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := res.Metrics[m.name]; dup {
			return "", fmt.Errorf("metric %s reported twice", m.name)
		}
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}
