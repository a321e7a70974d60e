package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runShort runs one workload for a fraction of a second and decodes the
// result line.
func runShort(t *testing.T, args ...string) jsonResult {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-seconds", "0.4"}, args...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

// TestEveryMetricEmitted checks that each workload, untraced and
// traced, emits exactly the metrics BENCHMARK.json names, each with its
// unit, from a correct run.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Fatalf("workloads: program has %s, BENCHMARK.json %s", got, strings.Join(names, ","))
	}
	for _, w := range names {
		for _, mode := range []struct {
			trace string
			want  map[string]string
		}{
			{"0", units(spec.EndToEnd)},
			{"1", units(spec.PerLayer)},
		} {
			res := runShort(t, "-workload", w, "-trace", mode.trace, "-seed", "7")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d",
					w, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range mode.want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w, mode.trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", w, mode.trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := mode.want[name]; !ok {
					t.Errorf("%s trace=%s: metric %s not in BENCHMARK.json", w, mode.trace, name)
				}
			}
			if mode.trace == "1" {
				for _, name := range layerRun[w] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: layer metric %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// layerRun names, per workload, layer figures that must be measured
// (non-zero) in its traced run: the layers only that workload drives.
var layerRun = map[string][]string{
	"offline-b64":   {"core.embed_us_per_sample", "modeled.dpu_lookup_us", "loadgen.latency_p99_ms", "trace.spans"},
	"serve-light":   {"serve.queue_p50_ms", "serve.service_p50_ms", "loadgen.latency_p99_ms", "trace.spans"},
	"serve-hot-rw":  {"hotcache.invalidations", "governor.pressure_peak", "loadgen.update_p99_ms", "modeled.host_cache_us"},
	"cluster-2node": {"cluster.rpc_p50_us", "cluster.rpcs_per_batch", "cluster.wire_bytes_per_req", "modeled.network_us"},
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestPerturbedCTRFails corrupts one served CTR by the smallest step
// each check must catch and expects the run to report it.
func TestPerturbedCTRFails(t *testing.T) {
	for _, w := range workloadNames() {
		res := runShort(t, "-workload", w, "-perturb", "3")
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: perturbed CTR not caught: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := workloads["serve-light"]
	a, err := makeInputs(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInputs(w, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.refCPU {
		if a.refCPU[i] != b.refCPU[i] || a.refEngine[i] != b.refEngine[i] {
			t.Fatalf("seed 11 twice: reference %d differs", i)
		}
	}
	same := 0
	for i := range a.refCPU {
		if a.refCPU[i] == c.refCPU[i] {
			same++
		}
	}
	if same == len(a.refCPU) {
		t.Fatal("seeds 11 and 12 gave identical inputs")
	}
}

func TestPassRateTakesEachBatchQuantile(t *testing.T) {
	// Batch 0 takes 10 ms and batch 1 20 ms when undisturbed; a slowed
	// majority of replays must not move the pass rate.
	ph := &offlinePhase{byBatch: [][]float64{
		{10, 30, 30, 10, 30, 30, 30, 30, 30, 30, 30},
		{20, 40, 40, 40, 20, 40, 40, 40, 40, 40, 40},
		{}, // never replayed: left out
	}}
	for _, q := range []float64{0, 0.1} {
		rate, n := ph.passRate(q)
		if want := 2 * batchSize / 0.030; math.Abs(rate-want) > 1e-9*want || n != 22 {
			t.Errorf("passRate(%g) = %v over %d replays, want %v over 22", q, rate, n, want)
		}
	}
}

func TestSelfSharesGroupsPackages(t *testing.T) {
	for sym, want := range map[string]string{
		"updlrm/internal/upmem.(*System).RunStepInto": "upmem",
		"updlrm/internal/tensor.gemm4x2":              "dense",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).Get":            "runtime",
		"updlrm/internal/core.(*Engine).runWave":      "",
		"sync.(*Mutex).Lock":                          "",
	} {
		if got := groupOf(funcPackage(sym)); got != want {
			t.Errorf("%s: group %q, want %q", sym, got, want)
		}
	}
}

// TestSelfSharesRealProfile decodes a CPU profile of a busy loop.
func TestSelfSharesRealProfile(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	var sink []float64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink = append(sink[:0], make([]float64, 1<<12)...)
		sort.Float64s(sink)
	}
	shares, samples, err := selfShares(prof.stop())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profile recorded no samples")
	}
	var sum float64
	for _, g := range profileGroups {
		v, ok := shares[g.metric]
		if !ok || v < 0 || v > 1 {
			t.Errorf("group %s share %v (present %v)", g.metric, v, ok)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("shares sum to %v > 1", sum)
	}
}
