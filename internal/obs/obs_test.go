package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func TestCounterMonotonicConcurrentInc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range per {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	c.Add(-5) // negative adds are ignored: counters are monotonic
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter moved backwards after Add(-5): %d", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_esc_total", "escaping", "path")
	v.With("a\\b\"c\nd").Inc()
	out := render(t, r)
	want := `test_esc_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("rendered output missing escaped label:\nwant substring %q\ngot:\n%s", want, out)
	}
	// The parser must round-trip the escaped value back to the original.
	fams, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	samples := fams["test_esc_total"].Samples["test_esc_total"]
	if len(samples) != 1 || samples[0].Label("path") != "a\\b\"c\nd" {
		t.Fatalf("parser did not round-trip escaped label: %+v", samples)
	}
}

func TestHistogramCumulativeBucketsAndInf(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_ns", "latency", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 500, 5000, 7, 70} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, line := range []string{
		`test_lat_ns_bucket{le="10"} 2`,
		`test_lat_ns_bucket{le="100"} 4`,
		`test_lat_ns_bucket{le="1000"} 5`,
		`test_lat_ns_bucket{le="+Inf"} 6`,
		`test_lat_ns_count 6`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if want := 5.0 + 50 + 500 + 5000 + 7 + 70; h.Sum() != want {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
	// The parser's structural validation must accept our own rendering.
	if _, err := ParseExposition(out); err != nil {
		t.Fatalf("self-rendered histogram failed validation: %v", err)
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_edge", "edge", []float64{10, 100})
	h.Observe(10) // le="10" is inclusive
	h.Observe(10.0001)
	out := render(t, r)
	if !strings.Contains(out, `test_edge_bucket{le="10"} 1`) {
		t.Fatalf("boundary observation not in inclusive bucket:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q", "q", ExpBuckets(1, 2, 10)) // 1..512
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i + 1)) // 1..100
	}
	p50 := h.Quantile(0.5)
	if p50 < 32 || p50 > 64 {
		t.Errorf("p50 = %g, want within (32, 64]", p50)
	}
	h.Observe(1e9) // lands in +Inf, quantile clamps to top finite bound
	if got := h.Quantile(1.0); got != 512 {
		t.Errorf("p100 with +Inf observation = %g, want clamp to 512", got)
	}
}

// quarterOctave is the serving stack's latency ladder: 1µs to ~1.05s in
// steps of 2^0.25.
func quarterOctave() []float64 { return ExpBuckets(1e3, math.Pow(2, 0.25), 81) }

// TestHistogramQuantileAccuracy checks that, on the quarter-octave
// ladder, every estimated quantile of a known log-normal sample lies
// within one bucket width of the exact nearest-rank value, and that a
// merged snapshot estimates the union the same way.
func TestHistogramQuantileAccuracy(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("test_a", "a", quarterOctave())
	b := r.Histogram("test_b", "b", quarterOctave())
	rng := rand.New(rand.NewPCG(1, 2))
	var all []float64
	for i := range 20000 {
		v := math.Exp(math.Log(200e3) + 1.2*rng.NormFloat64()) // median 200µs
		all = append(all, v)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	sort.Float64s(all)
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	if merged.Count() != uint64(len(all)) {
		t.Fatalf("merged count %d, want %d", merged.Count(), len(all))
	}
	bounds := quarterOctave()
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := all[int(math.Ceil(q*float64(len(all))))-1]
		i := sort.SearchFloat64s(bounds, exact) // the bucket holding exact
		if i == len(bounds) {
			continue // +Inf: estimates clamp, checked in TestHistogramQuantile
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		width := bounds[i] - lo
		if got := merged.Quantile(q); math.Abs(got-exact) > width {
			t.Errorf("q=%g: estimate %g, exact %g: off by more than the bucket width %g", q, got, exact, width)
		}
	}
	if got, top := merged.Quantile(1), all[len(all)-1]; got < top || got > top*math.Pow(2, 0.25) {
		t.Errorf("Quantile(1) = %g, want the upper bound of the bucket holding the max %g", got, top)
	}
}

// TestHistogramBinarySearchInclusive observes every bound of a long
// ladder, and a value just above each: le stays inclusive.
func TestHistogramBinarySearchInclusive(t *testing.T) {
	r := NewRegistry()
	bounds := quarterOctave()
	h := r.Histogram("test_ladder", "ladder", bounds)
	for _, b := range bounds {
		h.Observe(b)
		h.Observe(math.Nextafter(b, math.Inf(1)))
	}
	h.Observe(0)
	s := h.Snapshot()
	if s.counts[0] != 2 {
		t.Errorf("first bucket holds %d, want 2 (zero and its bound)", s.counts[0])
	}
	for i := 1; i < len(bounds); i++ {
		if s.counts[i] != 2 {
			t.Fatalf("bucket le=%g holds %d, want 2 (its bound and just above the previous)", bounds[i], s.counts[i])
		}
	}
	if n := s.counts[len(bounds)]; n != 1 {
		t.Errorf("+Inf bucket holds %d, want 1 (just above the top bound)", n)
	}
}

func TestGaugeSetAddAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "depth")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	r.GaugeFunc("test_live", "callback", func() float64 { return 42 })
	v := r.GaugeVec("test_live_by", "labeled callback", "shard")
	v.WithFunc(func() float64 { return 7 }, "0")
	out := render(t, r)
	if !strings.Contains(out, "test_live 42") {
		t.Errorf("GaugeFunc not rendered:\n%s", out)
	}
	if !strings.Contains(out, `test_live_by{shard="0"} 7`) {
		t.Errorf("GaugeVec.WithFunc not rendered:\n%s", out)
	}
}

func TestVecResolvesSameChild(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_by_class_total", "per class", "class")
	a, b := v.With("critical"), v.With("critical")
	if a != b {
		t.Fatal("With with identical label values returned distinct children")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("children not shared")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(3)
	g := r.Gauge("y", "")
	g.Set(1)
	g.Add(1)
	h := r.Histogram("z", "", []float64{1})
	h.Observe(5)
	r.CounterVec("a", "", "l").With("v").Inc()
	r.GaugeVec("b", "", "l").With("v").Set(1)
	r.HistogramVec("c", "", []float64{1}, "l").With("v").Observe(1)
	r.GaugeFunc("d", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tr *Tracer
	if _, ok := tr.Sample(); ok {
		t.Fatal("nil tracer sampled")
	}
	tr.Record(&TraceRecord{})
	if tr.Records() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer holds records")
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup", "")
	mustPanic("duplicate name", func() { r.Counter("dup", "") })
	mustPanic("invalid name", func() { r.Counter("9starts_with_digit", "") })
	mustPanic("invalid label", func() { r.CounterVec("ok_total", "", "bad:label") })
	mustPanic("empty bounds", func() { r.Histogram("h1", "", nil) })
	mustPanic("descending bounds", func() { r.Histogram("h2", "", []float64{2, 1}) })
	mustPanic("label arity", func() { r.CounterVec("v_total", "", "a", "b").With("only_one") })
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_reqs_total", "reqs", "class").With("normal")
	h := r.Histogram("test_ns", "ns", []float64{10, 100})
	c.Add(5)
	h.Observe(50)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(5)
	h.Observe(500)
	diff := r.Snapshot().Sub(before)
	if got := diff.Get(`test_reqs_total{class="normal"}`); got != 3 {
		t.Errorf("counter diff = %g, want 3", got)
	}
	if got := diff.Get("test_ns_count"); got != 2 {
		t.Errorf("histogram count diff = %g, want 2", got)
	}
	if got := diff.Get(`test_ns_bucket{le="10"}`); got != 1 {
		t.Errorf("le=10 bucket diff = %g, want 1", got)
	}
	if got := diff.Get(`test_ns_bucket{le="+Inf"}`); got != 2 {
		t.Errorf("+Inf bucket diff = %g, want 2", got)
	}
	if got := diff.Get("test_ns_sum"); got != 505 {
		t.Errorf("sum diff = %g, want 505", got)
	}
}

func TestParserRejectsBadExposition(t *testing.T) {
	cases := map[string]string{
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" + "h_count 3\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_count 5\n",
		"inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_count 7\n",
		"negative counter": "# TYPE c counter\nc -1\n",
		"orphan sample":    "x_total 1\n",
		"bad value":        "# TYPE g gauge\ng notanumber\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestTracerSamplingAndRing(t *testing.T) {
	tr := NewTracer(10, 4)
	sampled := 0
	for i := 0; i < 100; i++ {
		seq, ok := tr.Sample()
		if !ok {
			continue
		}
		sampled++
		rec := TraceRecord{Seq: seq, Class: "normal", Shard: 1, TotalNs: float64(seq)}
		rec.AddSpan("queue_wait", 10, "measured")
		rec.AddSpan("dpu_lookup", 20, "modeled")
		tr.Record(&rec)
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 100 at 1-in-10", sampled)
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d, want capacity 4", tr.Len())
	}
	recs := tr.Records()
	if recs[0].Seq != 100 {
		t.Fatalf("newest record seq = %d, want 100", recs[0].Seq)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq >= recs[i-1].Seq {
			t.Fatal("records not newest-first")
		}
	}
	if recs[0].NumSpans != 2 || recs[0].Spans[0].Name != "queue_wait" {
		t.Fatalf("spans not preserved: %+v", recs[0])
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"dpu_lookup"`) || strings.Contains(sb.String(), `"ns": 0`) {
		t.Fatalf("JSON should include populated spans only:\n%s", sb.String())
	}
}

func TestTracerSpanOverflow(t *testing.T) {
	var rec TraceRecord
	for i := 0; i < MaxSpans+5; i++ {
		rec.AddSpan("s", 1, "modeled")
	}
	if rec.NumSpans != MaxSpans {
		t.Fatalf("NumSpans = %d, want cap at %d", rec.NumSpans, MaxSpans)
	}
}

func TestFormatFloatInf(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
	if got := formatFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("formatFloat(-Inf) = %q", got)
	}
	if got := formatFloat(0.5); got != "0.5" {
		t.Errorf("formatFloat(0.5) = %q", got)
	}
}
