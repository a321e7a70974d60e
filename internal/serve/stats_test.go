package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/governor"
	"updlrm/internal/metrics"
	"updlrm/internal/obs"
	"updlrm/internal/trace"
)

// fakeShard is a trivial Shard: every batch costs a fixed modeled
// breakdown, runs once gate is closed (nil gate: at once) and fails
// while fail is set.
type fakeShard struct {
	gate chan struct{}
	fail atomic.Bool
	res  core.Result
}

func (f *fakeShard) RunBatch(b *trace.Batch) (*core.Result, error) {
	if f.gate != nil {
		<-f.gate
	}
	if f.fail.Load() {
		return nil, errors.New("fake shard failure")
	}
	f.res.CTR = slices.Grow(f.res.CTR[:0], b.Size)[:b.Size]
	f.res.Breakdown = metrics.Breakdown{DPULookupNs: 20e3, MLPNs: 5e3}
	f.res.MRAMBytesRead = 64
	return &f.res, nil
}

func (f *fakeShard) ApplyUpdate(UpdateJob) (UpdateResult, error) {
	return UpdateResult{Invalidations: 1, ModeledNs: 3e3}, nil
}

var fakeShape = Shape{NumTables: 1, RowsPerTable: []int{8}, DenseDim: 1, EmbDim: 2}

func fakeRequest(c Class) Request {
	return Request{Dense: []float32{0.5}, Sparse: [][]int32{{1, 3}}, Class: c}
}

// TestStatsMatchMetrics drives mixed classes, every shed cause, shard
// errors and an update through a server, then checks that each count
// Stats reports equals its /metrics series exactly: both read one set
// of instruments.
func TestStatsMatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	shard := &fakeShard{gate: make(chan struct{})}
	cfg := Config{MaxBatch: 1, Metrics: reg}
	cfg.Classes[Critical].SLOTargetNs = int64(time.Hour)
	cfg.Classes[Batch].QueueDepth = 1
	srv, err := NewFromShards([]Shard{shard}, fakeShape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(shard.gate) }) }
	t.Cleanup(release)
	ctx := context.Background()
	var wg sync.WaitGroup
	send := func(c Class, n int) {
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := srv.Predict(ctx, fakeRequest(c)); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Error(err)
				}
			}()
		}
	}
	shed := func(c Class) int64 { return srv.Stats().PerClass[c].Shed }

	// Full-queue sheds: a Batch flood behind a parked shard.
	const flood = 40
	send(Batch, flood)
	waitFor(t, "batch flood to shed", func() bool { return shed(Batch) >= flood-8 })
	release()
	wg.Wait()
	// Served traffic in every class.
	send(Critical, 10)
	send(Normal, 12)
	send(Batch, 14)
	wg.Wait()
	// Shard errors.
	shard.fail.Store(true)
	for range 3 {
		if _, err := srv.Predict(ctx, fakeRequest(Normal)); err == nil {
			t.Fatal("failing shard served a request")
		}
	}
	shard.fail.Store(false)
	// One update.
	if err := srv.ApplyDeltas(ctx, []Delta{{Table: 0, Row: 2, Vec: []float32{1, 1}}}); err != nil {
		t.Fatal(err)
	}
	// Pressure sheds: the governor's gate, set by hand.
	srv.setShed(Batch, true)
	for range 5 {
		if _, err := srv.Predict(ctx, fakeRequest(Batch)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("gated Batch request: err = %v, want ErrOverloaded", err)
		}
	}
	srv.setShed(Batch, false)
	// SLO sheds: a fresh forecast that Critical misses its target. The
	// scheduler is idle, so nothing republishes over it.
	srv.predWait[Critical].Store(int64(2 * time.Hour))
	srv.predWaitStamp.Store(time.Now().UnixNano())
	for range 4 {
		if _, err := srv.Predict(ctx, fakeRequest(Normal)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("SLO-gated Normal request: err = %v, want ErrOverloaded", err)
		}
	}

	st := srv.Stats()
	snap := reg.Snapshot()
	eq := func(what string, got int64, key string) {
		t.Helper()
		if want := snap.Get(key); float64(got) != want {
			t.Errorf("%s = %d, /metrics %s = %g", what, got, key, want)
		}
	}
	var requests, shedTotal int64
	for c := Class(0); c < NumClasses; c++ {
		cs := st.PerClass[c]
		l := fmt.Sprintf("{class=%q}", c.String())
		eq(c.String()+" Requests", cs.Requests, "serve_requests_total"+l)
		eq(c.String()+" Shed", cs.Shed, "serve_shed_total"+l)
		eq(c.String()+" ShedPressure", cs.ShedPressure, "governor_shed_total"+l)
		eq(c.String()+" ShedSLO", cs.ShedSLO, "serve_slo_shed_total"+l)
		eq(c.String()+" latency count", cs.Requests, "serve_request_modeled_ns_count"+l)
		if want := snap.Get("serve_request_modeled_ns_sum"+l) / float64(cs.Requests); cs.MeanNs != want {
			t.Errorf("%s MeanNs = %g, /metrics sum/count = %g", c, cs.MeanNs, want)
		}
		requests += cs.Requests
		shedTotal += cs.Shed
	}
	if st.Requests != requests || st.Shed != shedTotal {
		t.Errorf("Requests/Shed = %d/%d, per-class sums %d/%d", st.Requests, st.Shed, requests, shedTotal)
	}
	eq("Errors", st.Errors, "serve_errors_total")
	eq("Batches", st.Batches, "serve_batch_size_count")
	eq("UpdateBatches", st.UpdateBatches, "serve_update_applied_total")
	eq("UpdatedRows", st.UpdatedRows, "serve_update_rows_total")
	eq("UpdateShed", st.UpdateShed, "serve_update_shed_total")
	eq("UpdateInvalidations", st.UpdateInvalidations, "serve_update_invalidations_total")
	eq("Reprobes", st.Reprobes, "serve_reprobe_total")
	if want := snap.Get("serve_update_modeled_ns_sum"); st.UpdateModeledNs != want {
		t.Errorf("UpdateModeledNs = %g, /metrics sum = %g", st.UpdateModeledNs, want)
	}

	// The drive reached every recorder it meant to.
	fullQueue := st.PerClass[Batch].Shed - st.PerClass[Batch].ShedPressure
	served := flood - fullQueue + 10 + 12 + 14
	switch {
	case st.Requests != served:
		t.Errorf("Requests = %d, want %d", st.Requests, served)
	case st.Errors != 3:
		t.Errorf("Errors = %d, want 3", st.Errors)
	case st.PerClass[Batch].ShedPressure != 5:
		t.Errorf("Batch ShedPressure = %d, want 5", st.PerClass[Batch].ShedPressure)
	case st.PerClass[Normal].ShedSLO != 4:
		t.Errorf("Normal ShedSLO = %d, want 4", st.PerClass[Normal].ShedSLO)
	case fullQueue < flood-8:
		t.Errorf("Batch full-queue sheds = %d, want >= %d", fullQueue, flood-8)
	case st.UpdateBatches != 1 || st.UpdatedRows != 1 || st.UpdateInvalidations != 1:
		t.Errorf("update stats = %d/%d/%d, want 1/1/1", st.UpdateBatches, st.UpdatedRows, st.UpdateInvalidations)
	}
}

// TestStatsMemoryBounded serves 20k requests and checks the live heap
// does not grow with them: Stats keeps fixed-size histograms, not a
// sample per request.
func TestStatsMemoryBounded(t *testing.T) {
	srv, err := NewFromShards([]Shard{&fakeShard{}, &fakeShard{}}, fakeShape, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	drive := func(n int) {
		const clients = 8
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range n / clients {
					if _, err := srv.Predict(context.Background(), fakeRequest(Class(i%int(NumClasses)))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	drive(2000) // warm pools and channels
	before := heap()
	drive(20000)
	after := heap()
	if st := srv.Stats(); st.Requests != 22000 {
		t.Fatalf("served %d requests, want 22000", st.Requests)
	}
	const bound = 256 << 10
	if after > before && after-before > bound {
		t.Fatalf("heap grew %d KiB over 20k requests, want < %d KiB", (after-before)>>10, bound>>10)
	}
}

// TestServerCloseLeaksNoGoroutines runs a single-node server with every
// background mechanism on — governor, cost re-probes, metrics and the
// tracer — and checks that Close returns the goroutine count to its
// baseline.
func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	engines, err := NewShards(model, profile, []core.Config{ecfg, ecfg})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	srv, err := New(engines, Config{
		Metrics:         obs.NewRegistry(),
		Tracer:          obs.NewTracer(1, 16),
		Governor:        governor.Config{BudgetBytes: 1 << 40, Interval: time.Millisecond},
		ReprobeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveTraffic(t, srv)
	waitFor(t, "a background re-probe", func() bool { return srv.Stats().Reprobes > 0 })
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
