package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/hotcache"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsFast fills the pipeline — worker parked, shard
// queue full, scheduler blocked mid-route, class queue full — and
// checks the next Predict fails fast with ErrOverloaded instead of
// blocking, with the shed recorded against its class.
func TestOverloadShedsFast(t *testing.T) {
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 1, QueueDepth: 1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv.testHookBatch = func(int, *microBatch) {
		entered <- struct{}{}
		<-hold
	}
	var routed atomic.Int64
	srv.testHookRoute = func(Class, int, int) { routed.Add(1) }
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)

	ctx := context.Background()
	req := func(i int) Request {
		s := profile.Samples[i]
		return Request{Dense: s.Dense, Sparse: s.Sparse}
	}
	var wg sync.WaitGroup
	predict := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Predict(ctx, req(i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}

	predict(0) // occupies the worker (parked in the hook)
	<-entered  //
	predict(1) // routed into the shard's depth-1 dispatch queue
	waitFor(t, "scheduler to route request 1", func() bool { return routed.Load() == 2 })
	predict(2) // held by the scheduler, blocked routing to the full shard
	waitFor(t, "scheduler to take request 2", func() bool { return routed.Load() == 3 })
	predict(3) // sits in the depth-1 Normal class queue
	waitFor(t, "class queue to fill", func() bool { return len(srv.classCh[Normal]) == 1 })

	// The pipeline is saturated: worker busy, shard queue full,
	// scheduler blocked, class queue full. The next request must shed
	// immediately.
	start := time.Now()
	_, err := srv.Predict(ctx, req(4))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full-queue Predict error = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v; fail-fast means immediate", d)
	}

	release()
	wg.Wait()
	st := srv.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	if st.Requests != 4 {
		t.Fatalf("Requests = %d, want 4", st.Requests)
	}
	if got, want := st.ShedRate(), 0.2; got != want {
		t.Fatalf("ShedRate = %v, want %v", got, want)
	}
	if cs := st.PerClass[Normal]; cs.Shed != 1 || cs.Requests != 4 {
		t.Fatalf("Normal class stats = %d shed / %d served, want 1/4", cs.Shed, cs.Requests)
	}
	if got, want := st.PerClass[Normal].ShedRate(), 0.2; got != want {
		t.Fatalf("Normal ShedRate = %v, want %v", got, want)
	}
	if st.QueueP50Ns < 0 || st.QueueP95Ns < st.QueueP50Ns || st.QueueP99Ns < st.QueueP95Ns {
		t.Fatalf("queue percentiles not monotone: %v/%v/%v", st.QueueP50Ns, st.QueueP95Ns, st.QueueP99Ns)
	}
	if st.MRAMBytesRead <= 0 {
		t.Fatalf("MRAMBytesRead = %d after %d served requests", st.MRAMBytesRead, st.Requests)
	}
}

// TestCancelledMidQueueLeavesNoTrace enqueues a request behind a parked
// worker, cancels it while queued, and checks it surfaces ctx.Err()
// and pollutes no counters once the pipeline drains.
func TestCancelledMidQueueLeavesNoTrace(t *testing.T) {
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 1, QueueDepth: 4})
	hold := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv.testHookBatch = func(int, *microBatch) {
		entered <- struct{}{}
		<-hold
	}
	var routed atomic.Int64
	srv.testHookRoute = func(Class, int, int) { routed.Add(1) }
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)

	ctx := context.Background()
	var wg sync.WaitGroup
	predict := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := profile.Samples[i]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}
	predict(0) // occupies the worker (parked in the hook)
	<-entered  //
	predict(1) // routed into the shard's depth-1 dispatch queue
	waitFor(t, "scheduler to route request 1", func() bool { return routed.Load() == 2 })
	predict(2) // held by the scheduler, blocked routing to the full shard
	waitFor(t, "scheduler to take request 2", func() bool { return routed.Load() == 3 })

	// Request 3 now sits in the class queue until cancelled out of it.
	cctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := profile.Samples[3]
		_, err := srv.Predict(cctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		errCh <- err
	}()
	waitFor(t, "request 3 to queue", func() bool { return len(srv.classCh[Normal]) == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Predict error = %v, want context.Canceled", err)
	}

	release()
	wg.Wait()
	srv.Close() // drain everything before reading stats
	st := srv.Stats()
	if st.Requests != 3 {
		t.Fatalf("Requests = %d, want 3 (cancelled request polluted stats)", st.Requests)
	}
	if st.Errors != 0 || st.Shed != 0 {
		t.Fatalf("Errors/Shed = %d/%d, want 0/0", st.Errors, st.Shed)
	}
}

// newCachedServer builds n replicas sharing one hot-row cache sized at
// frac of the model's embedding storage.
func newCachedServer(t *testing.T, shards int, frac float64, scfg Config) (*Server, *hotcache.Cache, int) {
	t.Helper()
	model, profile, ecfg := testFixture(t)
	var totalBytes int64
	for _, rows := range profile.RowsPerTable {
		totalBytes += int64(rows) * int64(model.Cfg.EmbDim) * 4
	}
	cache, err := hotcache.New(hotcache.Config{
		CapacityBytes: int64(frac * float64(totalBytes)),
		Seed:          11,
	}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	if cache == nil {
		t.Fatalf("cache at %.1f%% of %d B collapsed to nil", 100*frac, totalBytes)
	}
	ecfg.HotCache = cache
	engines, err := NewShards(model, profile, slices.Repeat([]core.Config{ecfg}, shards))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var lookups int
	for _, s := range profile.Samples {
		for _, idx := range s.Sparse {
			lookups += len(idx)
		}
	}
	return srv, cache, lookups
}

// TestCacheCountersConsistentUnderConcurrency hammers a cached server
// from many clients (run under -race) and checks the hit/miss counters
// exactly account for every row lookup, and that the server's Stats
// mirror the cache's own.
func TestCacheCountersConsistentUnderConcurrency(t *testing.T) {
	srv, cache, lookups := newCachedServer(t, 4, 0.05, Config{
		MaxBatch:    8,
		BatchWindow: 100 * time.Microsecond,
	})
	if srv.HotCache() != cache {
		t.Fatal("server does not report the shared cache")
	}
	// testFixture is deterministic: this regenerates the same stream the
	// server was partitioned from.
	_, profile, _ := testFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range profile.Samples {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.CacheHits+st.CacheMisses != int64(lookups) {
		t.Fatalf("cache accounting: hits %d + misses %d != %d row lookups",
			st.CacheHits, st.CacheMisses, lookups)
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across a full skewed trace")
	}
	cs := cache.Stats()
	if st.CacheHits != cs.Hits || st.CacheMisses != cs.Misses ||
		st.CacheAdmitted != cs.Admitted || st.CacheBytesSaved != cs.BytesSaved {
		t.Fatalf("server stats diverge from cache stats:\nserver %+v\ncache  %+v", st, cs)
	}
	if st.CacheHitRate <= 0 || st.CacheHitRate > 1 {
		t.Fatalf("hit rate %v out of (0,1]", st.CacheHitRate)
	}
	if st.CacheEntries == 0 {
		t.Fatal("cache empty after a full trace")
	}
}

// TestReplicasMustShareCache: New refuses engine replicas wired to
// different cache instances — stats and admission state would split.
func TestReplicasMustShareCache(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	mk := func(ecfg core.Config) *core.Engine {
		eng, err := core.New(model.Clone(), profile, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	c1, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfg1, cfg2 := ecfg, ecfg
	cfg1.HotCache = c1
	cfg2.HotCache = c2
	if _, err := New([]*core.Engine{mk(cfg1), mk(cfg2)}, Config{}); err == nil {
		t.Fatal("replicas with different caches accepted")
	}
	srv, err := New([]*core.Engine{mk(cfg1), mk(cfg1)}, Config{})
	if err != nil {
		t.Fatalf("replicas sharing a cache rejected: %v", err)
	}
	srv.Close()
}

// TestPredictRejectsCancelledBeforeEnqueue: an already-cancelled
// context never enters the queue or the shed counter.
func TestPredictRejectsCancelledBeforeEnqueue(t *testing.T) {
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := profile.Samples[0]
	if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := srv.Stats(); st.Shed != 0 || st.Requests != 0 {
		t.Fatalf("cancelled request left traces: %+v", st)
	}
}
