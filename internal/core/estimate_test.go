package core

import (
	"testing"

	"updlrm/internal/hotcache"
	"updlrm/internal/partition"
	"updlrm/internal/trace"
)

// TestEstimateBreakdownMatchesProbeRun: the serving-profile hook must
// return exactly the breakdown of running the profile's head through
// RunBatch — it is a probe, not a separate model — and must be
// deterministic across calls.
func TestEstimateBreakdownMatchesProbeRun(t *testing.T) {
	model, tr := smallWorld(t)
	eng, err := New(model, tr, smallConfig(partition.MethodNonUniform))
	if err != nil {
		t.Fatal(err)
	}
	bd, n, err := eng.EstimateBreakdown(16)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("probe used %d samples, want 16", n)
	}
	res, err := eng.RunBatch(trace.MakeBatch(tr, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if bd != res.Breakdown {
		t.Fatalf("estimate %+v != probe run %+v", bd, res.Breakdown)
	}
	bd2, n2, err := eng.EstimateBreakdown(16)
	if err != nil || bd2 != bd || n2 != n {
		t.Fatalf("estimate not deterministic: %+v/%d vs %+v/%d (err %v)", bd2, n2, bd, n, err)
	}

	// A request for more samples than the profile holds clamps.
	_, n, err = eng.EstimateBreakdown(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tr.Samples) {
		t.Fatalf("oversized probe used %d samples, want the whole profile (%d)", n, len(tr.Samples))
	}
	// Zero falls back to the configured batch size.
	_, n, err = eng.EstimateBreakdown(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := smallConfig(partition.MethodNonUniform).BatchSize; n != want {
		t.Fatalf("default probe used %d samples, want BatchSize %d", n, want)
	}
}

// TestEstimateBreakdownDistinguishesConfigs: probes through engines
// with different partitioning must differ — that asymmetry is what
// heterogeneous routing keys on.
func TestEstimateBreakdownDistinguishesConfigs(t *testing.T) {
	model, tr := smallWorld(t)
	probe := func(cfg Config) float64 {
		eng, err := New(model.Clone(), tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bd, _, err := eng.EstimateBreakdown(32)
		if err != nil {
			t.Fatal(err)
		}
		return bd.TotalNs()
	}
	uni := probe(smallConfig(partition.MethodUniform))
	non := probe(smallConfig(partition.MethodNonUniform))
	small := smallConfig(partition.MethodUniform)
	small.TotalDPUs = 8
	crippled := probe(small)
	if uni == non {
		t.Fatalf("uniform and non-uniform probes identical (%v); estimator blind to partitioning", uni)
	}
	if crippled <= uni {
		t.Fatalf("8-DPU probe %v not costlier than 32-DPU probe %v", crippled, uni)
	}
}

// TestEstimateBreakdownLeavesHotCacheUntouched: the probe must not
// perturb shared admission state — its lookups bypass the cache
// entirely and the engine's cache wiring survives.
func TestEstimateBreakdownLeavesHotCacheUntouched(t *testing.T) {
	model, tr := smallWorld(t)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(partition.MethodUniform)
	cfg.HotCache = cache
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.EstimateBreakdown(32); err != nil {
		t.Fatal(err)
	}
	if cs := cache.Stats(); cs.Hits != 0 || cs.Misses != 0 || cs.Admitted != 0 {
		t.Fatalf("probe touched the cache: %+v", cs)
	}
	if eng.HotCache() != cache {
		t.Fatal("probe dropped the engine's cache wiring")
	}
	// The cache path still engages for real batches afterwards.
	res, err := eng.RunBatch(trace.MakeBatch(tr, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.HostCacheHits+res.HostCacheMisses == 0 {
		t.Fatal("cache path inactive after probe")
	}
}

// TestConfigCloneSharesCache pins what a per-shard config copy (a plain
// value copy) does: value fields fork, reference fields (the shared
// hot-row cache) stay shared.
func TestConfigCloneSharesCache(t *testing.T) {
	model, _ := smallWorld(t)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	base := smallConfig(partition.MethodUniform)
	base.HotCache = cache
	cp := base
	cp.Method = partition.MethodNonUniform
	cp.TotalDPUs = 8
	if base.Method != partition.MethodUniform || base.TotalDPUs != 32 {
		t.Fatalf("mutating the clone leaked into the base: %+v", base)
	}
	if cp.HotCache != base.HotCache {
		t.Fatal("clone does not share the hot cache")
	}
}
