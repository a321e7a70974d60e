package updlrm

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// advertises: preset -> scale -> generate -> model -> engine -> run, plus
// all three baselines, asserting functional agreement.
func TestFacadeEndToEnd(t *testing.T) {
	spec, err := Preset("read")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Scaled(spec, 0.001, 0.2).Generate(128)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(DefaultModelConfig(tr.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEngineConfig()
	cfg.TotalDPUs = 64
	cfg.BatchSize = 64
	eng, err := NewEngine(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrs, bd, err := eng.RunTrace(tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrs) != 128 {
		t.Fatalf("got %d CTRs", len(ctrs))
	}
	if bd.EmbedNs() <= 0 || bd.TotalNs() <= bd.EmbedNs() {
		t.Fatalf("breakdown inconsistent: %+v", bd)
	}

	cpu, err := NewCPUBaseline(model, DefaultCPUModel())
	if err != nil {
		t.Fatal(err)
	}
	cpuCTRs, _, err := RunBaseline(cpu, tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctrs {
		d := float64(ctrs[i]) - float64(cpuCTRs[i])
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("engine and CPU baseline disagree at %d: %v vs %v", i, ctrs[i], cpuCTRs[i])
		}
	}

	hybrid, err := NewHybridBaseline(model, DefaultCPUModel(), DefaultGPUModel(),
		DefaultPCIeModel(), DefaultHybridConfig(model.Cfg.NumTables()))
	if err != nil {
		t.Fatal(err)
	}
	fae, err := NewFAEBaseline(model, tr, DefaultCPUModel(), DefaultGPUModel(),
		DefaultPCIeModel(), DefaultFAEConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []BaselineSystem{hybrid, fae} {
		out, sysBd, err := RunBaseline(sys, tr, 64)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if len(out) != 128 || sysBd.TotalNs() <= 0 {
			t.Fatalf("%s: bad output", sys.Name())
		}
	}
}

func TestFacadeCatalogue(t *testing.T) {
	if len(PresetNames()) < 9 {
		t.Fatalf("PresetNames = %v", PresetNames())
	}
	if len(Table1Names()) != 6 {
		t.Fatalf("Table1Names = %v", Table1Names())
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatalf("unknown preset accepted")
	}
	b := Balanced(1000, 2, 50, 1)
	if err := b.Validate(); err != nil {
		t.Fatalf("Balanced: %v", err)
	}
	if DefaultHWConfig().Validate() != nil {
		t.Fatalf("DefaultHWConfig invalid")
	}
	tr, err := Balanced(500, 2, 5, 2).Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(MakeBatches(tr, 16)); got != 4 {
		t.Fatalf("MakeBatches = %d", got)
	}
}

func TestPartitionMethodConstants(t *testing.T) {
	if Uniform.String() != "U" || NonUniform.String() != "NU" || CacheAware.String() != "CA" {
		t.Fatalf("method constants mismapped: %v %v %v", Uniform, NonUniform, CacheAware)
	}
}

// TestFacadeServer exercises the serving facade: build a sharded server,
// replay profile samples concurrently, and check the served CTRs match a
// direct engine run of the same samples.
func TestFacadeServer(t *testing.T) {
	spec, err := Preset("read")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Scaled(spec, 0.001, 0.2).Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(DefaultModelConfig(tr.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEngineConfig()
	cfg.TotalDPUs = 64
	srv, err := NewServer(model, tr, cfg, ServerConfig{
		Shards:      2,
		MaxBatch:    8,
		BatchWindow: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	eng, err := NewEngine(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.RunTrace(tr, len(tr.Samples))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range tr.Samples {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tr.Samples[i]
			resp, err := srv.Predict(ctx, ServeRequest{Dense: s.Dense, Sparse: s.Sparse})
			if err != nil {
				t.Errorf("sample %d: %v", i, err)
				return
			}
			if resp.CTR != want[i] {
				t.Errorf("sample %d: served %v != engine %v", i, resp.CTR, want[i])
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Requests != int64(len(tr.Samples)) || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.P99Ns < st.P50Ns {
		t.Fatalf("percentiles inverted: %+v", st)
	}
}

// TestFacadeHotCache covers the hot-row cache through the public API:
// a zero-capacity config serves CTRs bit-identical to a bare engine
// (today's behavior), while a sized cache engages over a replayed
// stream and reports coherent hit/traffic stats. (Numerical
// correctness of the cached split path itself is proven against the
// CPU reference in internal/core's tests.)
func TestFacadeHotCache(t *testing.T) {
	spec, err := Preset("read")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Scaled(spec, 0.001, 0.2).Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(DefaultModelConfig(tr.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	ecfg := DefaultEngineConfig()
	ecfg.TotalDPUs = 64

	// Zero capacity: equivalence with the cache-less engine, request by
	// request (MaxBatch 1 pins batch composition).
	srv, err := NewServer(model, tr, ecfg, ServerConfig{
		Shards:   1,
		MaxBatch: 1,
		HotCache: HotCacheConfig{CapacityBytes: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(model, tr, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, s := range tr.Samples[:16] {
		resp, err := srv.Predict(ctx, ServeRequest{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		b := MakeBatches(&Trace{NumTables: tr.NumTables, RowsPerTable: tr.RowsPerTable,
			DenseDim: tr.DenseDim, Samples: tr.Samples[i : i+1]}, 1)[0]
		want, err := eng.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CTR != want.CTR[0] {
			t.Fatalf("sample %d: zero-capacity cache CTR %v != engine %v", i, resp.CTR, want.CTR[0])
		}
	}
	st := srv.Stats()
	srv.Close()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheHitRate != 0 {
		t.Fatalf("zero-capacity cache recorded traffic: %+v", st)
	}

	// Sized cache: hits must appear and the stats must hang together.
	cached, err := NewServer(model, tr, ecfg, ServerConfig{
		Shards:   2,
		MaxBatch: 4,
		HotCache: HotCacheConfig{CapacityBytes: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	for pass := 0; pass < 2; pass++ { // second pass hits the warmed cache
		for _, s := range tr.Samples {
			if _, err := cached.Predict(ctx, ServeRequest{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cst := cached.Stats()
	if cst.CacheHits == 0 {
		t.Fatal("sized cache served no rows over two passes")
	}
	if cst.CacheHitRate <= 0 || cst.CacheHitRate > 1 {
		t.Fatalf("hit rate %v out of (0,1]", cst.CacheHitRate)
	}
	if cst.CacheBytesSaved <= 0 || cst.MRAMBytesRead <= 0 {
		t.Fatalf("traffic accounting: %+v", cst)
	}
	if cst.CacheHits+cst.CacheMisses == 0 || cst.CacheEntries == 0 {
		t.Fatalf("cache never engaged: %+v", cst)
	}
}

// TestFacadeQoSHeterogeneous drives the QoS scheduler and heterogeneous
// shards through the public API: two shards on different partition
// methods behind ServerConfig.ShardConfigs, mixed-class traffic, and
// the per-class / per-shard slices of ServerStats.
func TestFacadeQoSHeterogeneous(t *testing.T) {
	spec, err := Preset("read")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Scaled(spec, 0.001, 0.2).Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(DefaultModelConfig(tr.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	uni := DefaultEngineConfig()
	uni.TotalDPUs = 64
	uni.Method = Uniform
	non := uni
	non.Method = NonUniform
	srv, err := NewServer(model, tr, EngineConfig{}, ServerConfig{
		ShardConfigs: []EngineConfig{uni, non},
		MaxBatch:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Config().Shards; got != 2 {
		t.Fatalf("heterogeneous server has %d shards, want 2", got)
	}

	ctx := context.Background()
	classes := []RequestClass{CriticalClass, NormalClass, BatchClass}
	for i, s := range tr.Samples {
		resp, err := srv.Predict(ctx, ServeRequest{Dense: s.Dense, Sparse: s.Sparse, Class: classes[i%3]})
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if resp.Class != classes[i%3] {
			t.Fatalf("sample %d: response class %v, want %v", i, resp.Class, classes[i%3])
		}
		if resp.Shard < 0 || resp.Shard > 1 {
			t.Fatalf("sample %d: shard %d out of range", i, resp.Shard)
		}
	}

	st := srv.Stats()
	if st.Requests != int64(len(tr.Samples)) {
		t.Fatalf("served %d, want %d", st.Requests, len(tr.Samples))
	}
	var perClass int64
	for c := 0; c < NumRequestClasses; c++ {
		perClass += st.PerClass[c].Requests
	}
	if perClass != st.Requests {
		t.Fatalf("per-class requests sum to %d, want %d", perClass, st.Requests)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("Stats.Shards has %d entries, want 2", len(st.Shards))
	}
	var routed int64
	for _, sh := range st.Shards {
		routed += sh.Requests
		if sh.PredictedPerReqNs <= 0 {
			t.Fatalf("unseeded shard profile: %+v", sh)
		}
	}
	if routed != st.Requests {
		t.Fatalf("shard requests sum to %d, want %d", routed, st.Requests)
	}
}
