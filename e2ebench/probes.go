package main

import (
	"fmt"
	"runtime"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/grace"
	"updlrm/internal/hotcache"
	"updlrm/internal/trace"
)

// probeResult holds the replay probes: the workload's own inputs run
// through standalone core.Engine, dlrm.HostPool, grace.CoverPlanner and
// hotcache.Cache instances, timed from outside.
type probeResult struct {
	newMs, mineMs         float64
	batch1Us              float64
	embedUsPerSample      float64
	forwardUsPerSample    float64
	coverNsPerBag         float64
	groupReadFrac         float64
	mramBytesPerSample    float64
	updateUsPerRow        float64
	modeledUpdateUs       float64 // per update call
	updateRows            int
	cacheHitFrac          float64
	cacheProbeNs          float64
	batch1Samples         int
	coverBags, cacheProbe int
}

const (
	batch1Probes = 256 // RunBatch calls at batch size 1
	updateProbes = 64  // ApplyDeltas chunks through the standalone engine
)

func runProbes(w workload, in *inputs, spans *spanLog) (*probeResult, error) {
	p := &probeResult{}
	model, err := dlrm.New(in.modelCfg)
	if err != nil {
		return nil, err
	}
	cfg := w.engineConfig()

	t0 := time.Now()
	eng, err := core.New(model, in.profile, cfg)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	spans.add("probe.core_new", t0, t1, -1, -1)
	p.newMs = ms(t1.Sub(t0))

	for t := 0; t < in.profile.NumTables; t++ {
		t0 := time.Now()
		if _, err := grace.Mine(in.profile, t, cfg.Grace); err != nil {
			return nil, err
		}
		t1 := time.Now()
		spans.add("probe.grace_mine", t0, t1, -1, int64(t))
		p.mineMs += ms(t1.Sub(t0))
	}
	p.mineMs /= float64(in.profile.NumTables)

	// Per-batch fixed cost: RunBatch at batch size 1.
	var b1 []float64
	for i := 0; i < batch1Probes; i++ {
		b := trace.MakeBatch(in.pool, i, i+1)
		t0 := time.Now()
		if _, err := eng.RunBatch(b); err != nil {
			return nil, err
		}
		t1 := time.Now()
		spans.add("probe.run_batch1", t0, t1, -1, int64(i))
		b1 = append(b1, float64(t1.Sub(t0))/1e3)
	}
	p.batch1Us = median(b1)
	p.batch1Samples = len(b1)

	// Embedding pipeline and dense path, separated: RunEmbeddings, then
	// HostPool.Forward over the embeddings it produced.
	pool := dlrm.NewHostPool(model, runtime.GOMAXPROCS(0), cfg.Kernel)
	ctr := make([]float32, batchSize)
	var embNs, fwdNs float64
	var groupReads, reads, mram int64
	batches := poolBatches(in)
	for bi, b := range batches {
		t0 := time.Now()
		res, err := eng.RunEmbeddings(b)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		pool.Forward(b, res.Embeddings, ctr)
		t2 := time.Now()
		spans.add("probe.run_embeddings", t0, t1, -1, int64(bi))
		spans.add("probe.forward", t1, t2, -1, int64(bi))
		embNs += float64(t1.Sub(t0))
		fwdNs += float64(t2.Sub(t1))
		groupReads += res.CacheHitReads
		reads += res.CacheHitReads + res.EMTReads
		mram += res.MRAMBytesRead
	}
	p.embedUsPerSample = embNs / 1e3 / poolSize
	p.forwardUsPerSample = fwdNs / 1e3 / poolSize
	if reads > 0 {
		p.groupReadFrac = float64(groupReads) / float64(reads)
	}
	p.mramBytesPerSample = float64(mram) / poolSize

	// Cover planning over the cache-aware plans' assignments.
	var planner grace.CoverPlanner
	t0 = time.Now()
	for t, plan := range eng.Plans() {
		a := plan.Assignment()
		for s := range in.pool.Samples {
			planner.Plan(a, in.pool.Samples[s].Sparse[t])
			p.coverBags++
		}
	}
	t1 = time.Now()
	spans.add("probe.cover_plan", t0, t1, -1, -1)
	p.coverNsPerBag = float64(t1.Sub(t0)) / float64(p.coverBags)

	if err := p.probeCache(w, in, model, spans); err != nil {
		return nil, err
	}
	if err := p.probeUpdates(eng, in, spans); err != nil {
		return nil, err
	}
	return p, nil
}

// probeCache replays the pool's row stream twice through a standalone
// hot-row cache sized like serve-hot-rw's (5% of embedding storage):
// the first pass warms it, the second is measured.
func (p *probeResult) probeCache(w workload, in *inputs, model *dlrm.Model, spans *spanLog) error {
	const cachePct = 5
	c, err := hotcache.New(hotcache.Config{
		CapacityBytes: int64(cachePct / 100.0 * float64(in.tableBytes)),
		Tables:        in.profile.NumTables,
	}, in.modelCfg.EmbDim)
	if err != nil {
		return err
	}
	dst := make([]float32, in.modelCfg.EmbDim)
	var table int
	var row int32
	fill := func(v []float32) uint64 {
		model.Tables[table].ReadCols(int(row), 0, len(v), v)
		return 0
	}
	var hits, probes int
	var t0 time.Time
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			t0 = time.Now()
		}
		for s := range in.pool.Samples {
			for t, bag := range in.pool.Samples[s].Sparse {
				table = t
				for _, r := range bag {
					row = r
					hit, _ := c.LookupOrOffer(t, r, dst, fill)
					if pass == 1 {
						probes++
						if hit {
							hits++
						}
					}
				}
			}
		}
	}
	t1 := time.Now()
	spans.add("probe.hotcache", t0, t1, -1, -1)
	if probes == 0 {
		return fmt.Errorf("hotcache probe: empty pool")
	}
	p.cacheHitFrac = float64(hits) / float64(probes)
	p.cacheProbeNs = float64(t1.Sub(t0)) / float64(probes)
	p.cacheProbe = probes
	return nil
}

// probeUpdates applies self-cancelling update calls through the
// standalone engine's ApplyDeltas.
func (p *probeResult) probeUpdates(eng *core.Engine, in *inputs, spans *spanLog) error {
	ups, err := in.spec.Updates(updateProbes * updateRows)
	if err != nil {
		return err
	}
	var ns, modeled float64
	for c := 0; c < updateProbes; c++ {
		t0 := time.Now()
		res, err := applyCancelling(eng, ups[c*updateRows:(c+1)*updateRows], in.modelCfg.EmbDim)
		if err != nil {
			return err
		}
		t1 := time.Now()
		spans.add("probe.apply_deltas", t0, t1, -1, int64(c))
		ns += float64(t1.Sub(t0))
		modeled += res.Breakdown.UpdateNs
		p.updateRows += res.Rows
	}
	p.updateUsPerRow = ns / 1e3 / float64(p.updateRows)
	p.modeledUpdateUs = modeled / 1e3 / updateProbes
	return nil
}
