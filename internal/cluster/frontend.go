package cluster

// The cluster frontend is a serve.Server whose shards are gather
// shards: admission, QoS classes, SLO shedding, micro-batching, routing,
// the update lane, Stats and the serve_* metrics are the single-node
// server's, and the fabric is only where a micro-batch runs. A gather
// shard routes each batch's sparse lookups to the backends owning the
// touched ranges, gathers their partial embedding reductions over the
// transport and runs the dense head locally. Failures fail over to
// replicas (retry-once), slow primaries can be hedged, and every
// fan-out charges the link model into Breakdown.NetworkNs.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/governor"
	"updlrm/internal/hosthw"
	"updlrm/internal/metrics"
	"updlrm/internal/serve"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
)

// Frontend is the cluster's serving face. It implements serve.Inferencer
// through a serve.Server over GatherWorkers gather shards that share
// one fabric: placement, transport, node health and counters.
type Frontend struct {
	srv    *serve.Server
	cfg    Config
	place  *placement
	tr     Transport
	health *health
	obs    *clusterObs
	gov    []nodeGovernor

	numTables int
	embDim    int
	flops     int64
	host      hosthw.CPUModel

	// updMu guards the update sequencing state (see applyOnce):
	// updApplied is the last job whose fan-out finished, updRunning is
	// closed when the job being fanned out finishes (nil when none is).
	updMu      sync.Mutex
	updApplied uint64
	updRunning chan struct{}

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	shutdown  sync.Once
}

// gatherShard is one serve shard over the fabric: a dense-path pool over
// its own model clone plus recycled batch scratch.
type gatherShard struct {
	f       *Frontend
	pool    *dlrm.HostPool
	embs    tensor.EmbBuf
	written []bool
	res     core.Result
}

// nodeCall is one lookup RPC to one node: the request (covering all the
// node's local tables), the global tables it serves rows for, and the
// targeted range ids (the unit failover re-routes).
type nodeCall struct {
	node   int
	req    *LookupRequest
	tables []int
	ranges []int
}

// callResult is one successful lookup: which node answered, which
// global tables its payload contributes to, and the modeled round trip.
type callResult struct {
	node   int
	tables []int
	resp   *LookupResponse
	rtNs   float64
}

// NewFrontend builds the cluster frontend over an existing transport.
// model, profile, ecfg and cfg must be the same values every backend
// was built from — placement is computed, not negotiated.
func NewFrontend(model *dlrm.Model, profile *trace.Trace, ecfg core.Config, cfg Config, tr Transport) (*Frontend, error) {
	if model == nil || profile == nil {
		return nil, fmt.Errorf("cluster: nil model or profile")
	}
	if tr == nil {
		return nil, fmt.Errorf("cluster: nil transport")
	}
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if profile.NumTables != model.Cfg.NumTables() {
		return nil, fmt.Errorf("cluster: profile tables %d != model %d", profile.NumTables, model.Cfg.NumTables())
	}
	place, err := newPlacement(model.Cfg.RowsPerTable, norm)
	if err != nil {
		return nil, err
	}
	h := newHealth(len(norm.Nodes), norm.FailureThreshold)
	f := &Frontend{
		cfg:       norm,
		place:     place,
		tr:        tr,
		health:    h,
		obs:       newClusterObs(norm.Metrics, norm.Nodes, h),
		gov:       make([]nodeGovernor, len(norm.Nodes)),
		numTables: model.Cfg.NumTables(),
		embDim:    model.Cfg.EmbDim,
		flops:     model.FLOPsPerSample(),
		host:      ecfg.Host,
	}
	// Each gather shard owns a model clone and an even share of the
	// host cores for the dense head — the same kernel tier the backends'
	// single-node equivalent would run, so CTRs stay bit-identical.
	n := norm.GatherWorkers
	if n <= 0 {
		n = serve.DefaultShards
	}
	share := max(runtime.GOMAXPROCS(0)/n, 1)
	shards := make([]serve.Shard, n)
	for i := range shards {
		shards[i] = &gatherShard{
			f:       f,
			pool:    dlrm.NewHostPool(model.Clone(), share, ecfg.Kernel),
			written: make([]bool, f.numTables),
		}
	}
	f.srv, err = serve.NewFromShards(shards, serve.Shape{
		NumTables:    f.numTables,
		RowsPerTable: model.Cfg.RowsPerTable,
		DenseDim:     model.Cfg.DenseDim,
		EmbDim:       f.embDim,
	}, serve.Config{
		MaxBatch:    norm.MaxBatch,
		BatchWindow: norm.BatchWindow,
		QueueDepth:  norm.QueueDepth,
		Metrics:     norm.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if norm.PingInterval > 0 {
		f.stopProbe = make(chan struct{})
		f.probeWG.Add(1)
		go f.prober()
	}
	return f, nil
}

var _ serve.Inferencer = (*Frontend)(nil)

// Predict serves one request through the fan-out/gather path, with the
// single-node server's admission, QoS scheduling and error taxonomy.
func (f *Frontend) Predict(ctx context.Context, req serve.Request) (serve.Response, error) {
	return f.srv.Predict(ctx, req)
}

// ApplyDeltas applies the row deltas to every copy of each touched
// range — owner and replicas — and blocks until all involved nodes have
// absorbed them. Updates ride the server's update lane, so concurrent
// calls reach every copy in the same (admission) order. Any node
// failure fails the call; a full update lane sheds with the update-lane
// overload error.
func (f *Frontend) ApplyDeltas(ctx context.Context, deltas []serve.Delta) error {
	return f.srv.ApplyDeltas(ctx, deltas)
}

// Stats snapshots the frontend's cumulative serving statistics —
// per-class and per-shard included — in the serve.Stats shape.
func (f *Frontend) Stats() serve.Stats { return f.srv.Stats() }

// NumTables returns the number of embedding tables requests must carry.
func (f *Frontend) NumTables() int { return f.numTables }

// RowsPerTable returns a copy of the served table sizes.
func (f *Frontend) RowsPerTable() []int { return f.srv.RowsPerTable() }

// DenseDim returns the dense feature width requests must carry.
func (f *Frontend) DenseDim() int { return f.srv.DenseDim() }

// EmbDim returns the embedding dimension (the width delta vectors must
// carry).
func (f *Frontend) EmbDim() int { return f.embDim }

// DescribePlacement renders the range→node assignment, one line per
// range.
func (f *Frontend) DescribePlacement() string { return f.place.describe() }

// pickTarget returns the range's routing target: the first healthy host
// (owner preferred), excluding `exclude` (pass -1 for none). Returns -1
// when no such host exists.
func (f *Frontend) pickTarget(rid, exclude int) int {
	for _, h := range f.place.hosts[rid] {
		if h != exclude && !f.health.isDown(h) {
			return h
		}
	}
	return -1
}

// buildCall assembles the lookup RPC for one node serving the given
// ranges: all the node's local tables appear (empty CSR where the call
// routes no rows), and rows are translated to the node's local
// coordinates. The request copies what it needs from b.
func (f *Frontend) buildCall(node int, ranges []int, b *trace.Batch, owns func(rid int) bool) nodeCall {
	nv := f.place.views[node]
	req := &LookupRequest{Samples: b.Size, Tables: make([]LookupTable, len(nv.tables))}
	serves := make(map[int]bool, len(ranges))
	var tables []int
	for _, rid := range ranges {
		gt := f.place.ranges[rid].Table
		if !serves[gt] {
			serves[gt] = true
			tables = append(tables, gt)
		}
	}
	sort.Ints(tables)
	for lt, gt := range nv.tables {
		t := &req.Tables[lt]
		t.Table = int32(lt)
		t.Off = make([]int32, b.Size+1)
		if !serves[gt] {
			continue
		}
		for s := 0; s < b.Size; s++ {
			for _, row := range b.SampleIndices(gt, s) {
				rid, idx := f.place.rangeOf(gt, row)
				if owns(rid) {
					t.Idx = append(t.Idx, nv.rangeOff[rid]+(row-f.place.bounds[gt][idx]))
				}
			}
			t.Off[s+1] = int32(len(t.Idx))
		}
	}
	return nodeCall{node: node, req: req, tables: tables, ranges: ranges}
}

type callOut struct {
	resp *LookupResponse
	err  error
}

type lookupOutcome struct {
	results []callResult
	err     error
}

// gather executes the calls concurrently and collects their results;
// any failed call fails the set.
func (f *Frontend) gather(ctx context.Context, calls []nodeCall, b *trace.Batch, depth int) ([]callResult, error) {
	var (
		mu       sync.Mutex
		results  []callResult
		firstErr error
		wg       sync.WaitGroup
	)
	for _, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := f.callLookup(ctx, c, b, depth)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			results = append(results, rs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// callLookup executes one node call with hedging and retry-once
// failover. depth 0 is the primary attempt; depth 1 calls (failover or
// hedge legs) neither hedge nor fail over again, and take a nil batch.
func (f *Frontend) callLookup(ctx context.Context, c nodeCall, b *trace.Batch, depth int) ([]callResult, error) {
	reqBytes := c.req.WireBytes()
	prim := make(chan callOut, 1)
	go func() {
		cctx, cancel := context.WithTimeout(ctx, f.cfg.CallTimeout)
		defer cancel()
		resp, err := f.tr.Lookup(cctx, f.place.nodes[c.node], c.req)
		prim <- callOut{resp: resp, err: err}
	}()
	var timerC <-chan time.Time
	if depth == 0 && f.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(f.cfg.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
	var hedgeC chan lookupOutcome
	for {
		select {
		case out := <-prim:
			if out.err == nil {
				f.health.success(c.node)
				respBytes := out.resp.WireBytes()
				if out.resp.GovernorBand != 0 {
					g := &f.gov[c.node]
					g.band.Store(out.resp.GovernorBand)
					g.pressure.Store(math.Float64bits(out.resp.Pressure))
				}
				f.obs.recordLookup(c.node, reqBytes, respBytes)
				return []callResult{{
					node:   c.node,
					tables: c.tables,
					resp:   out.resp,
					rtNs:   f.cfg.Link.RoundTripNs(reqBytes, respBytes),
				}}, nil
			}
			f.obs.recordLookupError(c.node)
			f.health.failure(c.node)
			if hedgeC != nil {
				// A hedge is already in flight for these ranges; its
				// outcome decides the call.
				ho := <-hedgeC
				return ho.results, ho.err
			}
			if depth > 0 {
				return nil, fmt.Errorf("cluster: node %s: %w", f.place.nodes[c.node], out.err)
			}
			f.obs.recordFailover(c.node)
			calls, err := f.rerouteCalls(c, b)
			if err != nil {
				return nil, err
			}
			return f.gather(ctx, calls, nil, 1)
		case <-timerC:
			timerC = nil
			f.obs.recordHedge(c.node)
			hedgeC = make(chan lookupOutcome, 1)
			// The hedge leg may outlive this batch (a winning primary
			// does not wait for it), so its calls are built from the
			// batch here, before the leg starts.
			calls, err := f.rerouteCalls(c, b)
			go func() {
				if err != nil {
					hedgeC <- lookupOutcome{err: err}
					return
				}
				rs, err := f.gather(ctx, calls, nil, 1)
				hedgeC <- lookupOutcome{results: rs, err: err}
			}()
		case ho := <-hedgeC:
			if ho.err == nil {
				return ho.results, nil
			}
			// Hedge lost; keep waiting for the primary.
			hedgeC = nil
		}
	}
}

// rerouteCalls re-targets a failed (or hedged) call's ranges at their
// replicas — excluding the original node — as depth-1 fallback calls.
func (f *Frontend) rerouteCalls(c nodeCall, b *trace.Batch) ([]nodeCall, error) {
	perNode := make(map[int][]int)
	for _, rid := range c.ranges {
		n := f.pickTarget(rid, c.node)
		if n < 0 {
			r := f.place.ranges[rid]
			return nil, fmt.Errorf("cluster: no live replica for table %d rows [%d,%d) (node %s unavailable)",
				r.Table, r.Lo, r.Hi, f.place.nodes[c.node])
		}
		perNode[n] = append(perNode[n], rid)
	}
	calls := make([]nodeCall, 0, len(perNode))
	for _, n := range sortedKeys(perNode) {
		owned := make(map[int]bool, len(perNode[n]))
		for _, rid := range perNode[n] {
			owned[rid] = true
		}
		calls = append(calls, f.buildCall(n, perNode[n], b, func(rid int) bool { return owned[rid] }))
	}
	return calls, nil
}

// sortedKeys returns a node-keyed map's nodes in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// RunBatch routes, scatters, gathers and finishes one micro-batch: the
// nodes' partial reductions are assembled by placement, and the dense
// head runs on the gathered embeddings.
func (g *gatherShard) RunBatch(b *trace.Batch) (*core.Result, error) {
	f := g.f
	size := b.Size
	start := time.Now()

	// Route: target node per touched range (owner unless degraded, else
	// the first healthy replica; a fully degraded range still tries the
	// owner — success is what restores health).
	tgt := make(map[int]int)
	perNode := make(map[int][]int)
	for gt := 0; gt < f.numTables; gt++ {
		for _, row := range b.Idx[gt] {
			rid, _ := f.place.rangeOf(gt, row)
			if _, ok := tgt[rid]; ok {
				continue
			}
			n := f.pickTarget(rid, -1)
			if n < 0 {
				n = f.place.hosts[rid][0]
			}
			tgt[rid] = n
			perNode[n] = append(perNode[n], rid)
		}
	}
	nodes := sortedKeys(perNode)
	calls := make([]nodeCall, len(nodes))
	for i, n := range nodes {
		calls[i] = f.buildCall(n, perNode[n], b, func(rid int) bool { return tgt[rid] == n })
	}
	results, err := f.gather(context.Background(), calls, b, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: gather: %w", err)
	}

	// Deterministic assembly: results in (node, first table) order; the
	// first contributor to a global table copies, later ones (row-range
	// splits, R > 1 only) accumulate.
	sort.Slice(results, func(i, j int) bool {
		if results[i].node != results[j].node {
			return results[i].node < results[j].node
		}
		ti, tj := -1, -1
		if len(results[i].tables) > 0 {
			ti = results[i].tables[0]
		}
		if len(results[j].tables) > 0 {
			tj = results[j].tables[0]
		}
		return ti < tj
	})

	g.embs.Reset(size, f.numTables, f.embDim)
	for i := range g.written {
		g.written[i] = false
	}
	var bd metrics.Breakdown
	var netNs float64
	var mram int64
	var gatherBytes int64
	for _, r := range results {
		nv := f.place.views[r.node]
		for _, gt := range r.tables {
			lt := nv.tableIdx[gt]
			for s := 0; s < size; s++ {
				src := r.resp.Embs[(lt*size+s)*f.embDim : (lt*size+s+1)*f.embDim]
				dst := g.embs.At(s, gt)
				if !g.written[gt] {
					copy(dst, src)
				} else {
					tensor.Add(src, dst)
				}
			}
			g.written[gt] = true
			gatherBytes += int64(size*f.embDim) * 4
		}
		maxBreakdown(&bd, &r.resp.Breakdown)
		netNs = max(netNs, r.rtNs)
		mram += r.resp.MRAMBytesRead
	}
	// The fabric batch's modeled time: the nodes' embedding stages run
	// in parallel (elementwise max), the slowest round trip is the
	// network term, assembling the gathered bytes streams through the
	// host, and the dense head runs here.
	bd.NetworkNs = netNs
	bd.HostAggNs += f.host.StreamNs(gatherBytes)
	bd.MLPNs = f.host.ComputeNs(f.flops * int64(size))

	if cap(g.res.CTR) < size {
		g.res.CTR = make([]float32, size)
	}
	g.res.CTR = g.res.CTR[:size]
	g.pool.Forward(b, &g.embs, g.res.CTR)
	g.res.Breakdown = bd
	g.res.MRAMBytesRead = mram

	f.obs.recordBatch(float64(time.Since(start).Nanoseconds()), netNs)
	return &g.res, nil
}

// maxBreakdown folds src into dst elementwise-max: the backends run
// their stages in parallel, so the batch is as slow as its slowest
// node.
func maxBreakdown(dst, src *metrics.Breakdown) {
	maxf := func(d *float64, s float64) {
		if s > *d {
			*d = s
		}
	}
	maxf(&dst.CPUToDPUNs, src.CPUToDPUNs)
	maxf(&dst.DPULookupNs, src.DPULookupNs)
	maxf(&dst.DPUToCPUNs, src.DPUToCPUNs)
	maxf(&dst.HostAggNs, src.HostAggNs)
	maxf(&dst.HostCacheNs, src.HostCacheNs)
	maxf(&dst.EmbedCPUNs, src.EmbedCPUNs)
	maxf(&dst.EmbedGPUNs, src.EmbedGPUNs)
	maxf(&dst.PCIeNs, src.PCIeNs)
	maxf(&dst.OverheadNs, src.OverheadNs)
	maxf(&dst.UpdateNs, src.UpdateNs)
}

// ApplyUpdate applies one update-lane job to the fabric. Every gather
// shard receives every job, but the shards share one set of backends,
// so the job is fanned out once (see applyOnce).
func (g *gatherShard) ApplyUpdate(job serve.UpdateJob) (serve.UpdateResult, error) {
	return g.f.applyOnce(job)
}

// applyOnce fans an update job out to every copy of its ranges exactly
// once and in admission order. Each shard meets the jobs in the same
// order and, before moving past a job, waits until its fan-out has
// finished; so when a shard reaches job Seq, job Seq-1 has already been
// applied everywhere. The first shard to reach a job fans it out and
// reports its result; the others wait for it and report nothing, so the
// server's per-job totals count the fabric once.
func (f *Frontend) applyOnce(job serve.UpdateJob) (serve.UpdateResult, error) {
	f.updMu.Lock()
	if job.Seq <= f.updApplied {
		f.updMu.Unlock()
		return serve.UpdateResult{}, nil
	}
	if running := f.updRunning; running != nil {
		// The running fan-out is this job: the next one cannot start
		// before some shard is past this one.
		f.updMu.Unlock()
		<-running
		return serve.UpdateResult{}, nil
	}
	running := make(chan struct{})
	f.updRunning = running
	f.updMu.Unlock()

	res, err := f.fanOutUpdate(job.Deltas)

	f.updMu.Lock()
	f.updApplied = job.Seq
	f.updRunning = nil
	f.updMu.Unlock()
	close(running)
	return res, err
}

// fanOutUpdate sends each delta to every host of its range — owner and
// replicas — one UpdateRequest per node, and waits for all of them.
func (f *Frontend) fanOutUpdate(deltas []serve.Delta) (serve.UpdateResult, error) {
	// Group per node, per local table, across ALL hosts of each delta's
	// range.
	perNode := make(map[int]map[int]*UpdateTable)
	for _, d := range deltas {
		rid, idx := f.place.rangeOf(d.Table, d.Row)
		for _, h := range f.place.hosts[rid] {
			nv := f.place.views[h]
			lt := nv.tableIdx[d.Table]
			lrow := nv.rangeOff[rid] + (d.Row - f.place.bounds[d.Table][idx])
			tabs := perNode[h]
			if tabs == nil {
				tabs = make(map[int]*UpdateTable)
				perNode[h] = tabs
			}
			ut := tabs[lt]
			if ut == nil {
				ut = &UpdateTable{Table: int32(lt)}
				tabs[lt] = ut
			}
			ut.Rows = append(ut.Rows, lrow)
			ut.Deltas = append(ut.Deltas, d.Vec...)
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
		out      serve.UpdateResult
		wg       sync.WaitGroup
	)
	for _, node := range sortedKeys(perNode) {
		tabs := perNode[node]
		req := &UpdateRequest{Tables: make([]UpdateTable, 0, len(tabs))}
		for _, lt := range sortedKeys(tabs) {
			req.Tables = append(req.Tables, *tabs[lt])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.CallTimeout)
			defer cancel()
			reqBytes := req.WireBytes()
			resp, err := f.tr.Update(ctx, f.place.nodes[node], req)
			if err != nil {
				f.obs.recordUpdateError(node)
				f.health.failure(node)
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: update node %s: %w", f.place.nodes[node], err)
				}
				mu.Unlock()
				return
			}
			f.health.success(node)
			f.obs.recordUpdate(node, reqBytes, resp.WireBytes())
			mu.Lock()
			out.Invalidations += resp.Invalidations
			out.ModeledNs = max(out.ModeledNs, resp.ModeledNs) // nodes apply in parallel
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, firstErr
}

// SetNodeDown marks the named node degraded, routing its ranges to
// replicas — the manual leave.
func (f *Frontend) SetNodeDown(node string) error { return f.setNode(node, true) }

// SetNodeUp restores the named node — the manual rejoin.
func (f *Frontend) SetNodeUp(node string) error { return f.setNode(node, false) }

func (f *Frontend) setNode(node string, down bool) error {
	for i, n := range f.place.nodes {
		if n == node {
			f.health.set(i, down)
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown node %q", node)
}

// prober pings degraded nodes every PingInterval and restores them on
// success — the automatic rejoin path.
func (f *Frontend) prober() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stopProbe:
			return
		case <-t.C:
			for n := range f.place.nodes {
				if !f.health.isDown(n) {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), f.cfg.CallTimeout)
				err := f.tr.Ping(ctx, f.place.nodes[n])
				cancel()
				if err == nil {
					f.health.success(n)
				}
			}
		}
	}
}

// ClusterStats snapshots the fabric-level supplement: per-node RPC
// traffic, health, and the modeled interconnect total.
func (f *Frontend) ClusterStats() ClusterStats {
	o := f.obs
	cs := ClusterStats{
		Nodes:         make([]NodeStats, len(f.place.nodes)),
		NetworkNs:     o.networkNs.Sum(),
		GatherBatches: int64(o.batches.Value()),
	}
	for i, name := range f.place.nodes {
		cs.Nodes[i] = NodeStats{
			Node:      name,
			Lookups:   int64(o.lookups[i].Value()),
			Updates:   int64(o.updates[i].Value()),
			Errors:    int64(o.lookupErr[i].Value() + o.updateErr[i].Value()),
			Hedges:    int64(o.hedges[i].Value()),
			Failovers: int64(o.failovers[i].Value()),
			BytesSent: int64(o.bytesOut[i].Value()),
			BytesRecv: int64(o.bytesIn[i].Value()),
			Degraded:  f.health.isDown(i),
		}
		g := &f.gov[i]
		if band := g.band.Load(); band != 0 {
			cs.Nodes[i].GovernorBand = governor.Band(band - 1).String()
			cs.Nodes[i].Pressure = math.Float64frombits(g.pressure.Load())
		}
	}
	return cs
}

// Close stops accepting requests, drains the queues and the update lane
// (every admitted request and update still completes), stops the
// health prober and closes the transport. It is idempotent.
func (f *Frontend) Close() {
	f.srv.Close()
	f.shutdown.Do(func() {
		if f.stopProbe != nil {
			close(f.stopProbe)
			f.probeWG.Wait()
		}
		f.tr.Close()
	})
}
