package cluster

import (
	"fmt"
	"sync"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/emt"
	"updlrm/internal/governor"
	"updlrm/internal/hotcache"
	"updlrm/internal/serve"
	"updlrm/internal/trace"
)

// Backend is one cluster node: a core.Engine over only the table
// slices the node's hosted ranges cover. It answers Lookup RPCs with
// partial embedding reductions (RunEmbeddings — the dense path never
// runs here) and Update RPCs with engine row deltas. The engine's
// scratch arena is not concurrency-safe, so a mutex serializes RPC
// execution; transports may deliver calls from any goroutine.
type Backend struct {
	node  string
	place *placement
	view  *nodeView
	dim   int

	mu  sync.Mutex
	eng *core.Engine // nil when the node hosts no ranges
	// scratch batch rebuilt per Lookup under mu (allocation-free steady
	// state: the CSR slices alias the request's).
	batch trace.Batch

	// gov, when the cluster config sets a memory budget, watches this
	// node's cache occupancy and arena footprint and degrades resources
	// locally: shrink the cache at High, freeze arena growth at
	// Critical. Backends never shed admission — that is the class-aware
	// frontend/serve tier's job.
	gov   *governor.Governor
	cache *hotcache.Cache
}

// sliceTable is an emt.Table view over non-contiguous row spans of a
// base table: local rows are the concatenation of the hosted ranges'
// global rows. Used when RangesPerTable > 1 leaves a node with partial
// tables; whole-table hosting uses the base table directly (and stays
// bit-identical trivially).
type sliceTable struct {
	base emt.Table
	// spans are (globalLo, length) pairs in local order.
	lo   []int32
	len  []int32
	rows int
}

func (v *sliceTable) Rows() int { return v.rows }
func (v *sliceTable) Dim() int  { return v.base.Dim() }

func (v *sliceTable) ReadCols(row, col0, cols int, dst []float32) {
	r := int32(row)
	for i := range v.lo {
		if r < v.len[i] {
			v.base.ReadCols(int(v.lo[i]+r), col0, cols, dst)
			return
		}
		r -= v.len[i]
	}
	panic(fmt.Sprintf("cluster: slice row %d out of %d", row, v.rows))
}

// NewBackend builds the backend for one named node of the deployment.
// All parties must pass the same model, profile, engine config and
// cluster config: the node derives its hosted ranges from the shared
// placement and builds a sliced model (table views over the global
// tables — values identical, storage shared), a sliced profile (the
// same samples, restricted to hosted rows), and an engine whose
// partition plans are pinned to the single-node plan inputs
// (PlanTables/PlanAvgReduction, per-table DPU share preserved) so
// table-aligned deployments stay bit-identical to a single-node
// server.
func NewBackend(model *dlrm.Model, profile *trace.Trace, ecfg core.Config, cfg Config, node string) (*Backend, error) {
	if model == nil || profile == nil {
		return nil, fmt.Errorf("cluster: nil model or profile")
	}
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	globalTables := model.Cfg.NumTables()
	if profile.NumTables != globalTables {
		return nil, fmt.Errorf("cluster: profile tables %d != model %d", profile.NumTables, globalTables)
	}
	if ecfg.TotalDPUs <= 0 || ecfg.TotalDPUs%globalTables != 0 {
		return nil, fmt.Errorf("cluster: %d DPUs not divisible across %d tables", ecfg.TotalDPUs, globalTables)
	}
	place, err := newPlacement(model.Cfg.RowsPerTable, norm)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, n := range norm.Nodes {
		if n == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("cluster: node %q not in config", node)
	}
	nv := place.views[idx]
	b := &Backend{node: node, place: place, view: nv, dim: model.Cfg.EmbDim}
	if len(nv.tables) == 0 {
		// A node the ring assigned nothing to: valid, just idle.
		return b, nil
	}

	// Local model: the global config with hosted-table row counts, MLP
	// weights rebuilt (unused — backends never run the dense path), and
	// the tables replaced by views over the *global* tables so values
	// match the single-node deployment exactly.
	lcfg := model.Cfg
	lcfg.RowsPerTable = append([]int(nil), nv.localRows...)
	lm, err := dlrm.New(lcfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: local model: %w", err)
	}
	for lt, gt := range nv.tables {
		lm.Tables[lt] = b.tableView(model.Tables[gt], gt)
	}

	// Local profile: same samples, hosted tables only, rows translated
	// to local coordinates (rows outside the hosted ranges drop out —
	// they are some other node's traffic).
	lp := &trace.Trace{
		NumTables:    len(nv.tables),
		RowsPerTable: append([]int(nil), nv.localRows...),
		DenseDim:     profile.DenseDim,
		Samples:      make([]trace.Sample, len(profile.Samples)),
	}
	for si, s := range profile.Samples {
		sp := make([][]int32, len(nv.tables))
		for lt, gt := range nv.tables {
			rows := make([]int32, 0, len(s.Sparse[gt]))
			for _, row := range s.Sparse[gt] {
				if _, lrow, ok := place.localRow(idx, gt, row); ok {
					rows = append(rows, lrow)
				}
			}
			sp[lt] = rows
		}
		lp.Samples[si] = trace.Sample{Dense: s.Dense, Sparse: sp}
	}

	// Engine config: per-table DPU share preserved, plan inputs pinned
	// to the deployment-wide values, dense pool minimal (RunEmbeddings
	// never forwards), per-backend hot cache via the shared helper.
	bcfg := ecfg
	bcfg.TotalDPUs = ecfg.TotalDPUs / globalTables * len(nv.tables)
	bcfg.PlanTables = globalTables
	bcfg.PlanAvgReduction = profile.AvgReduction()
	bcfg.HostWorkers = 1
	cache, err := serve.NewHotCacheFor(norm.HotCache, len(nv.tables), model.Cfg.EmbDim)
	if err != nil {
		return nil, err
	}
	bcfg.HotCache = cache
	eng, err := core.New(lm, lp, bcfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: engine: %w", err)
	}
	b.eng = eng
	b.cache = cache
	if norm.Governor.BudgetBytes > 0 {
		if err := b.initGovernor(norm.Governor); err != nil {
			return nil, err
		}
		b.gov.Start()
	}
	return b, nil
}

// initGovernor wires the node-local degradation ladder: shrink the hot
// cache at the High watermark, freeze arena growth at Critical, release
// both in reverse as pressure recedes.
func (b *Backend) initGovernor(cfg governor.Config) error {
	gov, err := governor.New(cfg)
	if err != nil {
		return err
	}
	b.gov = gov
	gov.Track("hotcache", b.cache.SizeBytes)
	gov.Track("arena", b.eng.ArenaBytes)
	shrink, restore := serve.CacheShrinkStep(gov, b.cache)
	gov.AddStep("shrink-cache", gov.HighFrac(), shrink, restore)
	gov.AddStep("cap-arena", gov.CriticalFrac(),
		func(float64) { b.eng.SetArenaCap(max(b.eng.ArenaBytes(), 1)) },
		func() { b.eng.SetArenaCap(0) })
	return nil
}

// Close stops the backend's governor (if any). Idempotent; the engine
// itself holds no background resources.
func (b *Backend) Close() {
	if b.gov != nil {
		b.gov.Close()
	}
}

// tableView returns the emt view of the node's hosted slice of global
// table gt: the base table itself when the node hosts all of it (the
// table-aligned fast path), a span view otherwise.
func (b *Backend) tableView(base emt.Table, gt int) emt.Table {
	nv, p := b.view, b.place
	var lo, length []int32
	var total int32
	for i := 0; i < p.R; i++ {
		rid := gt*p.R + i
		if nv.rangeOff[rid] < 0 {
			continue
		}
		r := p.ranges[rid]
		lo = append(lo, r.Lo)
		length = append(length, r.Hi-r.Lo)
		total += r.Hi - r.Lo
	}
	if len(lo) == 1 && lo[0] == 0 && int(total) == base.Rows() {
		return base
	}
	return &sliceTable{base: base, lo: lo, len: length, rows: int(total)}
}

// Node returns the backend's node name.
func (b *Backend) Node() string { return b.node }

// NumLocalTables returns how many table slices the node hosts.
func (b *Backend) NumLocalTables() int { return len(b.view.tables) }

// Engine exposes the backend's engine (nil when the node hosts
// nothing) for instrumentation.
func (b *Backend) Engine() *core.Engine { return b.eng }

// Lookup runs the node's share of one micro-batch through the
// embedding pipeline and returns the partial reductions. Safe for
// concurrent callers (serialized internally).
func (b *Backend) Lookup(req *LookupRequest) (*LookupResponse, error) {
	if req == nil || req.Samples <= 0 {
		return nil, fmt.Errorf("%w: empty lookup", serve.ErrBadRequest)
	}
	nLocal := len(b.view.tables)
	if len(req.Tables) != nLocal {
		return nil, fmt.Errorf("%w: %d tables, node hosts %d", serve.ErrBadRequest, len(req.Tables), nLocal)
	}
	resp := &LookupResponse{
		Samples: req.Samples,
		Dim:     b.dim,
		Tables:  make([]int32, nLocal),
		Embs:    make([]float32, nLocal*req.Samples*b.dim),
	}
	if nLocal == 0 {
		return resp, nil
	}
	for lt := range req.Tables {
		t := &req.Tables[lt]
		if int(t.Table) != lt {
			return nil, fmt.Errorf("%w: table %d at position %d", serve.ErrBadRequest, t.Table, lt)
		}
		if len(t.Off) != req.Samples+1 {
			return nil, fmt.Errorf("%w: table %d offsets %d, want %d", serve.ErrBadRequest, lt, len(t.Off), req.Samples+1)
		}
		rows := b.view.localRows[lt]
		for _, r := range t.Idx {
			if r < 0 || int(r) >= rows {
				return nil, fmt.Errorf("%w: table %d row %d out of [0,%d)", serve.ErrBadRequest, lt, r, rows)
			}
		}
		resp.Tables[lt] = int32(lt)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	bt := &b.batch
	bt.Size = req.Samples
	bt.Dense = nil
	if cap(bt.Idx) < nLocal {
		bt.Idx = make([][]int32, nLocal)
		bt.Off = make([][]int32, nLocal)
	}
	bt.Idx = bt.Idx[:nLocal]
	bt.Off = bt.Off[:nLocal]
	for lt := range req.Tables {
		bt.Idx[lt] = req.Tables[lt].Idx
		bt.Off[lt] = req.Tables[lt].Off
	}
	res, err := b.eng.RunEmbeddings(bt)
	if err != nil {
		return nil, err
	}
	for lt := 0; lt < nLocal; lt++ {
		for s := 0; s < req.Samples; s++ {
			copy(resp.Embs[(lt*req.Samples+s)*b.dim:], res.Embeddings.At(s, lt))
		}
	}
	resp.Breakdown = res.Breakdown
	resp.MRAMBytesRead = res.MRAMBytesRead
	resp.EMTReads = res.EMTReads
	resp.CacheHitReads = res.CacheHitReads
	resp.HostCacheHits = res.HostCacheHits
	resp.HostCacheMisses = res.HostCacheMisses
	if b.gov != nil {
		resp.GovernorBand = uint32(b.gov.Band()) + 1
		if budget := b.gov.BudgetBytes(); budget > 0 {
			resp.Pressure = float64(b.gov.TrackedBytes()) / float64(budget)
		}
	}
	return resp, nil
}

// Update applies row deltas to the node's slices. Safe for concurrent
// callers (serialized internally, and never interleaved with a Lookup's
// engine run).
func (b *Backend) Update(req *UpdateRequest) (*UpdateResponse, error) {
	if req == nil || len(req.Tables) == 0 {
		return nil, fmt.Errorf("%w: empty update", serve.ErrBadRequest)
	}
	for i := range req.Tables {
		t := &req.Tables[i]
		if int(t.Table) < 0 || int(t.Table) >= len(b.view.tables) {
			return nil, fmt.Errorf("%w: table %d out of [0,%d)", serve.ErrBadRequest, t.Table, len(b.view.tables))
		}
		if len(t.Deltas) != len(t.Rows)*b.dim {
			return nil, fmt.Errorf("%w: table %d deltas %d != %d rows x dim %d",
				serve.ErrBadRequest, t.Table, len(t.Deltas), len(t.Rows), b.dim)
		}
		rows := b.view.localRows[t.Table]
		for _, r := range t.Rows {
			if r < 0 || int(r) >= rows {
				return nil, fmt.Errorf("%w: table %d row %d out of [0,%d)", serve.ErrBadRequest, t.Table, r, rows)
			}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	resp := &UpdateResponse{}
	for i := range req.Tables {
		t := &req.Tables[i]
		res, err := b.eng.ApplyDeltas(int(t.Table), t.Rows, t.Deltas)
		if err != nil {
			return nil, err
		}
		resp.Rows += int64(res.Rows)
		resp.Invalidations += res.Invalidations
		resp.ModeledNs += res.Breakdown.UpdateNs
		resp.MRAMBytesWritten += res.MRAMBytesWritten
	}
	return resp, nil
}
