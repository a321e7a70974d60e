// Package updlrm is a library reproduction of "UpDLRM: Accelerating
// Personalized Recommendation using Real-World PIM Architecture"
// (DAC 2024): DLRM inference whose embedding layers are offloaded to a
// (simulated) UPMEM processing-in-memory system, with the paper's three
// embedding-table partitioning strategies — uniform tile-shape
// optimization, frequency-aware non-uniform bin-packing, and cache-aware
// partitioning over GRACE-style co-occurrence cache lists.
//
// The package is a facade over the internal implementation:
//
//   - Workloads: WorkloadSpec / Preset / Balanced generate deterministic
//     synthetic traces with the paper's Table 1 characteristics.
//   - Models: ModelConfig / NewModel build the DLRM (bottom MLP,
//     embedding tables, feature interaction, top MLP).
//   - Engines: EngineConfig / NewEngine build UpDLRM itself; the three
//     baselines of Table 2 are available through NewCPUBaseline,
//     NewHybridBaseline, and NewFAEBaseline.
//   - Results carry CTR outputs plus a per-stage latency Breakdown
//     (CPU→DPU, DPU lookup, DPU→CPU, host aggregation, MLP).
//
// A minimal end-to-end run:
//
//	spec, _ := updlrm.Preset("read")
//	tr, _ := updlrm.Scaled(spec, 0.01, 1.0).Generate(1024)
//	model, _ := updlrm.NewModel(updlrm.DefaultModelConfig(tr.RowsPerTable))
//	eng, _ := updlrm.NewEngine(model, tr, updlrm.DefaultEngineConfig())
//	ctrs, breakdown, _ := eng.RunTrace(tr, 64)
//
// Everything is deterministic given the seeds in the specs and configs.
package updlrm

import (
	"net"
	"net/http"

	"updlrm/internal/baseline"
	"updlrm/internal/cluster"
	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/governor"
	"updlrm/internal/grace"
	"updlrm/internal/hosthw"
	"updlrm/internal/hotcache"
	"updlrm/internal/metrics"
	"updlrm/internal/obs"
	"updlrm/internal/partition"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
	"updlrm/internal/upmem"
)

// Kernel selects the host dense-compute tier on EngineConfig.Kernel
// (and per shard via ServerConfig.ShardConfigs).
type Kernel = tensor.Kernel

// Kernel tiers.
const (
	// KernelExact (the default) is bit-identical to the per-sample
	// reference path and reproducible across architectures.
	KernelExact = tensor.KernelExact
	// KernelFast runs the AVX2/FMA 8-lane kernels (pure-Go fused
	// fallback off amd64): faster, identical up to float32 summation
	// order — compare CTRs under a tolerance.
	KernelFast = tensor.KernelFast
)

// ParseKernel maps the config spelling ("exact" — or empty — and
// "fast") to a kernel tier.
func ParseKernel(s string) (Kernel, error) { return tensor.ParseKernel(s) }

// FastKernelVectorized reports whether KernelFast is running on the
// AVX2/FMA assembly kernels rather than the portable fallback.
func FastKernelVectorized() bool { return tensor.FastVectorized() }

// Workload generation.
type (
	// WorkloadSpec describes a synthetic DLRM workload (items, tables,
	// reduction degree, popularity skew, co-occurrence motifs).
	WorkloadSpec = synth.Spec
	// Trace is a stream of inference requests.
	Trace = trace.Trace
	// Sample is one inference request.
	Sample = trace.Sample
	// Batch is a group of samples in the engines' CSR layout.
	Batch = trace.Batch
)

// Model building.
type (
	// ModelConfig describes a DLRM instance.
	ModelConfig = dlrm.Config
	// Model is a materialized DLRM.
	Model = dlrm.Model
)

// UpDLRM engine.
type (
	// EngineConfig assembles an UpDLRM engine.
	EngineConfig = core.Config
	// Engine is the DPU-offloaded inference engine.
	Engine = core.Engine
	// EngineResult is one batch's outcome.
	EngineResult = core.Result
	// HeteroEngine is the §6 future-work DPU-GPU system.
	HeteroEngine = core.HeteroEngine
	// PipelineResult summarizes a batch-pipelined run.
	PipelineResult = core.PipelineResult
	// PartitionMethod selects among the paper's §3 strategies.
	PartitionMethod = partition.Method
	// Plan is a table's partitioning outcome.
	Plan = partition.Plan
	// HWConfig is the DPU hardware model configuration.
	HWConfig = upmem.HWConfig
	// CacheMinerConfig tunes the GRACE-style cache-list miner.
	CacheMinerConfig = grace.Config
)

// Baselines.
type (
	// BaselineSystem is any timed DLRM implementation.
	BaselineSystem = baseline.System
	// BaselineResult is one batch's outcome from a baseline.
	BaselineResult = baseline.Result
	// CPUModel, GPUModel and PCIeModel parameterize the host hardware.
	CPUModel  = hosthw.CPUModel
	GPUModel  = hosthw.GPUModel
	PCIeModel = hosthw.PCIeModel
	// HybridConfig and FAEConfig tune the hybrid baselines.
	HybridConfig = baseline.HybridConfig
	FAEConfig    = baseline.FAEConfig
)

// Breakdown attributes modeled latency to pipeline stages.
type Breakdown = metrics.Breakdown

// Serving runtime.
type (
	// Server shards engine replicas behind the QoS request scheduler
	// (see NewServer).
	Server = serve.Server
	// ServerConfig tunes shard count, batching window, queue depth,
	// per-class QoS scheduling (Classes), per-shard engine heterogeneity
	// (ShardConfigs) and cross-batch pipelining (Pipeline/ShardPipeline:
	// shard workers overlap queued micro-batches on the LINK/DPUS/HOST
	// schedule).
	ServerConfig = serve.Config
	// ServeRequest is one online inference request, tagged with a
	// RequestClass (untagged requests are NormalClass).
	ServeRequest = serve.Request
	// ServeResponse is the served outcome, with per-request modeled
	// latency (queueing + batch breakdown), the serving shard, and the
	// request's class.
	ServeResponse = serve.Response
	// ServerStats summarizes served traffic (p50/p95/p99 for end-to-end
	// and queueing delay — overall and per QoS class — throughput,
	// batch coalescing, per-class shed counts, per-shard routing
	// profiles, DPU memory traffic, hot-row cache effectiveness, and
	// the modeled pipeline speedup when shard workers overlap batches).
	ServerStats = serve.Stats
	// RequestClass is a request's QoS class: CriticalClass requests are
	// scheduled first within every round, BatchClass yields but is
	// never starved, NormalClass (the zero value) sits between.
	RequestClass = serve.Class
	// ClassConfig overrides one class's scheduling (DRR weight,
	// micro-batch cap, batching window, queue depth) on
	// ServerConfig.Classes.
	ClassConfig = serve.ClassConfig
	// ClassStats is one QoS class's slice of ServerStats.
	ClassStats = serve.ClassStats
	// ShardStats is one shard's routed traffic and the router's current
	// cost profile for it.
	ShardStats = serve.ShardStats
	// HotCacheConfig sizes the serving-tier hot-row embedding cache
	// (TinyLFU admission over the live stream); set it on ServerConfig.
	// A zero CapacityBytes disables the cache, leaving serving
	// bit-identical to a cache-less deployment. NewServer partitions
	// the capacity per embedding table by default (see Config.Tables).
	HotCacheConfig = hotcache.Config
	// HotCache is a shared hot-row embedding cache instance; build one
	// with NewHotCache to share across engines outside NewServer.
	HotCache = hotcache.Cache
	// HotCacheStats snapshots a cache's effectiveness counters.
	HotCacheStats = hotcache.Stats
	// GovernorConfig shapes the pressure governor (ServerConfig.Governor
	// / ClusterConfig.Governor): a memory budget with High/Critical
	// watermarks. Under pressure the server degrades gracefully —
	// shrink the hot cache and cap arena growth at High, shed Batch-
	// then Normal-class admission approaching and past the budget —
	// and recovers in reverse order as pressure recedes. A zero
	// BudgetBytes disables governing.
	GovernorConfig = governor.Config
	// GovernorBand is the governor's pressure band: GovernorNormal,
	// GovernorHigh or GovernorCritical.
	GovernorBand = governor.Band
	// Delta is one additive embedding-row update for Server.ApplyDeltas:
	// Vec (len EmbDim) is added into (Table, Row) on every shard
	// replica, coherently with in-flight batches.
	Delta = serve.Delta
	// RowUpdate identifies one row of a synthetic online-update stream
	// (see WorkloadSpec.Updates).
	RowUpdate = synth.RowUpdate
	// UpdateResult is one engine-level ApplyDeltas outcome: rows
	// written, hot-cache invalidations, and the modeled MRAM write
	// traffic and time.
	UpdateResult = core.UpdateResult
)

// QoS classes for ServeRequest.Class.
const (
	// NormalClass is the default class for untagged requests.
	NormalClass = serve.Normal
	// CriticalClass is latency-sensitive ranking traffic: served first
	// in every scheduler round, opportunistic micro-batching.
	CriticalClass = serve.Critical
	// BatchClass is best-effort prefetch/backfill traffic: it yields to
	// the other classes but keeps a guaranteed share of every round.
	BatchClass = serve.Batch
	// NumRequestClasses is the number of QoS classes (indexes
	// ServerConfig.Classes and ServerStats.PerClass).
	NumRequestClasses = serve.NumClasses
)

// Pressure-governor bands for GovernorBand (ServerStats.GovernorBand
// reports the band as a string).
const (
	// GovernorNormal: tracked bytes below the High watermark; no
	// remediation engaged.
	GovernorNormal = governor.BandNormal
	// GovernorHigh: resource remediation (cache shrink, arena caps) is
	// active; no admission shedding.
	GovernorHigh = governor.BandHigh
	// GovernorCritical: lower-class admission shedding is active;
	// Critical-class traffic is the last to feel pressure.
	GovernorCritical = governor.BandCritical
)

// Observability: a dependency-free metrics registry (Prometheus text
// exposition) plus a sampled per-request stage tracer. Set a registry
// and tracer on ServerConfig.Metrics / ServerConfig.Tracer to
// instrument a server, then expose them over HTTP with MetricsHandler
// or diff phases programmatically with MetricsRegistry.Snapshot.
type (
	// MetricsRegistry collects counters, gauges and histograms and
	// renders them in Prometheus text exposition format. Each Server
	// needs its own registry (instrument names are registered once).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time flat view of a registry,
	// diffable across experiment phases with Sub.
	MetricsSnapshot = obs.Snapshot
	// Tracer buffers sampled per-request stage-span traces.
	Tracer = obs.Tracer
	// TraceRecord is one sampled request's stage attribution.
	TraceRecord = obs.TraceRecord
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer builds a tracer sampling 1 in sampleEvery requests into a
// ring of the most recent capacity records.
func NewTracer(sampleEvery, capacity int) *Tracer { return obs.NewTracer(sampleEvery, capacity) }

// MetricsHandler exposes a registry at /metrics (Prometheus text
// format) and a tracer's buffered records at /debug/traces (JSON);
// either argument may be nil.
func MetricsHandler(reg *MetricsRegistry, tracer *Tracer) http.Handler {
	return obs.Handler(reg, tracer)
}

// Inferencer is the serving contract every deployment shape satisfies:
// the single-process *Server (NewServer) and the table-partitioned
// cluster frontend (NewCluster / DialCluster). Drivers — load
// generators, HTTP transports, examples — should accept an Inferencer
// so the same code exercises both.
//
// Error taxonomy, common to all implementations:
//
//   - ErrBadServeRequest wraps request-shape validation failures —
//     caller bugs, never retryable.
//   - An *OverloadError (errors.Is(err, ErrServerOverloaded) for the
//     predict lane, errors.Is(err, ErrUpdateOverloaded) for the update
//     lane) means admission control shed the call at the door —
//     retryable after backoff, counted as shed traffic, not failure.
//   - ErrServerClosed means the deployment was shut down.
//   - Context errors pass through unwrapped when the caller's ctx ends
//     first.
type Inferencer = serve.Inferencer

// OverloadError is the typed overload signal both admission lanes shed
// with; its Lane field reports which lane (PredictLane or UpdateLane)
// rejected the call. It satisfies errors.Is against the historical
// ErrServerOverloaded / ErrUpdateOverloaded sentinels.
type OverloadError = serve.OverloadError

// OverloadLane identifies which admission lane an OverloadError was
// shed from.
type OverloadLane = serve.Lane

// Overload lanes.
const (
	// PredictLane is the read path's per-class request queue.
	PredictLane = serve.LanePredict
	// UpdateLane is the embedding-update lane's queue.
	UpdateLane = serve.LaneUpdate
)

// Cluster serving: the table-partitioned multi-node fabric. Backend
// nodes each own a consistent-hashed set of (table, row-range) keys and
// run an engine over only their slices; the frontend fans each
// micro-batch's lookups out to the owning nodes, gathers the partial
// reductions over the transport, and runs the dense head locally. The
// interconnect is charged into Breakdown.NetworkNs (bytes over
// ClusterConfig.Link).
type (
	// ClusterConfig shapes a cluster deployment; the same value must be
	// given to the frontend and every backend (placement is computed,
	// not negotiated).
	ClusterConfig = cluster.Config
	// ClusterFrontend is the cluster's serving face — an Inferencer.
	ClusterFrontend = cluster.Frontend
	// ClusterBackend is one node's engine over its table slices.
	ClusterBackend = cluster.Backend
	// ClusterBackendServer serves one backend's RPCs over TCP.
	ClusterBackendServer = cluster.BackendServer
	// ClusterTransport moves cluster RPCs to named backend nodes.
	ClusterTransport = cluster.Transport
	// ClusterNodeStats is one backend's cumulative fabric traffic.
	ClusterNodeStats = cluster.NodeStats
	// ClusterServingStats supplements ServerStats with per-node RPC
	// traffic and the modeled interconnect total.
	ClusterServingStats = cluster.ClusterStats
	// LinkModel prices the inter-node fabric (per-message latency plus
	// bytes over bandwidth) for Breakdown.NetworkNs.
	LinkModel = cluster.LinkModel
)

// DefaultLinkModel returns the default interconnect model (25 GbE-class
// latency and bandwidth).
func DefaultLinkModel() LinkModel { return cluster.DefaultLink() }

// NewCluster builds a complete in-process cluster — one backend per
// configured node behind a zero-real-latency in-process transport, and
// a frontend over it. With table-aligned ownership
// (ClusterConfig.RangesPerTable == 1, the default) and no hot cache,
// predictions are bit-identical to a single-node NewServer over the
// same model. Close the frontend when done.
func NewCluster(model *Model, profile *Trace, ecfg EngineConfig, cfg ClusterConfig) (*ClusterFrontend, []*ClusterBackend, error) {
	return cluster.New(model, profile, ecfg, cfg)
}

// NewClusterBackend builds one named node's backend for a TCP
// deployment; serve it with ServeClusterBackend. All parties must pass
// the same model, profile, engine config and cluster config.
func NewClusterBackend(model *Model, profile *Trace, ecfg EngineConfig, cfg ClusterConfig, node string) (*ClusterBackend, error) {
	return cluster.NewBackend(model, profile, ecfg, cfg, node)
}

// ServeClusterBackend serves a backend's RPCs on the listener (the
// listener's address is the node name frontends dial).
func ServeClusterBackend(ln net.Listener, b *ClusterBackend) *ClusterBackendServer {
	return cluster.ServeBackend(ln, b)
}

// DialCluster builds a cluster frontend over the length-prefixed TCP
// transport, dialing the configured node names as host:port addresses —
// the real-deployment counterpart of NewCluster. Close the frontend
// when done (it closes the transport).
func DialCluster(model *Model, profile *Trace, ecfg EngineConfig, cfg ClusterConfig) (*ClusterFrontend, error) {
	return cluster.NewFrontend(model, profile, ecfg, cfg, cluster.NewTCPTransport(cfg.CallTimeout))
}

// ErrServerClosed is returned by Server.Predict after Close.
var ErrServerClosed = serve.ErrClosed

// ErrBadServeRequest wraps request-shape validation failures from
// Server.Predict (wrong dense width, wrong table count, out-of-range
// index), letting transports map them to client-error statuses.
var ErrBadServeRequest = serve.ErrBadRequest

// ErrServerOverloaded is returned by Server.Predict when the request
// queue is full: the server sheds instead of queueing unboundedly.
// Transports should map it to a retryable status (HTTP 503).
var ErrServerOverloaded = serve.ErrOverloaded

// ErrUpdateOverloaded is returned by Server.ApplyDeltas when the update
// lane's admission queue is full; retryable like ErrServerOverloaded.
var ErrUpdateOverloaded = serve.ErrUpdateOverloaded

// Partitioning strategies (the paper's §3.1-§3.3).
const (
	// Uniform is §3.1: equal contiguous row blocks with an optimized
	// tile shape.
	Uniform = partition.MethodUniform
	// NonUniform is §3.2: greedy frequency bin-packing.
	NonUniform = partition.MethodNonUniform
	// CacheAware is §3.3 / Algorithm 1.
	CacheAware = partition.MethodCacheAware
)

// Preset returns a named workload spec; see PresetNames for the
// catalogue (the six Table 1 datasets plus the Figure 5 skew studies).
func Preset(name string) (WorkloadSpec, error) { return synth.Preset(name) }

// PresetNames lists every available workload preset.
func PresetNames() []string { return synth.PresetNames() }

// WritePresetNames returns the online-update workloads ("write",
// "write2") paired with their read-only baselines, in study order.
func WritePresetNames() []string { return synth.WritePresetNames() }

// Table1Names returns the six evaluation workloads in the paper's order.
func Table1Names() []string { return synth.Table1Names() }

// Scaled shrinks a spec's item count and reduction degree while keeping
// its shape (skew, motifs) — useful for laptop-scale experimentation.
func Scaled(s WorkloadSpec, itemFrac, redFrac float64) WorkloadSpec {
	return synth.Scaled(s, itemFrac, redFrac)
}

// Balanced returns a uniform-access spec (the Figure 11 sensitivity
// workload).
func Balanced(numItems, tables int, avgReduction float64, seed uint64) WorkloadSpec {
	return synth.Balanced(numItems, tables, avgReduction, seed)
}

// DefaultModelConfig returns the paper's §4.1 model: 32-dim embeddings,
// 13 dense features, inference-sized MLPs.
func DefaultModelConfig(rowsPerTable []int) ModelConfig {
	return dlrm.DefaultConfig(rowsPerTable)
}

// NewModel builds a DLRM with deterministic weights and tables.
func NewModel(cfg ModelConfig) (*Model, error) { return dlrm.New(cfg) }

// DefaultEngineConfig returns the paper's evaluation configuration:
// 256 DPUs at 350 MHz with 14 tasklets, cache-aware partitioning, batch
// size 64.
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// DefaultHWConfig returns the calibrated UPMEM hardware model.
func DefaultHWConfig() HWConfig { return upmem.DefaultConfig() }

// NewEngine builds an UpDLRM engine: it mines cache lists (when
// cache-aware), partitions every table per the configured strategy, and
// prepares the simulated DPU system. The profile trace supplies access
// frequencies and co-occurrence statistics.
func NewEngine(model *Model, profile *Trace, cfg EngineConfig) (*Engine, error) {
	return core.New(model, profile, cfg)
}

// DefaultCPUModel returns the calibrated Table 2 host CPU.
func DefaultCPUModel() CPUModel { return hosthw.DefaultCPU() }

// DefaultGPUModel returns the calibrated Table 2 GPU.
func DefaultGPUModel() GPUModel { return hosthw.DefaultGPU() }

// DefaultPCIeModel returns the calibrated host-device link.
func DefaultPCIeModel() PCIeModel { return hosthw.DefaultPCIe() }

// NewCPUBaseline builds DLRM-CPU (Table 2).
func NewCPUBaseline(model *Model, cpu CPUModel) (BaselineSystem, error) {
	return baseline.NewCPU(model, cpu)
}

// NewHybridBaseline builds DLRM-Hybrid (Table 2).
func NewHybridBaseline(model *Model, cpu CPUModel, gpu GPUModel, pcie PCIeModel,
	cfg HybridConfig) (BaselineSystem, error) {
	return baseline.NewHybrid(model, cpu, gpu, pcie, cfg)
}

// DefaultHybridConfig returns the calibrated hybrid fixed costs.
func DefaultHybridConfig(numTables int) HybridConfig {
	return baseline.DefaultHybridConfig(numTables)
}

// NewFAEBaseline builds FAE (Table 2), deriving hot sets from the
// profile trace.
func NewFAEBaseline(model *Model, profile *Trace, cpu CPUModel, gpu GPUModel,
	pcie PCIeModel, cfg FAEConfig) (BaselineSystem, error) {
	return baseline.NewFAE(model, profile, cpu, gpu, pcie, cfg)
}

// DefaultFAEConfig returns the calibrated FAE parameters.
func DefaultFAEConfig() FAEConfig { return baseline.DefaultFAEConfig() }

// NewHeteroEngine wraps an engine with the §6 future-work GPU back end
// (DPU embedding stages + PCIe + GPU dense model).
func NewHeteroEngine(base *Engine, gpu GPUModel, pcie PCIeModel) (*HeteroEngine, error) {
	return core.NewHetero(base, gpu, pcie)
}

// RunBaseline runs every batch of a trace through a baseline system.
func RunBaseline(s BaselineSystem, tr *Trace, batchSize int) ([]float32, Breakdown, error) {
	return baseline.RunTrace(s, tr, batchSize)
}

// MakeBatches cuts a trace into consecutive batches.
func MakeBatches(tr *Trace, batchSize int) []*Batch {
	return trace.Batches(tr, batchSize)
}

// NewServer builds a concurrent serving runtime: independent engine
// replicas (per-shard model clones, each partitioned from the same
// profile) behind the QoS scheduler — per-class admission queues,
// weighted deficit-round-robin dispatch, and profile-driven routing of
// each micro-batch to the predicted-cheapest shard.
//
// By default every replica runs ecfg (cfg.Shards homogeneous shards).
// When cfg.ShardConfigs is non-empty the tier is heterogeneous: shard i
// is built from cfg.ShardConfigs[i] — different partition methods, tile
// shapes or quantization per replica — and the router steers traffic to
// whichever configuration is cheapest for the offered batches.
//
// When cfg.HotCache.CapacityBytes is non-zero, one serving-tier
// hot-row cache is built and shared by every replica: hot embedding
// rows are served host-side, cold rows take the DPU pipeline, and
// Stats reports hit rate and bytes saved. Close the server when done
// to stop its background goroutines.
func NewServer(model *Model, profile *Trace, ecfg EngineConfig, cfg ServerConfig) (*Server, error) {
	// Serving default: the shared hot cache partitions its capacity per
	// embedding table (segment t serves table t) so one burst-hot table
	// cannot evict the others' hot sets; serve.NewHotCacheFor is the
	// same sizing policy cluster backends apply to their table slices.
	var cache *hotcache.Cache
	if model != nil {
		c, err := serve.NewHotCacheFor(cfg.HotCache, model.Cfg.NumTables(), model.Cfg.EmbDim)
		if err != nil {
			return nil, err
		}
		cache = c
	}
	shardCfgs := cfg.ShardConfigs
	if len(shardCfgs) == 0 {
		n := cfg.Shards
		if n <= 0 {
			n = serve.DefaultShards
		}
		shardCfgs = make([]EngineConfig, n)
		for i := range shardCfgs {
			shardCfgs[i] = ecfg
		}
	}
	cfgs := make([]EngineConfig, len(shardCfgs))
	for i, sc := range shardCfgs {
		cfgs[i] = sc
		if cache != nil {
			cfgs[i].HotCache = cache
		}
	}
	engines, err := serve.NewShards(model, profile, cfgs)
	if err != nil {
		return nil, err
	}
	return serve.New(engines, cfg)
}

// NewHotCache builds a standalone serving-tier hot-row cache for
// embedding vectors of the given dimension; set it on
// EngineConfig.HotCache to share one cache across hand-built engines.
// A zero-capacity config returns nil (disabled), which is valid.
func NewHotCache(cfg HotCacheConfig, dim int) (*HotCache, error) {
	return hotcache.New(cfg, dim)
}
