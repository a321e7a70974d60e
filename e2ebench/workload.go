package main

import (
	"fmt"
	"sort"
	"time"

	"updlrm"
	"updlrm/internal/cluster"
	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
)

// kind is the deployment shape a workload drives.
type kind int

const (
	offline   kind = iota // core.Engine.RunBatch over fixed batches
	served                // updlrm.NewServer behind serve.Server.Predict
	clustered             // cluster.NewFrontend over a local transport
)

// workload is one benchmark scenario: a preset, a deployment and an
// offered load.
type workload struct {
	name   string
	kind   kind
	preset string
	// dpus is the engine's TotalDPUs (per shard for served, the global
	// count every backend slices for clustered).
	dpus int
	// rps is the offered request rate of the open-loop generator.
	rps float64
	// shards, maxBatch and window shape the serving front end.
	shards   int
	maxBatch int
	window   time.Duration
	// cachePct sizes the shared hot-row cache as a percentage of the
	// model's embedding storage (0 = no cache).
	cachePct float64
	// mix weights the QoS classes, indexed by serve.Class.
	mix [serve.NumClasses]int
	// writesPer100 is the update stream's row deltas per 100 lookups.
	writesPer100 float64
	// governed deploys the pressure governor with a budget well above
	// the workload's peak tracked bytes.
	governed bool
	// approximate drops the bit-for-bit comparison with a standalone
	// engine: hot-cache hits are summed on the host in another order.
	approximate bool
	// procs, when set, is the GOMAXPROCS the run uses (0 = the
	// runtime's default, one per CPU).
	procs int
}

// Shared workload shape: every preset is scaled to laptop size and cut
// to four tables, exactly as updlrm-loadgen does by default.
const (
	itemFrac    = 0.005
	redFrac     = 0.5
	numTables   = 4
	profileSize = 512  // partitioner profile samples
	poolSize    = 2048 // distinct samples requests are drawn from
	batchSize   = 64   // offline replay batch
	updateRows  = 16   // rows per ApplyDeltas call, each written +δ then −δ
	deltaValue  = 1e-4 // magnitude of every delta element
	// latencyLimit is the serving deadline: a request slower than this
	// (or shed, or failed) does not count toward goodput.
	latencyLimit = 10 * time.Millisecond
	// cpuTol bounds |CTR - CPU reference| (see checker): the engine's
	// partial-sum order and the hot cache's host-side sums move a CTR by
	// a few ulp, far below it.
	cpuTol = 1e-5
	// governorBudget is far above what serve-hot-rw tracks (hot cache,
	// arenas, queues), so the governor observes but never degrades.
	governorBudget = 256 << 20
)

var workloads = map[string]workload{
	"offline-b64": {
		name: "offline-b64", kind: offline, preset: "read", dpus: 64,
		// One P: the replay keeps every P it has busy, and on a 2-vCPU
		// VM two busy vCPUs slow each other (the replay at 2 Ps ran at
		// about 0.87x the samples/s of 1 P), so with 1 P the figure
		// follows the engine rather than how the host pairs its vCPUs.
		procs: 1,
	},
	"serve-light": {
		name: "serve-light", kind: served, preset: "home", dpus: 64, rps: 500,
		shards: 2, maxBatch: 32, window: 200 * time.Microsecond,
		mix: classMix(0, 1, 0),
	},
	"serve-hot-rw": {
		name: "serve-hot-rw", kind: served, preset: "read", dpus: 64, rps: 400,
		shards: 2, maxBatch: 32, window: 200 * time.Microsecond,
		cachePct: 5, mix: classMix(1, 1, 8), writesPer100: 2, governed: true,
		approximate: true,
	},
	"cluster-2node": {
		name: "cluster-2node", kind: clustered, preset: "home", dpus: 64, rps: 1000,
		maxBatch: 32, window: 200 * time.Microsecond,
		mix: classMix(0, 1, 0),
	},
}

// classMix builds a class-weight vector from crit:normal:batch weights.
func classMix(crit, normal, batch int) [serve.NumClasses]int {
	var m [serve.NumClasses]int
	m[serve.Critical], m[serve.Normal], m[serve.Batch] = crit, normal, batch
	return m
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (w workload) engineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDPUs = w.dpus
	cfg.Method = updlrm.CacheAware
	cfg.Kernel = tensor.KernelExact
	return cfg
}

// inputs are everything a run derives from its seed: the partitioner
// profile, the request pool, the update stream and the reference CTRs.
type inputs struct {
	spec    synth.Spec
	profile *trace.Trace
	pool    *trace.Trace
	// refCPU[i] is pool sample i's CTR from dlrm.EmbedCPU +
	// Model.ForwardBatch; refEngine[i] its CTR from a standalone engine
	// (nil for approximate workloads).
	refCPU, refEngine []float32
	// lookupsPerSample is the pool's mean row lookups per sample.
	lookupsPerSample float64
	modelCfg         dlrm.Config
	tableBytes       int64
}

// splitmix64 spreads a small seed over all 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func makeInputs(w workload, seed uint64) (*inputs, error) {
	spec, err := synth.Preset(w.preset)
	if err != nil {
		return nil, err
	}
	spec = synth.Scaled(spec, itemFrac, redFrac)
	spec.Tables = numTables
	spec.Seed ^= splitmix64(seed)
	stream, err := spec.Generate(profileSize + poolSize)
	if err != nil {
		return nil, err
	}
	cut := func(lo, hi int) *trace.Trace {
		return &trace.Trace{
			NumTables:    stream.NumTables,
			RowsPerTable: stream.RowsPerTable,
			DenseDim:     stream.DenseDim,
			Samples:      stream.Samples[lo:hi],
		}
	}
	in := &inputs{
		spec:     spec,
		profile:  cut(0, profileSize),
		pool:     cut(profileSize, profileSize+poolSize),
		modelCfg: dlrm.DefaultConfig(stream.RowsPerTable),
	}
	model, err := dlrm.New(in.modelCfg)
	if err != nil {
		return nil, err
	}
	for _, rows := range stream.RowsPerTable {
		in.tableBytes += int64(rows) * int64(in.modelCfg.EmbDim) * 4
	}
	var lookups int
	for _, b := range poolBatches(in) {
		lookups += b.TotalLookups()
		in.refCPU = append(in.refCPU, model.ForwardBatch(b, dlrm.EmbedCPU(model, b))...)
	}
	in.lookupsPerSample = float64(lookups) / poolSize
	if !w.approximate {
		eng, err := core.New(model, in.profile, w.engineConfig())
		if err != nil {
			return nil, fmt.Errorf("reference engine: %w", err)
		}
		for _, b := range poolBatches(in) {
			res, err := eng.RunBatch(b)
			if err != nil {
				return nil, fmt.Errorf("reference engine: %w", err)
			}
			in.refEngine = append(in.refEngine, res.CTR...)
		}
	}
	return in, nil
}

func (in *inputs) checker(w workload, perturbAt int64) *checker {
	return &checker{cpu: in.refCPU, engine: in.refEngine, tol: cpuTol, perturbAt: perturbAt}
}

// deployment is the system under test, built through public entry
// points only.
type deployment struct {
	engine   *core.Engine     // offline
	inf      serve.Inferencer // served and clustered
	server   *serve.Server
	front    *cluster.Frontend
	backends []*cluster.Backend
	fabric   *timedTransport
}

func (d *deployment) close() {
	if d.server != nil {
		d.server.Close()
	}
	if d.front != nil {
		d.front.Close()
	}
	for _, b := range d.backends {
		b.Close()
	}
}

// deploy builds the model and the workload's system: the span setup_s
// measures.
func deploy(w workload, in *inputs) (*deployment, error) {
	model, err := updlrm.NewModel(in.modelCfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	ecfg := w.engineConfig()
	switch w.kind {
	case offline:
		d.engine, err = core.New(model, in.profile, ecfg)
	case served:
		scfg := updlrm.ServerConfig{
			Shards:      w.shards,
			MaxBatch:    w.maxBatch,
			BatchWindow: w.window,
			HotCache:    updlrm.HotCacheConfig{CapacityBytes: w.cacheBytes(in)},
		}
		if w.governed {
			scfg.Governor = updlrm.GovernorConfig{BudgetBytes: governorBudget}
		}
		d.server, err = updlrm.NewServer(model, in.profile, ecfg, scfg)
		d.inf = d.server
	case clustered:
		ccfg := cluster.Config{
			Nodes:       []string{"node-0", "node-1"},
			Replication: 2,
			MaxBatch:    w.maxBatch,
			BatchWindow: w.window,
		}
		for _, node := range ccfg.Nodes {
			b, berr := cluster.NewBackend(model, in.profile, ecfg, ccfg, node)
			if berr != nil {
				d.close()
				return nil, berr
			}
			d.backends = append(d.backends, b)
		}
		d.fabric = &timedTransport{inner: cluster.NewLocalTransport(d.backends...)}
		d.front, err = cluster.NewFrontend(model, in.profile, ecfg, ccfg, d.fabric)
		d.inf = d.front
	default:
		err = fmt.Errorf("unknown workload kind %d", w.kind)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (w workload) cacheBytes(in *inputs) int64 {
	return int64(w.cachePct / 100 * float64(in.tableBytes))
}
