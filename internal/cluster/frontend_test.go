package cluster

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/governor"
	"updlrm/internal/hotcache"
	"updlrm/internal/obs"
	"updlrm/internal/serve"
	"updlrm/internal/trace"
)

// waitFor polls cond until it holds or five seconds pass.
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

// newBackends builds one backend per configured node.
func newBackends(t *testing.T, model *dlrm.Model, profile *trace.Trace, ecfg core.Config, cfg Config) []*Backend {
	t.Helper()
	var backends []*Backend
	for _, node := range cfg.Nodes {
		b, err := NewBackend(model, profile, ecfg, cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		backends = append(backends, b)
	}
	return backends
}

// heldUpdateTransport delays Update calls: the first one to node `hold`
// (every one, when hold is empty) sleeps for delay before delivery and
// signals entered as it starts waiting.
type heldUpdateTransport struct {
	*LocalTransport
	hold    string
	delay   time.Duration
	entered chan struct{}
	held    atomic.Bool
}

func (h *heldUpdateTransport) Update(ctx context.Context, node string, req *UpdateRequest) (*UpdateResponse, error) {
	if (h.hold == "" || node == h.hold) && h.held.CompareAndSwap(false, true) {
		h.entered <- struct{}{}
		time.Sleep(h.delay)
	}
	return h.LocalTransport.Update(ctx, node, req)
}

// readRow reads one global row from a backend through its Lookup RPC:
// a one-sample batch whose only lookup is that row.
func readRow(t *testing.T, b *Backend, table int, row int32) []float32 {
	t.Helper()
	_, lrow, ok := b.place.localRow(b.view.index, table, row)
	if !ok {
		t.Fatalf("node %s does not host table %d row %d", b.Node(), table, row)
	}
	lt := b.view.tableIdx[table]
	req := &LookupRequest{Samples: 1, Tables: make([]LookupTable, b.NumLocalTables())}
	for i := range req.Tables {
		req.Tables[i] = LookupTable{Table: int32(i), Off: []int32{0, 0}}
	}
	req.Tables[lt] = LookupTable{Table: int32(lt), Off: []int32{0, 1}, Idx: []int32{lrow}}
	resp, err := b.Lookup(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Embs[lt*resp.Dim : (lt+1)*resp.Dim]
}

// TestClusterReplicaUpdateOrder is the replica-order regression: two
// concurrent updates to one row, the first held on its way to one
// replica, must still land on every copy in the same order. The deltas
// are chosen so float32 addition order shows in the result — a large
// step and a tiny one — so copies that applied them in opposite orders
// differ bitwise.
func TestClusterReplicaUpdateOrder(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	cfg := Config{Nodes: []string{"node-a", "node-b"}}
	backends := newBackends(t, model, profile, ecfg, cfg)
	tr := &heldUpdateTransport{
		LocalTransport: NewLocalTransport(backends...),
		hold:           "node-b",
		delay:          80 * time.Millisecond,
		entered:        make(chan struct{}, 1),
	}
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	const table, row = 0, 3
	dim := model.Cfg.EmbDim
	big, tiny := make([]float32, dim), make([]float32, dim)
	for i := range big {
		big[i] = 1.0
		tiny[i] = 4e-8 * float32(i+1)
	}
	ctx := context.Background()
	errs := make(chan error, 2)
	go func() { errs <- front.ApplyDeltas(ctx, []serve.Delta{{Table: table, Row: row, Vec: big}}) }()
	<-tr.entered // the first update is now held on its way to node-b
	go func() { errs <- front.ApplyDeltas(ctx, []serve.Delta{{Table: table, Row: row, Vec: tiny}}) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	want := readRow(t, backends[0], table, row)
	for _, b := range backends[1:] {
		got := readRow(t, b, table, row)
		diff := 0
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				diff++
			}
		}
		if diff > 0 {
			t.Fatalf("table %d row %d: %s differs from %s in %d of %d elements",
				table, row, b.Node(), backends[0].Node(), diff, dim)
		}
	}
}

// TestClusterCloseDrainsUpdates: an update admitted before Close still
// completes — Close waits for its fan-out before closing the transport.
func TestClusterCloseDrainsUpdates(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	cfg := Config{Nodes: []string{"node-a", "node-b"}}
	tr := &heldUpdateTransport{
		LocalTransport: NewLocalTransport(newBackends(t, model, profile, ecfg, cfg)...),
		delay:          50 * time.Millisecond,
		entered:        make(chan struct{}, 1),
	}
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		vec := make([]float32, model.Cfg.EmbDim)
		vec[0] = 0.5
		errc <- front.ApplyDeltas(context.Background(), []serve.Delta{{Table: 1, Row: 2, Vec: vec}})
	}()
	<-tr.entered
	front.Close()
	if err := <-errc; err != nil {
		t.Fatalf("update admitted before Close failed: %v", err)
	}
	if st := front.Stats(); st.UpdateBatches != 1 {
		t.Fatalf("UpdateBatches = %d after Close, want 1", st.UpdateBatches)
	}
}

// TestClusterCloseLeaksNoGoroutines runs a cluster with every
// background mechanism on — health pings, hedged lookups, backend
// governors — and checks that closing the frontend and the backends
// returns the goroutine count to its baseline.
func TestClusterCloseLeaksNoGoroutines(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	base := runtime.NumGoroutine()
	front, backends, err := New(model, profile, ecfg, Config{
		Nodes:        []string{"node-a", "node-b"},
		PingInterval: time.Millisecond,
		HedgeAfter:   50 * time.Microsecond,
		HotCache:     hotcache.Config{CapacityBytes: 1 << 20},
		Governor:     governor.Config{BudgetBytes: 1 << 40, Interval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, req := range requestsFrom(profile, 16) {
		if _, err := front.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	vec := make([]float32, model.Cfg.EmbDim)
	if err := front.ApplyDeltas(ctx, []serve.Delta{{Table: 0, Row: 1, Vec: vec}}); err != nil {
		t.Fatal(err)
	}
	// A downed node is restored by the ping prober.
	if err := front.SetNodeDown("node-a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "prober to restore node-a", func() bool { return !front.ClusterStats().Nodes[0].Degraded })

	front.Close()
	for _, b := range backends {
		b.Close()
	}
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

// gatedTransport holds every lookup until the gate opens, then delays
// it — a slow fabric whose first batch can be parked deterministically.
type gatedTransport struct {
	*LocalTransport
	gate  chan struct{}
	delay time.Duration
}

func (g *gatedTransport) Lookup(ctx context.Context, node string, req *LookupRequest) (*LookupResponse, error) {
	<-g.gate
	time.Sleep(g.delay)
	return g.LocalTransport.Lookup(ctx, node, req)
}

// TestClusterQoSCriticalAhead: over a slow fabric, the cluster frontend
// schedules with serve's deficit round robin, so Critical requests
// queued behind a Batch flood are dispatched ahead of it — the
// single-node server's QoS guarantees, with per-class and per-shard
// Stats populated.
func TestClusterQoSCriticalAhead(t *testing.T) {
	const (
		nBatch = 40
		nCrit  = 10
	)
	model, profile, ecfg := testFixture(t)
	reg := obs.NewRegistry()
	cfg := Config{
		Nodes:         []string{"node-a", "node-b"},
		MaxBatch:      1,
		GatherWorkers: 1,
		Metrics:       reg,
	}
	tr := &gatedTransport{
		LocalTransport: NewLocalTransport(newBackends(t, model, profile, ecfg, cfg)...),
		gate:           make(chan struct{}),
		delay:          2 * time.Millisecond,
	}
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(tr.gate) }) }
	t.Cleanup(release)

	// Each request's dispatch time is its call time plus its measured
	// queue wait; batches run one at a time on the single gather shard,
	// at least one fabric delay apart, so sorting by it recovers the
	// dispatch order.
	type dispatched struct {
		class serve.Class
		at    time.Time
	}
	var mu sync.Mutex
	var order []dispatched
	var wg sync.WaitGroup
	reqs := requestsFrom(profile, nBatch+nCrit)
	predict := func(i int, c serve.Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := reqs[i]
			req.Class = c
			start := time.Now()
			resp, err := front.Predict(context.Background(), req)
			if err != nil {
				t.Errorf("request %d (%v): %v", i, c, err)
				return
			}
			mu.Lock()
			order = append(order, dispatched{c, start.Add(time.Duration(resp.QueueNs))})
			mu.Unlock()
		}()
	}
	admitted := func(c serve.Class) int {
		return int(reg.Snapshot().Get(`serve_admitted_total{class="` + c.String() + `"}`))
	}

	for i := 0; i < nBatch; i++ {
		predict(i, serve.Batch)
	}
	waitFor(t, "batch flood to be admitted", func() bool { return admitted(serve.Batch) == nBatch })
	for i := 0; i < nCrit; i++ {
		predict(nBatch+i, serve.Critical)
	}
	waitFor(t, "critical requests to be admitted", func() bool { return admitted(serve.Critical) == nCrit })
	release()
	wg.Wait()

	sort.Slice(order, func(i, j int) bool { return order[i].at.Before(order[j].at) })
	if len(order) != nBatch+nCrit {
		t.Fatalf("served %d requests, want %d", len(order), nBatch+nCrit)
	}
	lastCrit := -1
	for i, d := range order {
		if d.class == serve.Critical {
			lastCrit = i
		}
	}
	// At most three Batch requests were already past the scheduler (in
	// the shard, in its queue, mid-route) when the Criticals arrived;
	// with weights 16:1 the ten Criticals then take one DRR round.
	// Under FIFO they would sit behind the whole flood.
	if lastCrit >= 3+nCrit+3 {
		t.Fatalf("last critical dispatched at slot %d; DRR should finish them by slot %d", lastCrit, 3+nCrit+3)
	}
	if lastCrit >= nBatch {
		t.Fatalf("critical p100 slot %d not below its FIFO position %d", lastCrit, nBatch)
	}

	st := front.Stats()
	if st.PerClass[serve.Critical].Requests != nCrit || st.PerClass[serve.Batch].Requests != nBatch {
		t.Fatalf("per-class requests = %d critical / %d batch, want %d/%d",
			st.PerClass[serve.Critical].Requests, st.PerClass[serve.Batch].Requests, nCrit, nBatch)
	}
	if st.PerClass[serve.Critical].P99Ns <= 0 || st.PerClass[serve.Batch].P99Ns <= 0 {
		t.Fatalf("per-class percentiles missing: %+v", st.PerClass)
	}
	if st.PerClass[serve.Critical].QueueP99Ns >= st.PerClass[serve.Batch].QueueP99Ns {
		t.Fatalf("critical queue p99 %.0f >= batch queue p99 %.0f",
			st.PerClass[serve.Critical].QueueP99Ns, st.PerClass[serve.Batch].QueueP99Ns)
	}
	if len(st.Shards) != 1 || st.Shards[0].Requests != nBatch+nCrit || st.Shards[0].Batches != nBatch+nCrit {
		t.Fatalf("shard stats = %+v, want one shard with %d single-request batches", st.Shards, nBatch+nCrit)
	}
}
