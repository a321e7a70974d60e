package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"updlrm/internal/obs"
	"updlrm/internal/serve"
)

func TestClusterObsRegisters(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	reg := obs.NewRegistry()
	front, _, err := New(model, profile, ecfg, Config{Nodes: []string{"a", "b"}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	for _, req := range requestsFrom(profile, 8) {
		if _, err := front.Predict(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	found := 0
	for k := range snap {
		if strings.HasPrefix(k, "cluster_") {
			found++
		}
	}
	if found == 0 {
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		t.Fatalf("no cluster_ metrics in registry; keys: %v", keys)
	}
	if snap.Get(`cluster_rpc_total{node="a",op="lookup"}`) == 0 {
		t.Fatalf("per-node lookup counter zero; snap: %v", snap)
	}
}

// killOnUpdate crashes node `kill` as the first update RPC reaches it.
type killOnUpdate struct {
	*LocalTransport
	kill string
}

func (k *killOnUpdate) Update(ctx context.Context, node string, req *UpdateRequest) (*UpdateResponse, error) {
	if node == k.kill {
		k.Deregister(node)
	}
	return k.LocalTransport.Update(ctx, node, req)
}

// TestClusterUpdateErrorsByOp kills a node during ApplyDeltas: the
// failed update RPC is counted under op="update", not op="lookup".
func TestClusterUpdateErrorsByOp(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	reg := obs.NewRegistry()
	cfg := Config{Nodes: []string{"a", "b"}, Metrics: reg}
	tr := &killOnUpdate{LocalTransport: NewLocalTransport(newBackends(t, model, profile, ecfg, cfg)...), kill: "a"}
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	vec := make([]float32, model.Cfg.EmbDim)
	if err := front.ApplyDeltas(context.Background(), []serve.Delta{{Table: 0, Row: 1, Vec: vec}}); err == nil {
		t.Fatal("update to a killed node succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Get(`cluster_rpc_errors_total{node="a",op="update"}`); got != 1 {
		t.Errorf(`update errors on a = %g, want 1`, got)
	}
	if got := snap.Get(`cluster_rpc_errors_total{node="a",op="lookup"}`); got != 0 {
		t.Errorf(`lookup errors on a = %g, want 0: no lookup failed`, got)
	}
	if got := front.ClusterStats().Nodes[0].Errors; got != 1 {
		t.Errorf("NodeStats.Errors = %d, want 1", got)
	}
}

// TestStatsMatchMetrics drives a cluster through full-queue sheds, mixed
// classes, an update and a failed node, then checks that every count in
// Stats and ClusterStats equals its /metrics series exactly, per class
// and per node.
func TestStatsMatchMetrics(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	reg := obs.NewRegistry()
	cfg := Config{
		Nodes:         []string{"node-a", "node-b"},
		MaxBatch:      1,
		GatherWorkers: 1,
		QueueDepth:    1,
		Metrics:       reg,
	}
	tr := &gatedTransport{
		LocalTransport: NewLocalTransport(newBackends(t, model, profile, ecfg, cfg)...),
		gate:           make(chan struct{}),
	}
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(tr.gate) }) }
	t.Cleanup(release)
	ctx := context.Background()
	reqs := requestsFrom(profile, 48)

	// Full-queue sheds: a Batch flood behind a parked fabric.
	const flood = 40
	var wg sync.WaitGroup
	for i := range flood {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := reqs[i]
			req.Class = serve.Batch
			if _, err := front.Predict(ctx, req); err != nil && !errors.Is(err, serve.ErrOverloaded) {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "batch flood to shed", func() bool { return front.Stats().PerClass[serve.Batch].Shed >= flood-8 })
	release()
	wg.Wait()
	// Served traffic in every class, then an update.
	for i, req := range reqs {
		req.Class = serve.Class(i % int(serve.NumClasses))
		if _, err := front.Predict(ctx, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	vec := make([]float32, model.Cfg.EmbDim)
	delta := []serve.Delta{{Table: 0, Row: 1, Vec: vec}}
	if err := front.ApplyDeltas(ctx, delta); err != nil {
		t.Fatal(err)
	}
	// A failed node: lookups fail over, the update fails.
	tr.Deregister("node-a")
	for i, req := range reqs[:8] {
		if _, err := front.Predict(ctx, req); err != nil {
			t.Fatalf("request %d after the crash: %v", i, err)
		}
	}
	if err := front.ApplyDeltas(ctx, delta); err == nil {
		t.Fatal("update reached a crashed node")
	}

	st, cs := front.Stats(), front.ClusterStats()
	snap := reg.Snapshot()
	eq := func(what string, got int64, keys ...string) {
		t.Helper()
		var want float64
		for _, k := range keys {
			want += snap.Get(k)
		}
		if float64(got) != want {
			t.Errorf("%s = %d, /metrics %v = %g", what, got, keys, want)
		}
	}
	for c := serve.Class(0); c < serve.NumClasses; c++ {
		pc := st.PerClass[c]
		l := `{class="` + c.String() + `"}`
		eq(c.String()+" Requests", pc.Requests, "serve_requests_total"+l)
		eq(c.String()+" Shed", pc.Shed, "serve_shed_total"+l)
		eq(c.String()+" ShedPressure", pc.ShedPressure, "governor_shed_total"+l)
		eq(c.String()+" ShedSLO", pc.ShedSLO, "serve_slo_shed_total"+l)
	}
	eq("Errors", st.Errors, "serve_errors_total")
	eq("Batches", st.Batches, "serve_batch_size_count")
	eq("UpdateBatches", st.UpdateBatches, "serve_update_applied_total")
	eq("UpdatedRows", st.UpdatedRows, "serve_update_rows_total")
	eq("GatherBatches", cs.GatherBatches, "cluster_gather_batches_total")
	if want := snap.Get("cluster_network_modeled_ns_sum"); cs.NetworkNs != want {
		t.Errorf("NetworkNs = %g, /metrics sum = %g", cs.NetworkNs, want)
	}
	for _, n := range cs.Nodes {
		l := `{node="` + n.Node + `"}`
		op := func(family, op string) string { return family + `{node="` + n.Node + `",op="` + op + `"}` }
		eq(n.Node+" Lookups", n.Lookups, op("cluster_rpc_total", "lookup"))
		eq(n.Node+" Updates", n.Updates, op("cluster_rpc_total", "update"))
		eq(n.Node+" Errors", n.Errors, op("cluster_rpc_errors_total", "lookup"), op("cluster_rpc_errors_total", "update"))
		eq(n.Node+" Hedges", n.Hedges, "cluster_hedges_total"+l)
		eq(n.Node+" Failovers", n.Failovers, "cluster_failovers_total"+l)
		eq(n.Node+" BytesSent", n.BytesSent, "cluster_bytes_sent_total"+l)
		eq(n.Node+" BytesRecv", n.BytesRecv, "cluster_bytes_recv_total"+l)
	}

	// The drive reached every recorder it meant to.
	a := cs.Nodes[0]
	switch {
	case st.PerClass[serve.Batch].Shed < flood-8:
		t.Errorf("Batch sheds = %d, want >= %d", st.PerClass[serve.Batch].Shed, flood-8)
	case a.Failovers == 0 || snap.Get(`cluster_rpc_errors_total{node="node-a",op="lookup"}`) == 0:
		t.Errorf("crashed node: %d failovers, %+v", a.Failovers, a)
	case snap.Get(`cluster_rpc_errors_total{node="node-a",op="update"}`) != 1:
		t.Errorf("crashed node: update errors %g, want 1", snap.Get(`cluster_rpc_errors_total{node="node-a",op="update"}`))
	case st.UpdateBatches != 2 || cs.Nodes[1].Updates != 2:
		// The update lane completes the failed job too, so both count.
		t.Errorf("updates: %d completed, node-b took %d, want 2 and 2", st.UpdateBatches, cs.Nodes[1].Updates)
	}
}
