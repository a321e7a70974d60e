package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"updlrm/internal/cluster"
)

// timedTransport wraps a cluster.Transport and, while recording is on,
// times every lookup RPC and counts its logical wire bytes. Off, it adds
// one atomic load per call.
type timedTransport struct {
	inner cluster.Transport
	on    atomic.Bool
	spans *spanLog // optional: one span per lookup RPC

	mu    sync.Mutex
	rpcs  []float64 // lookup round trips, ns
	bytes int64     // request + response wire bytes
}

func (t *timedTransport) record(on bool, spans *spanLog) {
	t.mu.Lock()
	t.rpcs, t.bytes, t.spans = t.rpcs[:0], 0, spans
	t.mu.Unlock()
	t.on.Store(on)
}

func (t *timedTransport) Lookup(ctx context.Context, node string, req *cluster.LookupRequest) (*cluster.LookupResponse, error) {
	if !t.on.Load() {
		return t.inner.Lookup(ctx, node, req)
	}
	start := time.Now()
	resp, err := t.inner.Lookup(ctx, node, req)
	end := time.Now()
	t.mu.Lock()
	t.rpcs = append(t.rpcs, float64(end.Sub(start)))
	t.bytes += req.WireBytes()
	if resp != nil {
		t.bytes += resp.WireBytes()
	}
	if t.spans != nil {
		t.spans.add("cluster.lookup", start, end, -1, -1)
	}
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) Update(ctx context.Context, node string, req *cluster.UpdateRequest) (*cluster.UpdateResponse, error) {
	return t.inner.Update(ctx, node, req)
}

func (t *timedTransport) Ping(ctx context.Context, node string) error {
	return t.inner.Ping(ctx, node)
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// snapshot returns the recorded round trips (ns) and wire bytes.
func (t *timedTransport) snapshot() ([]float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.rpcs...), t.bytes
}
