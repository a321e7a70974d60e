package serve

// The shard seam: the three things the scheduler's workers, the
// router's cost probes and the update lane need from one serving
// replica. A local core.Engine replica is one kind of shard; the other
// is internal/cluster's gather shard, which runs a micro-batch by
// fanning its lookups out over the table-partitioned fabric and running
// the dense head where the gather lands. Admission, QoS classes, SLO
// shedding, micro-batching, routing and stats stay in the Server, so
// both deployment shapes share one request front end.

import (
	"fmt"

	"updlrm/internal/core"
	"updlrm/internal/metrics"
	"updlrm/internal/trace"
)

// Shard is one serving replica the scheduler dispatches to. Each shard
// is driven by its own worker goroutine, so RunBatch and ApplyUpdate
// are never called concurrently on one shard.
type Shard interface {
	// RunBatch runs one micro-batch. The scheduler reads the result's
	// CTR, Breakdown and MRAMBytesRead; its buffers may be reused by the
	// shard's next call.
	RunBatch(b *trace.Batch) (*core.Result, error)
	// ApplyUpdate applies one update-lane job. Every shard receives
	// every job, in admission order, ahead of any batch dispatched after
	// the job was admitted.
	ApplyUpdate(job UpdateJob) (UpdateResult, error)
}

// CostEstimator is optionally implemented by shards whose cost can be
// probed before any traffic: the router seeds each such shard's profile
// from probes at batch sizes 1 and MaxBatch, and ReprobeInterval
// re-runs them. A shard without it starts with an empty profile —
// identical shards then route least-backlog until live batches teach
// the router their cost.
type CostEstimator interface {
	EstimateBreakdown(batchSize int) (metrics.Breakdown, int, error)
}

// UpdateJob is one admitted ApplyDeltas call as a shard sees it.
type UpdateJob struct {
	// Seq numbers delta jobs 1, 2, ... in admission order. Shards that
	// share one backing store (the cluster's gather shards share the
	// fabric) use it to apply each job exactly once, in order.
	Seq uint64
	// Deltas are validated against the served shape and owned by the
	// job; shards must not modify them.
	Deltas []Delta
}

// UpdateResult is one shard's share of an applied update job.
type UpdateResult struct {
	// Invalidations counts hot-cache entries the update invalidated.
	Invalidations int64
	// ModeledNs is the shard's modeled DPU-side cost of the update.
	ModeledNs float64
}

// Shape is the request shape a server validates requests and deltas
// against.
type Shape struct {
	NumTables    int
	RowsPerTable []int
	DenseDim     int
	EmbDim       int
}

// engineShard is the local shard: one core.Engine replica, whose
// RunBatch and EstimateBreakdown it promotes.
type engineShard struct{ *core.Engine }

// ApplyUpdate applies the job's deltas table by table. A failing table
// does not stop the others; the first error is returned with the
// successful tables' totals.
func (e engineShard) ApplyUpdate(job UpdateJob) (UpdateResult, error) {
	var out UpdateResult
	var firstErr error
	for t := 0; t < e.NumTables(); t++ {
		var rows []int32
		var flat []float32
		for _, d := range job.Deltas {
			if d.Table == t {
				rows = append(rows, d.Row)
				flat = append(flat, d.Vec...)
			}
		}
		if len(rows) == 0 {
			continue
		}
		res, err := e.ApplyDeltas(t, rows, flat)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("table %d: %w", t, err)
			}
			continue
		}
		out.Invalidations += res.Invalidations
		out.ModeledNs += res.Breakdown.UpdateNs
	}
	return out, firstErr
}

// probePoints runs a shard's static cost probes — one single-request
// batch and one MaxBatch-sized batch, pinning the router's affine
// fixed-plus-marginal cost fit. Shards that cannot estimate return
// none.
func (s *Server) probePoints(shard int) []profilePoint {
	est, ok := s.shards[shard].(CostEstimator)
	if !ok {
		return nil
	}
	var points []profilePoint
	if bd, n, err := est.EstimateBreakdown(1); err == nil {
		points = append(points, profilePoint{n: n, cost: bd.TotalNs(), bd: bd})
	}
	if s.cfg.MaxBatch > 1 {
		if bd, n, err := est.EstimateBreakdown(s.cfg.MaxBatch); err == nil &&
			(len(points) == 0 || n != points[0].n) {
			points = append(points, profilePoint{n: n, cost: bd.TotalNs(), bd: bd})
		}
	}
	return points
}
