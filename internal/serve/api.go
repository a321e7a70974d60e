// The serving tier's public contract: the Inferencer interface every
// deployment shape implements (the Server here, and the
// table-partitioned cluster frontend in internal/cluster, which is a
// Server over gather shards), the engine-replica constructor, the typed
// overload error, and the shared hot-cache builder — the pieces drivers
// program against so single-node and cluster deployments are
// interchangeable.
package serve

import (
	"context"
	"fmt"
	"runtime"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/hotcache"
	"updlrm/internal/trace"
)

// Inferencer is the serving contract every deployment shape satisfies:
// the single-process *Server and the cluster frontend that partitions
// the embedding tables across backend nodes (itself a *Server over
// gather shards, so both share admission, QoS and stats). Drivers (load
// generators, HTTP transports, examples) should accept an Inferencer so
// the same code exercises both.
//
// Error taxonomy, common to all implementations:
//
//   - ErrBadRequest wraps request-shape validation failures — caller
//     bugs, never retryable.
//   - An *OverloadError (satisfying errors.Is against ErrOverloaded for
//     the predict lane and ErrUpdateOverloaded for the update lane)
//     means admission control shed the call at the door — retryable
//     after backoff, and counted as shed traffic, not failure.
//   - ErrClosed means the deployment was shut down.
//   - Context errors pass through unwrapped when the caller's ctx ends
//     first.
type Inferencer interface {
	// Predict serves one request, blocking until its micro-batch ran.
	Predict(ctx context.Context, req Request) (Response, error)
	// ApplyDeltas applies embedding-row deltas with read-your-writes
	// visibility once it returns.
	ApplyDeltas(ctx context.Context, deltas []Delta) error
	// Stats snapshots the deployment's cumulative serving statistics.
	Stats() Stats
	// Close shuts the deployment down; further calls fail with
	// ErrClosed. It is idempotent.
	Close()
}

var _ Inferencer = (*Server)(nil)

// Lane identifies which admission lane an OverloadError was shed from.
type Lane uint8

const (
	// LanePredict is the read path's per-class request queue.
	LanePredict Lane = iota
	// LaneUpdate is the embedding-update lane's queue.
	LaneUpdate
)

// String returns the lane's wire-stable name.
func (l Lane) String() string {
	switch l {
	case LanePredict:
		return "predict"
	case LaneUpdate:
		return "update"
	default:
		return fmt.Sprintf("lane(%d)", uint8(l))
	}
}

// OverloadError is the typed overload signal both admission lanes shed
// with: Predict returns one with LanePredict, ApplyDeltas with
// LaneUpdate. It satisfies errors.Is against the historical sentinels —
// errors.Is(err, ErrOverloaded) for the predict lane and
// errors.Is(err, ErrUpdateOverloaded) for the update lane — so existing
// callers keep working, while new callers can type-assert to read the
// lane (cluster transports ship it over the wire by lane).
type OverloadError struct {
	// Lane is the admission lane that shed the call.
	Lane Lane
}

// Error renders the same message the historical sentinels carried.
func (e *OverloadError) Error() string {
	if e.Lane == LaneUpdate {
		return ErrUpdateOverloaded.Error()
	}
	return ErrOverloaded.Error()
}

// Is maps each lane to its historical sentinel for errors.Is.
func (e *OverloadError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Lane == LanePredict
	case ErrUpdateOverloaded:
		return e.Lane == LaneUpdate
	}
	return false
}

// Overload returns the lane's shed error. Implementations of Inferencer
// (and transports reconstructing errors on the wire) shed with this so
// every deployment shape reports overload identically.
func Overload(lane Lane) error { return &OverloadError{Lane: lane} }

// NewShards builds one engine replica per config over clones of the
// same model, all partitioned from the same profile trace — the single
// shard constructor both the homogeneous case (repeat one config) and
// the heterogeneous case (per-shard partition methods, tile shapes,
// quantization, worker-pool widths) go through. Shards execute
// concurrently, so configs with HostWorkers <= 0 get an even share of
// the host cores instead of each replica sizing itself to the whole
// machine. A request's result is bitwise identical to a homogeneous
// server of its serving shard's configuration.
func NewShards(model *dlrm.Model, profile *trace.Trace, cfgs []core.Config) ([]*core.Engine, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("serve: no shard configs")
	}
	share := runtime.GOMAXPROCS(0) / len(cfgs)
	if share < 1 {
		share = 1
	}
	engines := make([]*core.Engine, len(cfgs))
	for i, ecfg := range cfgs {
		if ecfg.HostWorkers <= 0 {
			ecfg.HostWorkers = share
		}
		eng, err := core.New(model.Clone(), profile, ecfg)
		if err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		engines[i] = eng
	}
	return engines, nil
}

// NewHotCacheFor builds the serving-tier hot-row cache from its config,
// defaulting per-table capacity partitioning to the deployment's table
// count — the hotcache-sizing policy every constructor (the facade's
// NewServer, the cluster backends) shares. A zero CapacityBytes returns
// nil: no cache, serving bit-identical to a cache-less deployment.
func NewHotCacheFor(hcfg hotcache.Config, numTables, embDim int) (*hotcache.Cache, error) {
	if hcfg.CapacityBytes == 0 {
		return nil, nil
	}
	if hcfg.Tables == 0 {
		hcfg.Tables = numTables
	}
	c, err := hotcache.New(hcfg, embDim)
	if err != nil {
		return nil, fmt.Errorf("serve: hot cache: %w", err)
	}
	return c, nil
}
