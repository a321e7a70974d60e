package cluster

import "sync/atomic"

// NodeStats is one backend's cumulative fabric traffic as seen from the
// frontend.
type NodeStats struct {
	// Node is the backend's name.
	Node string
	// Lookups and Updates count completed RPCs; Errors counts failed
	// ones of either kind (after which a lookup may have failed over).
	Lookups int64
	Updates int64
	Errors  int64
	// Hedges counts hedged lookups launched against this node's ranges'
	// replicas; Failovers counts calls re-routed here or away after a
	// hard failure.
	Hedges    int64
	Failovers int64
	// BytesSent and BytesRecv are the logical wire bytes exchanged with
	// the node (the quantities the link model charges).
	BytesSent int64
	BytesRecv int64
	// Degraded reports whether health-checking currently routes around
	// the node.
	Degraded bool
	// GovernorBand is the node's pressure-governor band as of its last
	// successful lookup ("normal" / "high" / "critical"; empty when the
	// node runs ungoverned or has not answered a lookup yet), and
	// Pressure its tracked/budget ratio at that time.
	GovernorBand string
	Pressure     float64
}

// ClusterStats is the fabric-level supplement to serve.Stats: per-node
// RPC traffic plus the modeled interconnect total.
type ClusterStats struct {
	// Nodes is indexed by the Config.Nodes order.
	Nodes []NodeStats
	// NetworkNs is the cumulative modeled fabric time across batches
	// (each batch charged its slowest node round trip).
	NetworkNs float64
	// GatherBatches counts completed fan-out/gather cycles.
	GatherBatches int64
}

// nodeGovernor holds one node's last reported pressure state: band is
// the wire encoding (governor.Band + 1, 0 = unknown or ungoverned) of
// its band, pressure its pressure as float64 bits.
type nodeGovernor struct {
	band     atomic.Uint32
	pressure atomic.Uint64
}
