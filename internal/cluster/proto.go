package cluster

import (
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// Node-protocol wire types. The node side of the cluster speaks an
// extension of the public serving protocol: graphs travel as
// server.GraphJSON (label strings, resolved against each node's own
// dictionary), and POST /node/query?shards=...&epochs=...&after=N answers
// only as an NDJSON stream of LegLines — every coordinator query, one-shot
// or streamed, is a set of such legs — so the node endpoints are the
// existing protocol plus shard addressing, resume frontiers and epoch
// propagation.

// InfoResponse is GET /node/info: the node's identity and what it serves.
// The coordinator uses it at startup to seed its id allocator and per-shard
// epochs, and at rejoin to detect stale shards.
type InfoResponse struct {
	Name       string      `json:"name"`
	Spec       string      `json:"spec"`
	ShardCount int         `json:"shard_count"`
	Shards     []ShardInfo `json:"shards"`
	// MaxGlobalID is the largest parent-dataset id the node holds, -1 when
	// it holds none. The coordinator allocates fresh ids above the cluster
	// maximum.
	MaxGlobalID int64 `json:"max_global_id"`
	// Labels are the node's label dictionary names. The coordinator interns
	// them before routing to the node, so a query naming one is fanned out
	// rather than answered empty as an unknown label.
	Labels []string `json:"labels,omitempty"`
}

// ShardInfo describes one shard a node serves.
type ShardInfo struct {
	Shard int `json:"shard"`
	// Graphs is the live graph count of the shard.
	Graphs int `json:"graphs"`
	// Epoch is the cluster epoch of the last mutation applied to the shard
	// on this node; 0 when the shard is unmutated since its build.
	Epoch uint64 `json:"epoch"`
	// IndexBytes is the shard index's in-memory size.
	IndexBytes int64 `json:"index_bytes"`
}

// LegLine is one NDJSON line of POST /node/query: a server.StreamLine
// carrying a global answer id, an error, or the done line. The done line
// adds the leg's pipeline counters, its live candidates (ascending global
// ids, whole when the leg started from the beginning) for the one-shot
// response's candidate set, and — when the request carried an X-Sq-Trace
// header — the node's span subtree, which the coordinator grafts under its
// leg span so one tree covers both processes.
type LegLine struct {
	server.StreamLine
	Candidates graph.IDSet   `json:"candidates,omitempty"`
	Trace      *obs.SpanTree `json:"trace,omitempty"`
}

// AddRequest is POST /node/graphs: an add routed by the coordinator, which
// owns id assignment and the cluster epoch. Nodes apply it idempotently —
// re-delivery of an already-applied id acks success without re-indexing.
type AddRequest struct {
	ID    graph.ID         `json:"id"`
	Epoch uint64           `json:"epoch"`
	Graph server.GraphJSON `json:"graph"`
}

// MutateAck is the response to a routed mutation.
type MutateAck struct {
	Node  string `json:"node"`
	Shard int    `json:"shard"`
	// Epoch is the shard's epoch after applying the mutation.
	Epoch uint64 `json:"epoch"`
	// Graphs is the shard's live graph count after the mutation.
	Graphs int `json:"graphs"`
}

// LoadRequest is POST /node/load: install (or replace) a shard on the node.
// With From == "", the node rebuilds the shard from its local dataset file —
// valid only while the shard is unmutated (Epoch 0). Otherwise the node
// fetches the shard's graphs from the owner at From via GET
// /node/dump?shard=k, so post-start mutations survive re-replication.
type LoadRequest struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
	From  string `json:"from,omitempty"`
}

// DumpLine is one NDJSON line of GET /node/dump?shard=k: a live graph with
// its global id, in ascending id order; the terminal line carries Done plus
// the shard's epoch and the largest id ever homed to the shard (dead or
// alive), so the receiver reconstructs id-allocation state exactly.
type DumpLine struct {
	ID    graph.ID          `json:"id,omitempty"`
	Graph *server.GraphJSON `json:"graph,omitempty"`
	Done  bool              `json:"done,omitempty"`
	Epoch uint64            `json:"epoch,omitempty"`
	MaxID int64             `json:"max_id,omitempty"`
}

// ClusterStats is GET /cluster on the coordinator: topology, per-node
// health and fan-out counters. Its GET /stats is the serving layer's
// server.StatsResponse, like any sqserve.
type ClusterStats struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Spec          string          `json:"method"`
	Shards        int             `json:"shards"`
	Replication   int             `json:"replication"`
	Epoch         uint64          `json:"epoch"`
	Graphs        int             `json:"graphs"`
	Nodes         []NodeStatus    `json:"nodes"`
	Requests      ClusterRequests `json:"requests"`
	Fanout        FanoutStats     `json:"fanout"`
}

// NodeStatus is one node's health row in /cluster.
type NodeStatus struct {
	Name   string `json:"name"`
	Addr   string `json:"addr"`
	Up     bool   `json:"up"`
	Shards []int  `json:"shards"`
	// Stale lists shards the node owns under the placement but currently
	// serves at an older epoch than the coordinator requires (it missed a
	// mutation while down); they are excluded from fan-out until
	// re-replication refreshes them.
	Stale []int `json:"stale,omitempty"`
}

// ClusterRequests counts coordinator calls by kind: one-shot queries
// (each /batch item is one), streams (limit=N one-shots included), and
// mutations, plus the ones that failed.
type ClusterRequests struct {
	Query  int64 `json:"query"`
	Stream int64 `json:"stream"`
	Mutate int64 `json:"mutate"`
	Errors int64 `json:"errors"`
}

// FanoutStats counts fan-out mechanics: partial responses served, per-leg
// failovers, hedges fired and won, and shards re-replicated.
type FanoutStats struct {
	Partials      int64 `json:"partials"`
	Failovers     int64 `json:"failovers"`
	HedgesFired   int64 `json:"hedges_fired"`
	HedgesWon     int64 `json:"hedges_won"`
	Rereplicated  int64 `json:"rereplicated"`
	StaleRejected int64 `json:"stale_rejected"`
	// Rollbacks counts shards adopted at an older epoch because no fresh
	// owner survived — the bounded data loss of an under-replicated
	// cluster, counted rather than silent.
	Rollbacks int64 `json:"rollbacks,omitempty"`
}
