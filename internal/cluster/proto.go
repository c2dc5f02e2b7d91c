package cluster

import (
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// Node-protocol wire types. The node side of the cluster speaks an
// extension of the public serving protocol: graphs travel as
// server.GraphJSON (label strings, resolved against each node's own
// dictionary) and streams as server.StreamLine NDJSON, so the node endpoints
// are the existing protocol plus shard addressing and epoch propagation.

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

// ShardQueryResponse is POST /node/query?shards=...: per-shard results in
// parent-dataset (global) ids.
type ShardQueryResponse struct {
	Node    string        `json:"node"`
	Results []ShardResult `json:"results"`
	// Trace is the node-side span tree, echoed when the request carried an
	// X-SQ-Trace header; the coordinator grafts it under its leg span so
	// one tree covers both processes.
	Trace *obs.SpanTree `json:"trace,omitempty"`
}

// ShardResult is one shard's answer to a fan-out query. Epoch lets the
// coordinator reject a stale replica: a node that missed a mutation to the
// shard reports an older epoch than the coordinator requires and the
// coordinator fails the leg over to a fresh owner.
type ShardResult struct {
	Shard      int         `json:"shard"`
	Epoch      uint64      `json:"epoch"`
	Candidates graph.IDSet `json:"candidates"`
	Answers    graph.IDSet `json:"answers"`
	FilterUs   int64       `json:"filter_us"`
	VerifyUs   int64       `json:"verify_us"`
	// Produced/Verified are the shard pipeline's candidate counters, summed
	// by the coordinator so a merged cluster response reports its pipeline
	// work like a single-process one.
	Produced int `json:"produced,omitempty"`
	Verified int `json:"verified,omitempty"`
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
	// StaleRetries counts streaming legs retried on the same node after a
	// concurrent mutation aborted their chunked-locking stream.
	StaleRetries int64 `json:"stale_retries,omitempty"`
	// Rollbacks counts shards adopted at an older epoch because no fresh
	// owner survived — the bounded data loss of an under-replicated
	// cluster, counted rather than silent.
	Rollbacks int64 `json:"rollbacks,omitempty"`
}
