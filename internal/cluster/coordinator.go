package cluster

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// CoordConfig tunes the coordinator's fan-out behaviour.
type CoordConfig struct {
	// NodeTimeout bounds each fan-out leg (default 10s).
	NodeTimeout time.Duration
	// HedgeDelay is how long a leg may run before a duplicate is fired at
	// the shard's next replica, first result winning (default 2s; negative
	// disables hedging; hedges only fire when a replica exists).
	HedgeDelay time.Duration
	// ProbeInterval is the membership health-check period (default 2s;
	// negative disables the background prober — tests drive ProbeOnce).
	ProbeInterval time.Duration
	// Client performs node requests; it should carry no overall timeout.
	Client *http.Client
	// Logf receives membership and re-replication events (default log.Printf).
	Logf func(format string, args ...any)
	// Registry hosts the coordinator's metrics families (request counts,
	// fan-out mechanics) and its membership health checks; pass it as
	// server.Config.Registry so the serving face exposes them at
	// GET /metrics and GET /health/score. Nil creates a private registry.
	Registry *obs.Registry
	// ScrapeTimeout bounds each per-node leg of a GET /metrics/cluster
	// federation scrape (default 3s).
	ScrapeTimeout time.Duration
}

// nodeState is the coordinator's view of one member.
type nodeState struct {
	info   NodeInfo
	client *NodeClient
	// up is flipped by probes and by transport failures mid-request.
	up bool
	// stale maps shard -> the epoch the node last reported for it, for
	// shards the node serves at an older epoch than the coordinator
	// requires (it missed mutations while down). Stale shards are excluded
	// from fan-out until re-replication refreshes them.
	stale map[int]uint64
}

// Coordinator owns the cluster: the manifest placement, the cluster epoch
// and id allocator, membership health, and the fan-out/merge machinery that
// makes N nodes answer exactly like one in-process sharded engine. It is an
// engine.Querier, so server.New serves it like any in-process shape; Handler
// adds the two cluster-only views.
type Coordinator struct {
	cfg CoordConfig
	man *Manifest
	// ds holds no graphs: only a name and the label dictionary query graphs
	// resolve against — the union of every node's labels plus the labels of
	// graphs added through the coordinator.
	ds *graph.Dataset

	// mu guards nodes' up/stale state, shardEpoch, extras, clusterEpoch,
	// nextID, and graphs.
	mu    sync.RWMutex
	nodes []*nodeState
	// shardEpoch is the epoch of the last committed mutation per shard.
	shardEpoch []uint64
	// extras lists re-replication owners per shard, beyond the manifest's.
	extras       [][]int
	clusterEpoch uint64
	nextID       graph.ID
	graphs       int
	spec         string

	// mutateMu serializes mutations: the coordinator is the single writer,
	// so epochs and ids are totally ordered across the cluster.
	mutateMu sync.Mutex

	start     time.Time
	stopProbe chan struct{}
	probeWG   sync.WaitGroup

	// Counters live on cfg.Registry so /stats and /metrics read the same
	// cells; the fields are the cells, fetched once at construction.
	reqQuery, reqStream, reqMutate, reqErrors            *obs.Counter
	partials, failovers, hedgesFired, hedgesWon          *obs.Counter
	rereplicated, staleRejected, rollbacks, staleRetries *obs.Counter

	// Per-node membership gauges, refreshed at scrape time by a collect
	// hook (see refreshNodeGauges), plus the federation failure gauge.
	nodeUp, nodeStale, nodeShards *obs.Family
	fedFailed                     *obs.Gauge
}

// ErrNoOwner means a shard had no reachable fresh owner; a mutation that
// fails with it applied nothing and is retryable.
var ErrNoOwner = fmt.Errorf("cluster: shard has no reachable owner: %w", engine.ErrUnavailable)

var _ engine.Querier = (*Coordinator)(nil)

// NewCoordinator connects to the manifest's nodes, seeds the id allocator,
// the per-shard epochs and the label dictionary from what they report, and
// starts the health prober. An unreachable node is tolerated as long as
// some owner of each of its shards answers — it joins when the prober sees
// it — but a shard no owner answers for is an error: the labels only its
// graphs carry would be unknown, and a query using one would be answered
// empty instead of flagged partial.
func NewCoordinator(ctx context.Context, man *Manifest, cfg CoordConfig) (*Coordinator, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if cfg.NodeTimeout == 0 {
		cfg.NodeTimeout = 10 * time.Second
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:        cfg,
		man:        man,
		ds:         graph.NewDataset("cluster"),
		nodes:      make([]*nodeState, len(man.Nodes)),
		shardEpoch: make([]uint64, man.Shards),
		extras:     make([][]int, man.Shards),
		nextID:     0,
		start:      time.Now(),
		stopProbe:  make(chan struct{}),
	}
	req := cfg.Registry.Counter("sq_cluster_requests_total", "Coordinator requests by kind.", "kind")
	c.reqQuery = req.Counter("query")
	c.reqStream = req.Counter("stream")
	c.reqMutate = req.Counter("mutate")
	c.reqErrors = req.Counter("errors")
	c.partials = cfg.Registry.Counter("sq_cluster_partials_total",
		"Queries answered with one or more shards missing.").Counter()
	c.failovers = cfg.Registry.Counter("sq_cluster_failovers_total",
		"Fan-out legs retried on another owner.").Counter()
	c.hedgesFired = cfg.Registry.Counter("sq_cluster_hedges_fired_total",
		"Duplicate legs fired after the hedge delay.").Counter()
	c.hedgesWon = cfg.Registry.Counter("sq_cluster_hedges_won_total",
		"Shards resolved by a hedged leg.").Counter()
	c.rereplicated = cfg.Registry.Counter("sq_cluster_rereplicated_total",
		"Shard loads performed to restore replication.").Counter()
	c.staleRejected = cfg.Registry.Counter("sq_cluster_stale_rejected_total",
		"Shard results rejected for reporting an old epoch.").Counter()
	c.rollbacks = cfg.Registry.Counter("sq_cluster_rollbacks_total",
		"Shards adopted at an older epoch because no fresh owner survived.").Counter()
	c.staleRetries = cfg.Registry.Counter("sq_cluster_stale_retries_total",
		"Streaming legs retried on the same node after a mutation aborted them.").Counter()
	c.nodeUp = cfg.Registry.Gauge("sq_cluster_node_up",
		"Whether the coordinator considers the node up (1) per its probes.", "node", "name")
	c.nodeStale = cfg.Registry.Gauge("sq_cluster_node_stale_shards",
		"Shards the node serves at an old epoch, excluded from fan-out.", "node", "name")
	c.nodeShards = cfg.Registry.Gauge("sq_cluster_node_shards",
		"Shards the node owns (manifest placement plus re-replication).", "node", "name")
	c.fedFailed = cfg.Registry.Gauge("sq_federate_failed_nodes",
		"Nodes whose /metrics scrape failed in the last federation request.").Gauge()
	cfg.Registry.OnCollect(c.refreshNodeGauges)
	cfg.Registry.OnHealth(c.healthChecks)
	for i, ni := range man.Nodes {
		c.nodes[i] = &nodeState{
			info:   ni,
			client: &NodeClient{Addr: ni.Addr, HTTP: cfg.Client},
			stale:  make(map[int]uint64),
		}
	}
	// Seed from whoever answers: the id allocator must clear every id any
	// node has ever homed, and per-shard epochs start at the maximum any
	// owner reports (a restarted cluster resumes its epoch history).
	var infos []InfoResponse
	for _, ns := range c.nodes {
		ictx, cancel := context.WithTimeout(ctx, cfg.NodeTimeout)
		info, err := ns.client.Info(ictx)
		cancel()
		if err != nil {
			cfg.Logf("cluster: node %s (%s) unreachable at startup: %v", ns.info.Name, ns.info.Addr, err)
			continue
		}
		c.learnLabels(info)
		ns.up = true
		infos = append(infos, info)
		if c.spec == "" {
			c.spec = info.Spec
		} else if info.Spec != c.spec {
			return nil, fmt.Errorf("cluster: node %s runs %q, cluster runs %q", ns.info.Name, info.Spec, c.spec)
		}
		if info.ShardCount != man.Shards {
			return nil, fmt.Errorf("cluster: node %s partitions into %d shards, manifest says %d", ns.info.Name, info.ShardCount, man.Shards)
		}
		if info.MaxGlobalID >= int64(c.nextID) {
			c.nextID = graph.ID(info.MaxGlobalID + 1)
		}
		for _, si := range info.Shards {
			if si.Epoch > c.shardEpoch[si.Shard] {
				c.shardEpoch[si.Shard] = si.Epoch
			}
		}
	}
	var unanswered []int
	for s := 0; s < man.Shards; s++ {
		if len(c.eligible(s)) == 0 {
			unanswered = append(unanswered, s)
		}
	}
	if len(unanswered) > 0 {
		return nil, fmt.Errorf("cluster: no owner of shards %v answered /node/info; start one before the coordinator", unanswered)
	}
	for _, e := range c.shardEpoch {
		if e > c.clusterEpoch {
			c.clusterEpoch = e
		}
	}
	// The live-graph total counts each shard once, from a fresh owner.
	counts := make(map[int]int, man.Shards)
	for _, info := range infos {
		for _, si := range info.Shards {
			if si.Epoch == c.shardEpoch[si.Shard] {
				counts[si.Shard] = si.Graphs
			}
		}
	}
	for _, n := range counts {
		c.graphs += n
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the health prober.
func (c *Coordinator) Close() {
	close(c.stopProbe)
	c.probeWG.Wait()
}

// Manifest returns the cluster topology.
func (c *Coordinator) Manifest() *Manifest { return c.man }

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.cfg.Registry }

// Name returns the canonical method spec the nodes run — the method name
// the coordinator's answers carry.
func (c *Coordinator) Name() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.spec
}

// Dataset implements engine.Querier: a dataset with no graphs, carrying
// the cluster's label dictionary.
func (c *Coordinator) Dataset() *graph.Dataset { return c.ds }

// Ready implements engine.Querier: the coordinator holds no index to warm;
// a node that is still warming fails its own /readyz and is routed around.
func (c *Coordinator) Ready() bool { return true }

// Epoch implements engine.Mutable: the cluster epoch, bumped by every
// committed mutation.
func (c *Coordinator) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.clusterEpoch
}

// Counts implements engine.Mutable: the live graph total, and every other
// id assigned so far as removed.
func (c *Coordinator) Counts() (live, removed int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.graphs, max(int(c.nextID)-c.graphs, 0)
}

// learnLabels interns the labels a node reports, so queries naming them
// reach the fan-out instead of the unknown-label short-circuit.
func (c *Coordinator) learnLabels(info InfoResponse) {
	for _, l := range info.Labels {
		c.ds.Dict.Intern(l)
	}
}

// owners returns shard s's owner node indexes, manifest placement first,
// then re-replication extras. Callers hold c.mu.
func (c *Coordinator) owners(s int) []int {
	base := c.man.Owners(s)
	if len(c.extras[s]) == 0 {
		return base
	}
	return append(append([]int{}, base...), c.extras[s]...)
}

// eligible returns the owner indexes fit to serve shard s right now: up and
// not stale. Callers hold c.mu.
func (c *Coordinator) eligible(s int) []int {
	var out []int
	for _, o := range c.owners(s) {
		ns := c.nodes[o]
		if !ns.up {
			continue
		}
		if _, isStale := ns.stale[s]; isStale {
			continue
		}
		out = append(out, o)
	}
	return out
}

// markDown flips a node down after a transport failure and marks every
// shard it owns as needing an epoch check at rejoin.
func (c *Coordinator) markDown(i int, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.nodes[i]
	if !ns.up {
		return
	}
	ns.up = false
	c.cfg.Logf("cluster: node %s down: %v", ns.info.Name, cause)
}

// rejectStale is the staleness rule of both kinds of leg: node i serves
// shard s at reportedEpoch, older than required, so the leg is rejected
// (counted) and the node marked stale; the caller fails the shard over.
func (c *Coordinator) rejectStale(i, s int, reportedEpoch uint64) {
	c.staleRejected.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[i].stale[s] = reportedEpoch
}

// isTransport reports an error that indicts the node's process (connection
// refused/reset, timeout at transport level) rather than this one request.
func isTransport(err error) bool {
	var ne *NodeError
	var se *StaleShardError
	return !errors.As(err, &ne) && !errors.As(err, &se) && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrLegStale)
}

// ---------------------------------------------------------------------------
// Query fan-out

// shardOutcome is one attempt's result for one shard.
type shardOutcome struct {
	shard int
	node  int
	hedge bool
	res   *ShardResult
	err   error
}

// Query implements engine.Querier: q fans across the shard owners as wire
// labels and the per-shard results merge in global ids. Produced/Verified
// sum the shards' pipeline counters; FilterTime is the slowest shard's
// filter and VerifyTime the rest of the wall time. Shards
// whose every owner is unreachable are listed in FailedShards — a degraded
// answer is flagged, never silent.
func (c *Coordinator) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	c.reqQuery.Add(1)
	ctx, sp := obs.StartSpan(ctx, "cluster-query")
	t0 := time.Now()
	resolved, failed, err := c.fanQuery(ctx, server.GraphToJSON(q, &c.ds.Dict))
	if err != nil {
		sp.Cancel()
		c.reqErrors.Add(1)
		return nil, err
	}
	_, msp := obs.StartSpan(ctx, "merge")
	out := &core.QueryResult{Candidates: graph.IDSet{}, Answers: graph.IDSet{}, Method: c.Name()}
	var filterUs int64
	for _, r := range resolved {
		out.Candidates = append(out.Candidates, r.Candidates...)
		out.Answers = append(out.Answers, r.Answers...)
		filterUs = max(filterUs, r.FilterUs)
		out.Produced += r.Produced
		out.Verified += r.Verified
	}
	sort.Slice(out.Candidates, func(i, j int) bool { return out.Candidates[i] < out.Candidates[j] })
	sort.Slice(out.Answers, func(i, j int) bool { return out.Answers[i] < out.Answers[j] })
	msp.Attr("shards", len(resolved))
	msp.End()
	if len(failed) > 0 {
		sort.Ints(failed)
		out.FailedShards = failed
		c.partials.Add(1)
		sp.Attr("partial", true)
	}
	out.FilterTime = time.Duration(filterUs) * time.Microsecond
	out.VerifyTime = max(time.Since(t0)-out.FilterTime, 0)
	sp.Attr("answers", len(out.Answers))
	sp.End()
	return out, nil
}

// fanQuery runs the per-shard fan-out state machine: wave 0 groups shards
// by their first eligible owner; a failed leg fails each of its shards over
// to the next untried owner; after HedgeDelay, still-unresolved shards get
// a duplicate attempt on their next replica, first result winning. Stale
// results (epoch older than the shard requires) are rejected and failed
// over. Returns resolved per-shard results and the shards that exhausted
// every owner.
func (c *Coordinator) fanQuery(ctx context.Context, gj server.GraphJSON) (map[int]*ShardResult, []int, error) {
	c.mu.RLock()
	nShards := c.man.Shards
	required := append([]uint64{}, c.shardEpoch...)
	ownerSeq := make([][]int, nShards)
	for s := 0; s < nShards; s++ {
		ownerSeq[s] = c.eligible(s)
	}
	c.mu.RUnlock()

	resolved := make(map[int]*ShardResult, nShards)
	failedSet := make(map[int]bool)
	tried := make([]map[int]bool, nShards)
	inflight := make([]int, nShards)
	for s := range tried {
		tried[s] = make(map[int]bool)
	}
	// Each (shard, owner) pair is attempted at most once, so this buffer
	// bounds every send: attempt goroutines never block, and the final
	// wait below cannot deadlock.
	maxOutcomes := 0
	for s := 0; s < nShards; s++ {
		maxOutcomes += len(ownerSeq[s])
	}
	outcomes := make(chan shardOutcome, maxOutcomes)

	attemptCtx, cancelAttempts := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancelAttempts()
		wg.Wait()
	}()

	launch := func(nodeIdx int, shards []int, hedge bool) {
		for _, s := range shards {
			tried[s][nodeIdx] = true
			inflight[s]++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The leg span lives under the request's root span (attemptCtx
			// inherits ctx's values); the node's echoed subtree grafts under
			// it, and a leg cancelled because the fan-out already finished —
			// a hedged loser — is marked cancelled, not failed.
			sctx, lsp := obs.StartSpan(attemptCtx, "node:"+c.nodes[nodeIdx].info.Name)
			lsp.Attr("shards", shards)
			if hedge {
				lsp.Attr("hedge", true)
			}
			lctx, cancel := context.WithTimeout(sctx, c.cfg.NodeTimeout)
			defer cancel()
			resp, err := c.nodes[nodeIdx].client.Query(lctx, shards, gj)
			if err != nil {
				if attemptCtx.Err() != nil {
					lsp.Cancel()
				} else {
					lsp.Attr("error", err.Error())
					lsp.End()
				}
				if isTransport(err) && attemptCtx.Err() == nil {
					c.markDown(nodeIdx, err)
				}
				for _, s := range shards {
					outcomes <- shardOutcome{shard: s, node: nodeIdx, hedge: hedge, err: err}
				}
				return
			}
			lsp.Graft(resp.Trace)
			lsp.End()
			byShard := make(map[int]*ShardResult, len(resp.Results))
			for i := range resp.Results {
				byShard[resp.Results[i].Shard] = &resp.Results[i]
			}
			for _, s := range shards {
				if r, ok := byShard[s]; ok {
					outcomes <- shardOutcome{shard: s, node: nodeIdx, hedge: hedge, res: r}
				} else {
					outcomes <- shardOutcome{shard: s, node: nodeIdx, hedge: hedge,
						err: fmt.Errorf("node %s omitted shard %d", c.nodes[nodeIdx].info.Name, s)}
				}
			}
		}()
	}

	nextUntried := func(s int) int {
		for _, o := range ownerSeq[s] {
			if !tried[s][o] {
				return o
			}
		}
		return -1
	}

	// Wave 0: group shards by their first eligible owner so each node gets
	// one request covering all its shards.
	wave0 := make(map[int][]int)
	for s := 0; s < nShards; s++ {
		if len(ownerSeq[s]) == 0 {
			failedSet[s] = true
			continue
		}
		o := ownerSeq[s][0]
		wave0[o] = append(wave0[o], s)
	}
	for o, shards := range wave0 {
		launch(o, shards, false)
	}

	var hedgeCh <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeCh = t.C
	}

	for len(resolved)+len(failedSet) < nShards {
		select {
		case o := <-outcomes:
			inflight[o.shard]--
			if resolved[o.shard] != nil || failedSet[o.shard] {
				continue
			}
			if o.err == nil {
				if o.res.Epoch < required[o.shard] {
					c.rejectStale(o.node, o.shard, o.res.Epoch)
					o.err = fmt.Errorf("node %s serves shard %d at epoch %d, need %d",
						c.nodes[o.node].info.Name, o.shard, o.res.Epoch, required[o.shard])
				} else {
					resolved[o.shard] = o.res
					if o.hedge {
						c.hedgesWon.Add(1)
					}
					continue
				}
			}
			if next := nextUntried(o.shard); next >= 0 {
				c.failovers.Add(1)
				launch(next, []int{o.shard}, false)
			} else if inflight[o.shard] == 0 {
				failedSet[o.shard] = true
			}
		case <-hedgeCh:
			hedgeCh = nil
			hedges := make(map[int][]int)
			for s := 0; s < nShards; s++ {
				if resolved[s] != nil || failedSet[s] {
					continue
				}
				if next := nextUntried(s); next >= 0 {
					hedges[next] = append(hedges[next], s)
				}
			}
			for o, shards := range hedges {
				c.hedgesFired.Add(1)
				launch(o, shards, true)
			}
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	var failed []int
	for s := range failedSet {
		failed = append(failed, s)
	}
	return resolved, failed, nil
}

// ---------------------------------------------------------------------------
// Streaming fan-out

// streamMsg is one message from a stream leg: an answer id, or a terminal
// (done or err) with the leg's pipeline accounting.
type streamMsg struct {
	id       graph.ID
	terminal bool
	err      error
	tail     StreamTail
}

// streamLeg is one live node stream covering a set of shards.
type streamLeg struct {
	node   int
	shards []int
	ch     chan streamMsg
	cancel context.CancelFunc
	head   graph.ID
}

// Stream implements engine.Querier: StreamStats without accounting.
func (c *Coordinator) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return c.StreamStats(ctx, q, nil)
}

// StreamStats implements engine.Querier: q fans out as one stream leg per
// first-owner node, and the legs k-way merge into a single ascending
// global-id sequence. A leg that dies mid-stream is replaced per shard on
// the next owner, resumed strictly after the shard's last emitted id — the
// replacement re-yields exactly the unemitted suffix, so nothing is lost,
// duplicated, or reordered. Before the sequence ends, stats.FailedShards
// lists the shards whose owners were exhausted. Produced and Verified sum
// the node-side counters of the legs that ran to completion (a leg
// cancelled mid-stream never reports its tail): exact when the stream is
// consumed fully, a lower bound when it stops early.
func (c *Coordinator) StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		c.reqStream.Add(1)
		st := stats
		if st == nil {
			st = new(core.PipelineStats)
		}
		ctx, sp := obs.StartSpan(ctx, "cluster-query")
		err := c.stream(ctx, server.GraphToJSON(q, &c.ds.Dict), st, func(id graph.ID) bool { return yield(id, nil) })
		if err != nil {
			sp.Cancel()
			c.reqErrors.Add(1)
			yield(0, err)
			return
		}
		sp.End()
	}
}

// stream runs StreamStats' merge, calling emit per answer; emit returning
// false stops it.
func (c *Coordinator) stream(ctx context.Context, gj server.GraphJSON, stats *core.PipelineStats, emit func(graph.ID) bool) error {
	c.mu.RLock()
	nShards := c.man.Shards
	required := append([]uint64{}, c.shardEpoch...)
	ownerSeq := make([][]int, nShards)
	for s := 0; s < nShards; s++ {
		ownerSeq[s] = c.eligible(s)
	}
	c.mu.RUnlock()

	tried := make([]map[int]bool, nShards)
	lastEmitted := make([]graph.ID, nShards)
	for s := range tried {
		tried[s] = make(map[int]bool)
		lastEmitted[s] = -1
	}
	failedSet := make(map[int]bool)
	// A stream stopped early reports the shards known lost so far too: an
	// answer they owe could precede the ids already emitted.
	defer func() {
		if len(failedSet) == 0 {
			return
		}
		for s := range failedSet {
			stats.FailedShards = append(stats.FailedShards, s)
		}
		sort.Ints(stats.FailedShards)
		c.partials.Add(1)
	}()

	legCtx, cancelLegs := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancelLegs()
		wg.Wait()
	}()

	launch := func(nodeIdx int, shards []int, after graph.ID) *streamLeg {
		need := make([]uint64, len(shards))
		for i, s := range shards {
			tried[s][nodeIdx] = true
			need[i] = required[s]
		}
		lctx, cancel := context.WithCancel(legCtx)
		leg := &streamLeg{node: nodeIdx, shards: shards, ch: make(chan streamMsg, 64), cancel: cancel}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tail, err := c.nodes[nodeIdx].client.Stream(lctx, shards, need, gj, after, func(id graph.ID) bool {
				select {
				case leg.ch <- streamMsg{id: id}:
					return true
				case <-lctx.Done():
					return false
				}
			})
			if err != nil && isTransport(err) && legCtx.Err() == nil {
				c.markDown(nodeIdx, err)
			}
			select {
			case leg.ch <- streamMsg{terminal: true, err: err, tail: tail}:
			case <-lctx.Done():
			}
		}()
		return leg
	}

	// failover replaces a dead leg. A leg the node aborted because a
	// mutation landed under its chunked-locking stream (ErrLegStale) is
	// retried on the SAME node — the node is healthy and the resume
	// frontier skips everything already emitted — bounded per shard so a
	// mutation storm degrades to normal failover instead of livelock. A
	// leg refused for a stale shard (*StaleShardError) fails that shard
	// over and reopens its other shards on the same node. Any other death
	// restarts each shard on its next untried owner, resumed after that
	// shard's last emitted id.
	const maxStaleRetries = 8
	staleRetries := make([]int, nShards)
	var legs []*streamLeg
	failover := func(leg *streamLeg, cause error) {
		stale := errors.Is(cause, ErrLegStale)
		var refused *StaleShardError
		if errors.As(cause, &refused) {
			c.rejectStale(leg.node, refused.Shard, refused.Epoch)
		}
		for _, s := range leg.shards {
			if refused != nil && s != refused.Shard {
				legs = append(legs, launch(leg.node, []int{s}, lastEmitted[s]))
				continue
			}
			if stale && staleRetries[s] < maxStaleRetries {
				staleRetries[s]++
				c.staleRetries.Add(1)
				legs = append(legs, launch(leg.node, []int{s}, lastEmitted[s]))
				continue
			}
			next := -1
			for _, o := range ownerSeq[s] {
				if !tried[s][o] {
					next = o
					break
				}
			}
			if next < 0 {
				failedSet[s] = true
				continue
			}
			c.failovers.Add(1)
			legs = append(legs, launch(next, []int{s}, lastEmitted[s]))
		}
	}

	// advance pulls leg's next head, skipping ids at or below the merge
	// frontier (a replacement leg may replay a prefix). Returns false when
	// the leg terminated; a terminal error triggers failover.
	frontier := graph.ID(-1)
	advance := func(leg *streamLeg) (bool, error) {
		for {
			select {
			case m := <-leg.ch:
				if m.terminal {
					leg.cancel()
					stats.Produced.Add(m.tail.Produced)
					stats.Verified.Add(m.tail.Verified)
					if m.err != nil {
						failover(leg, m.err)
					}
					return false, nil
				}
				if m.id <= frontier {
					continue
				}
				leg.head = m.id
				return true, nil
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
	}

	wave0 := make(map[int][]int)
	for s := 0; s < nShards; s++ {
		if len(ownerSeq[s]) == 0 {
			failedSet[s] = true
			continue
		}
		wave0[ownerSeq[s][0]] = append(wave0[ownerSeq[s][0]], s)
	}
	for o, shards := range wave0 {
		legs = append(legs, launch(o, shards, -1))
	}

	// Prime heads; legs that die here are failed over by advance itself
	// (failover appends to legs, which this loop re-checks via the index).
	heads := legs[:0:0]
	for i := 0; i < len(legs); i++ {
		ok, err := advance(legs[i])
		if err != nil {
			return err
		}
		if ok {
			heads = append(heads, legs[i])
		}
	}

	for len(heads) > 0 {
		// Emit the minimum head; shards are disjoint so ids never tie.
		min := 0
		for i := 1; i < len(heads); i++ {
			if heads[i].head < heads[min].head {
				min = i
			}
		}
		leg := heads[min]
		id := leg.head
		if !emit(id) {
			return nil
		}
		frontier = id
		lastEmitted[engine.ShardOf(id, nShards)] = id
		before := len(legs)
		ok, err := advance(leg)
		if err != nil {
			return err
		}
		if !ok {
			heads = append(heads[:min], heads[min+1:]...)
		}
		// Prime any replacement legs failover just launched.
		for i := before; i < len(legs); i++ {
			ok, err := advance(legs[i])
			if err != nil {
				return err
			}
			if ok {
				heads = append(heads, legs[i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Mutations

// AddGraph implements engine.Mutable: g travels to every owner of its shard
// by label name. The coordinator assigns the id and epoch under the
// mutation lock, so mutations are totally ordered cluster-wide; the
// mutation commits when at least one owner applies it, and owners that
// missed it are marked stale for re-replication. With no owner reachable
// it fails with ErrNoOwner and applies nothing.
func (c *Coordinator) AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	if g == nil || g.NumVertices() == 0 {
		return 0, errors.New("cluster: cannot add an empty graph")
	}
	gj := server.GraphToJSON(g, &c.ds.Dict)
	c.reqMutate.Add(1)
	c.mutateMu.Lock()
	defer c.mutateMu.Unlock()

	c.mu.RLock()
	id := c.nextID
	epoch := c.clusterEpoch + 1
	s := engine.ShardOf(id, c.man.Shards)
	targets := c.eligible(s)
	prevEpoch := c.shardEpoch[s]
	c.mu.RUnlock()

	acked, _, failed := c.routeMutation(ctx, targets, func(ctx context.Context, nc *NodeClient) error {
		_, err := nc.Add(ctx, AddRequest{ID: id, Epoch: epoch, Graph: gj})
		return err
	})
	if acked == 0 {
		c.reqErrors.Add(1)
		return 0, fmt.Errorf("%w: shard %d (graph %d not added)", ErrNoOwner, s, id)
	}
	c.mu.Lock()
	c.nextID = id + 1
	c.clusterEpoch = epoch
	c.shardEpoch[s] = epoch
	c.graphs++
	for _, o := range failed {
		c.nodes[o].stale[s] = prevEpoch
	}
	c.mu.Unlock()
	return id, nil
}

// RemoveGraph implements engine.Mutable: the graph is tombstoned on every
// owner of its shard. All fresh owners agreeing the id is unknown surfaces
// as engine.ErrNoSuchGraph.
func (c *Coordinator) RemoveGraph(ctx context.Context, id graph.ID) error {
	c.reqMutate.Add(1)
	c.mutateMu.Lock()
	defer c.mutateMu.Unlock()

	c.mu.RLock()
	epoch := c.clusterEpoch + 1
	s := engine.ShardOf(id, c.man.Shards)
	targets := c.eligible(s)
	prevEpoch := c.shardEpoch[s]
	c.mu.RUnlock()

	acked, unknown, failed := c.routeMutation(ctx, targets, func(ctx context.Context, nc *NodeClient) error {
		_, err := nc.Remove(ctx, id, epoch)
		return err
	})
	if acked == 0 {
		c.reqErrors.Add(1)
		if unknown > 0 && unknown == len(targets) {
			return fmt.Errorf("%w: graph %d", engine.ErrNoSuchGraph, id)
		}
		return fmt.Errorf("%w: shard %d (graph %d not removed)", ErrNoOwner, s, id)
	}
	c.mu.Lock()
	c.clusterEpoch = epoch
	c.shardEpoch[s] = epoch
	if c.graphs > 0 {
		c.graphs--
	}
	for _, o := range failed {
		c.nodes[o].stale[s] = prevEpoch
	}
	c.mu.Unlock()
	return nil
}

// routeMutation applies op to each target owner sequentially (the mutation
// lock serializes writers anyway), each under its own NodeTimeout budget so
// a hung owner costs one leg, not the request. It returns the ack count,
// the count of owners answering 404 (unknown graph: neither an ack nor a
// staleness signal), and the node indexes that failed otherwise.
func (c *Coordinator) routeMutation(ctx context.Context, targets []int, op func(context.Context, *NodeClient) error) (acked, unknown int, failed []int) {
	for _, o := range targets {
		octx, cancel := context.WithTimeout(ctx, c.cfg.NodeTimeout)
		err := op(octx, c.nodes[o].client)
		cancel()
		if err == nil {
			acked++
			continue
		}
		var ne *NodeError
		if errors.As(err, &ne) && ne.Status == http.StatusNotFound {
			unknown++
			continue
		}
		if isTransport(err) {
			c.markDown(o, err)
		}
		failed = append(failed, o)
	}
	return acked, unknown, failed
}

// ---------------------------------------------------------------------------
// Membership and re-replication

func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.NodeTimeout)
			c.ProbeOnce(ctx)
			cancel()
		case <-c.stopProbe:
			return
		}
	}
}

// ProbeOnce health-checks every node, reconciles membership transitions,
// and repairs stale or under-replicated shards. The background prober calls
// it periodically; tests call it directly.
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	type probe struct {
		i    int
		up   bool
		info InfoResponse
	}
	results := make([]probe, len(c.nodes))
	var wg sync.WaitGroup
	for i, ns := range c.nodes {
		wg.Add(1)
		go func(i int, ns *nodeState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.cfg.NodeTimeout)
			defer cancel()
			if err := ns.client.Ready(pctx); err != nil {
				results[i] = probe{i: i}
				return
			}
			info, err := ns.client.Info(pctx)
			if err != nil {
				results[i] = probe{i: i}
				return
			}
			results[i] = probe{i: i, up: true, info: info}
		}(i, ns)
	}
	wg.Wait()

	// Labels first: a node's shards become eligible below, and a query
	// reaching them must already resolve every label they hold.
	for _, p := range results {
		c.learnLabels(p.info)
	}
	c.mu.Lock()
	for _, p := range results {
		ns := c.nodes[p.i]
		wasUp := ns.up
		ns.up = p.up
		if !p.up {
			if wasUp {
				c.cfg.Logf("cluster: node %s down (probe failed)", ns.info.Name)
			}
			continue
		}
		if !wasUp {
			c.cfg.Logf("cluster: node %s up", ns.info.Name)
		}
		// Reconcile the node's reported shards against required epochs: a
		// shard at an older epoch is stale; a required shard the node no
		// longer serves is stale at epoch 0 (it must be re-loaded); a fresh
		// one clears any stale mark.
		reported := make(map[int]uint64, len(p.info.Shards))
		for _, si := range p.info.Shards {
			reported[si.Shard] = si.Epoch
		}
		owned := make(map[int]bool)
		for s := 0; s < c.man.Shards; s++ {
			for _, o := range c.owners(s) {
				if o == p.i {
					owned[s] = true
				}
			}
		}
		for s := range owned {
			e, has := reported[s]
			switch {
			case has && e >= c.shardEpoch[s]:
				delete(ns.stale, s)
			case has:
				ns.stale[s] = e
			default:
				ns.stale[s] = 0
				// Track absence distinctly from epoch 0: an unserved shard
				// cannot satisfy even epoch-0 reads, so keep it stale until
				// loaded. (Epoch 0 with no mutations is repaired by a local
				// rebuild below.)
				if c.shardEpoch[s] == 0 {
					ns.stale[s] = ^uint64(0) // sentinel: must load, even at epoch 0
				}
			}
		}
	}
	c.mu.Unlock()

	c.repair(ctx)
}

// repair restores the replication invariant: every shard fresh on every up
// owner, Replication owners when membership allows. Stale owners reload
// from a fresh owner's dump (or rebuild locally when the shard was never
// mutated); a shard with no fresh owner left but a reachable stale one is
// adopted at the stale epoch — data past it is lost, which only happens
// when replication couldn't cover the failure, and is counted and logged
// rather than silent.
func (c *Coordinator) repair(ctx context.Context) {
	type job struct {
		node  int
		req   LoadRequest
		extra bool
	}
	var jobs []job

	c.mu.Lock()
	for s := 0; s < c.man.Shards; s++ {
		owners := c.owners(s)
		var fresh []int
		for _, o := range owners {
			ns := c.nodes[o]
			if !ns.up {
				continue
			}
			if _, isStale := ns.stale[s]; !isStale {
				fresh = append(fresh, o)
			}
		}
		if len(fresh) == 0 {
			// No fresh owner: adopt the best reachable stale epoch so the
			// shard serves again (bounded data loss, counted), or wait for
			// one to come back.
			best, bestEpoch := -1, uint64(0)
			for _, o := range owners {
				ns := c.nodes[o]
				if !ns.up {
					continue
				}
				if e, isStale := ns.stale[s]; isStale && e != ^uint64(0) && (best == -1 || e > bestEpoch) {
					best, bestEpoch = o, e
				}
			}
			if best >= 0 && bestEpoch < c.shardEpoch[s] {
				c.cfg.Logf("cluster: shard %d has no owner at epoch %d; adopting node %s at epoch %d (mutations past it lost)",
					s, c.shardEpoch[s], c.nodes[best].info.Name, bestEpoch)
				c.shardEpoch[s] = bestEpoch
				delete(c.nodes[best].stale, s)
				c.rollbacks.Add(1)
				fresh = []int{best}
			} else if best < 0 && c.shardEpoch[s] == 0 {
				// Never mutated: any up owner can rebuild it locally.
				for _, o := range owners {
					if c.nodes[o].up {
						jobs = append(jobs, job{node: o, req: LoadRequest{Shard: s, Epoch: 0}})
						break
					}
				}
				continue
			} else {
				continue
			}
		}
		src := c.nodes[fresh[0]].info.Addr
		// Refresh stale up owners from a fresh one.
		for _, o := range owners {
			ns := c.nodes[o]
			if !ns.up {
				continue
			}
			if _, isStale := ns.stale[s]; isStale {
				req := LoadRequest{Shard: s, Epoch: c.shardEpoch[s], From: src}
				if c.shardEpoch[s] == 0 {
					req.From = "" // never mutated: local rebuild is cheaper
				}
				jobs = append(jobs, job{node: o, req: req})
			}
		}
		// Under-replicated with spare up nodes: place an extra replica on
		// the next non-owner in the ring.
		if len(fresh) < c.man.Replication {
			isOwner := make(map[int]bool, len(owners))
			for _, o := range owners {
				isOwner[o] = true
			}
			for r := 0; r < len(c.nodes); r++ {
				cand := (s + r) % len(c.nodes)
				if isOwner[cand] || !c.nodes[cand].up {
					continue
				}
				req := LoadRequest{Shard: s, Epoch: c.shardEpoch[s], From: src}
				if c.shardEpoch[s] == 0 {
					req.From = ""
				}
				jobs = append(jobs, job{node: cand, req: req, extra: true})
				break
			}
		}
	}
	c.mu.Unlock()

	for _, j := range jobs {
		jctx, cancel := context.WithTimeout(ctx, c.cfg.NodeTimeout)
		ack, err := c.nodes[j.node].client.Load(jctx, j.req)
		cancel()
		if err != nil {
			c.cfg.Logf("cluster: loading shard %d onto %s: %v", j.req.Shard, c.nodes[j.node].info.Name, err)
			continue
		}
		c.rereplicated.Add(1)
		c.mu.Lock()
		delete(c.nodes[j.node].stale, j.req.Shard)
		if ack.Epoch < c.shardEpoch[j.req.Shard] {
			// The source moved on mid-copy; the prober will retry.
			c.nodes[j.node].stale[j.req.Shard] = ack.Epoch
		} else if j.extra {
			present := false
			for _, e := range c.extras[j.req.Shard] {
				if e == j.node {
					present = true
				}
			}
			if !present {
				c.extras[j.req.Shard] = append(c.extras[j.req.Shard], j.node)
			}
		}
		c.mu.Unlock()
		c.cfg.Logf("cluster: shard %d loaded onto %s at epoch %d", j.req.Shard, c.nodes[j.node].info.Name, ack.Epoch)
	}
}

// ---------------------------------------------------------------------------
// Introspection

// Stats snapshots the cluster state for GET /cluster.
func (c *Coordinator) Stats() ClusterStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := ClusterStats{
		UptimeSeconds: time.Since(c.start).Seconds(),
		Spec:          c.spec,
		Shards:        c.man.Shards,
		Replication:   c.man.Replication,
		Epoch:         c.clusterEpoch,
		Graphs:        c.graphs,
		Requests: ClusterRequests{
			Query:  c.reqQuery.Value(),
			Stream: c.reqStream.Value(),
			Mutate: c.reqMutate.Value(),
			Errors: c.reqErrors.Value(),
		},
		Fanout: FanoutStats{
			Partials:      c.partials.Value(),
			Failovers:     c.failovers.Value(),
			HedgesFired:   c.hedgesFired.Value(),
			HedgesWon:     c.hedgesWon.Value(),
			Rereplicated:  c.rereplicated.Value(),
			StaleRejected: c.staleRejected.Value(),
			StaleRetries:  c.staleRetries.Value(),
			Rollbacks:     c.rollbacks.Value(),
		},
	}
	for i, ns := range c.nodes {
		row := NodeStatus{Name: ns.info.Name, Addr: ns.info.Addr, Up: ns.up}
		for s := 0; s < c.man.Shards; s++ {
			for _, o := range c.owners(s) {
				if o == i {
					row.Shards = append(row.Shards, s)
					break
				}
			}
		}
		for s := range ns.stale {
			row.Stale = append(row.Stale, s)
		}
		sort.Ints(row.Stale)
		st.Nodes = append(st.Nodes, row)
	}
	return st
}
