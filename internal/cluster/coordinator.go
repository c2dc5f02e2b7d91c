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
	// NodeTimeout bounds each mutation leg and probe, and each query leg's
	// wait for its first line (default 10s).
	NodeTimeout time.Duration
	// HedgeDelay is how long a query leg may go without delivering a line
	// before a duplicate is opened on its shards' next replicas, the first
	// leg to deliver a line winning (default 2s; negative disables hedging;
	// hedges only fire when a replica exists).
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
	reqQuery, reqStream, reqMutate, reqErrors   *obs.Counter
	partials, failovers, hedgesFired, hedgesWon *obs.Counter
	rereplicated, staleRejected, rollbacks      *obs.Counter

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

// rejectStale is the staleness rule of every leg: node i serves shard s at
// reportedEpoch, older than required, so the leg is rejected (counted) and
// the node marked stale; the caller fails the shard over.
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
	return !errors.As(err, &ne) && !errors.As(err, &se) && !errors.Is(err, context.Canceled)
}

// ---------------------------------------------------------------------------
// Query fan-out

// Query implements engine.Querier: a drain of the one fan-out, as
// engine.Drain is a drain of the merge in-process. Answers arrive in
// ascending global ids from the merged node streams; Candidates are the
// live candidates each shard's completing leg reported on its done line;
// Produced and Verified sum the completed legs' counters. FilterTime is
// the time until every first-wave leg (or the leg that replaced it) has
// delivered its first line — when the merge can emit its first answer —
// and VerifyTime the rest of the wall time. Shards whose every owner is
// unreachable are listed in FailedShards — a degraded answer is flagged,
// never silent.
func (c *Coordinator) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	c.reqQuery.Add(1)
	cands := graph.IDSet{}
	st := core.PipelineStats{Candidates: &cands}
	out := &core.QueryResult{Answers: graph.IDSet{}, Method: c.Name()}
	t0 := time.Now()
	err := c.fan(ctx, q, &st, func(id graph.ID) bool {
		if out.Answers = append(out.Answers, id); len(out.Answers) == 1 {
			out.FilterTime = time.Since(t0)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	if len(out.Answers) == 0 {
		out.FilterTime = wall
	}
	out.VerifyTime = wall - out.FilterTime
	out.Candidates, out.FailedShards = cands, st.FailedShards
	out.Produced, out.Verified = int(st.Produced.Load()), int(st.Verified.Load())
	return out, nil
}

// Stream implements engine.Querier: StreamStats without accounting.
func (c *Coordinator) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return c.StreamStats(ctx, q, nil)
}

// StreamStats implements engine.Querier: the fan-out's merged legs as one
// ascending global-id sequence. A replacement leg resumes strictly after
// its shard's last emitted id, so nothing is lost, duplicated, or
// reordered. Before the sequence ends, stats.FailedShards lists the shards
// whose owners were exhausted. Produced and Verified sum the done lines of
// the legs that completed: exact when the stream is consumed fully, a lower
// bound when it stops early.
func (c *Coordinator) StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		c.reqStream.Add(1)
		st := stats
		if st == nil {
			st = new(core.PipelineStats)
		}
		if err := c.fan(ctx, q, st, func(id graph.ID) bool { return yield(id, nil) }); err != nil {
			yield(0, err)
		}
	}
}

// errNoFirstLine ends a leg whose node sent no line within NodeTimeout.
var errNoFirstLine = fmt.Errorf("cluster: node sent no line within the node timeout: %w", context.DeadlineExceeded)

// streamMsg is one message of a leg: an answer id, or its terminal — the
// done line (done.Done set), or the error that ended the leg.
type streamMsg struct {
	leg  *streamLeg
	id   graph.ID
	err  error
	done LegLine
}

// streamLeg is one node stream covering a set of shards. Its fields belong
// to the merge goroutine; the leg's own goroutine only sends messages.
type streamLeg struct {
	node   int
	shards []int
	// ch carries every message after the first, buffered 64 deep so the
	// leg reads ahead while the merge emits other legs' heads. The first
	// goes to the fan-out's shared channel: arrival decides a hedge race.
	ch     chan streamMsg
	cancel context.CancelFunc
	head   graph.ID
	// hasHead: head awaits emission. started: a line (an id or the done
	// line) arrived. over: the leg ended or was cancelled.
	hasHead, started, over bool
}

// shardFan is one shard's fan-out state.
type shardFan struct {
	owners []int    // eligible owners, in order of preference
	tried  int      // owners[:tried] have had a leg
	need   uint64   // the epoch a leg must serve the shard at
	last   graph.ID // the last id emitted, -1 before any
	// owner is the leg whose ids count for the shard; hedge is a duplicate
	// racing it until either delivers a line.
	owner, hedge *streamLeg
	failed       bool
}

// fanout is one query's fan-out state, owned by the merge goroutine.
type fanout struct {
	c     *Coordinator
	gj    server.GraphJSON
	stats *core.PipelineStats
	// drain: the caller collects candidates, so no id reaches it before the
	// query completes. Replacement legs then restart from the beginning,
	// and each shard's candidates come whole from the leg that completed it.
	drain  bool
	shards []shardFan
	legs   []*streamLeg
	first  chan streamMsg
	legCtx context.Context
	wg     sync.WaitGroup
}

// fan is the cluster's one query runner: wave 0 opens one leg per first
// eligible owner, covering its shards, and the legs k-way merge, emit
// called per answer in ascending global ids (false stops the run). A leg
// that dies is failed over per shard; a leg that has delivered no line by
// HedgeDelay gets a rival on the next owners, and the first to deliver a
// line wins. The merge takes an id only above its frontier and from the
// leg serving the id's shard, so replayed and duplicated ids never repeat.
func (c *Coordinator) fan(ctx context.Context, q *graph.Graph, stats *core.PipelineStats, emit func(graph.ID) bool) (err error) {
	ctx, sp := obs.StartSpan(ctx, "cluster-query")
	defer func() {
		if err != nil {
			sp.Cancel()
			c.reqErrors.Add(1)
			return
		}
		sp.End()
	}()
	f := &fanout{c: c, gj: server.GraphToJSON(q, &c.ds.Dict), stats: stats, drain: stats.Candidates != nil,
		shards: make([]shardFan, c.man.Shards), first: make(chan streamMsg)}
	c.mu.RLock()
	for s := range f.shards {
		f.shards[s] = shardFan{owners: c.eligible(s), need: c.shardEpoch[s], last: -1}
	}
	c.mu.RUnlock()

	// A stream stopped early reports the shards known lost so far too: an
	// answer they owe could precede the ids already emitted.
	defer func() {
		for s := range f.shards {
			if f.shards[s].failed {
				stats.FailedShards = append(stats.FailedShards, s)
			}
		}
		if stats.FailedShards != nil {
			c.partials.Add(1)
			sp.Attr("partial", true)
		}
	}()

	var cancelLegs context.CancelFunc
	f.legCtx, cancelLegs = context.WithCancel(ctx)
	defer func() {
		cancelLegs()
		f.wg.Wait()
	}()
	wave0 := make(map[int][]int)
	for s := range f.shards {
		if o := f.nextOwner(s); o >= 0 {
			wave0[o] = append(wave0[o], s)
		} else {
			f.shards[s].failed = true
		}
	}
	for o, shards := range wave0 {
		f.launch(o, shards, false)
	}
	var hedgeCh <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeCh = t.C
	}

	frontier := graph.ID(-1)
	for {
		// The minimum head is known once every live leg has one; until
		// then, read a started leg's next message, or await first lines.
		var min, read *streamLeg
		waiting := false
		for _, l := range f.legs {
			switch {
			case l.over:
			case l.hasHead:
				if min == nil || l.head < min.head {
					min = l
				}
			case l.started:
				read, waiting = l, true
			default:
				waiting = true
			}
		}
		if waiting {
			var readCh chan streamMsg
			if read != nil {
				readCh = read.ch
			}
			select {
			case m := <-readCh:
				f.take(m, frontier)
			case m := <-f.first:
				f.take(m, frontier)
			case <-hedgeCh:
				hedgeCh = nil
				f.hedgeSlow()
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if min == nil {
			break
		}
		if !emit(min.head) {
			return nil
		}
		frontier, min.hasHead = min.head, false
		f.shards[engine.ShardOf(frontier, len(f.shards))].last = frontier
	}
	return nil
}

// servedBy reports whether id's shard is served by leg l.
func (f *fanout) servedBy(id graph.ID, l *streamLeg) bool {
	return f.shards[engine.ShardOf(id, len(f.shards))].owner == l
}

// take applies one message of a leg: its first line settles the races it
// is in, a terminal ends it, and an id above the frontier of a shard it
// serves becomes its head.
func (f *fanout) take(m streamMsg, frontier graph.ID) {
	l := m.leg
	if l.over {
		return
	}
	if !l.started && m.err == nil {
		f.start(l)
	}
	if m.err != nil || m.done.Done {
		f.finish(l, m)
	} else if m.id > frontier && f.servedBy(m.id, l) {
		l.head, l.hasHead = m.id, true
	}
}

// start settles the hedge races l's first line decides: l wins each shard
// it races for, since its rival has delivered nothing yet — a rival's first
// line would have settled the race. Each loser serves one shard fewer.
func (f *fanout) start(l *streamLeg) {
	l.started = true
	for _, s := range l.shards {
		sh := &f.shards[s]
		loser := sh.hedge
		if loser == nil {
			continue
		}
		if loser == l {
			loser, sh.owner = sh.owner, l
			f.c.hedgesWon.Add(1)
		}
		sh.hedge = nil
		f.release(loser)
	}
}

// release cancels l once it neither serves nor races for any shard; its
// goroutine marks its span cancelled.
func (f *fanout) release(l *streamLeg) {
	for _, s := range l.shards {
		if f.shards[s].owner == l || f.shards[s].hedge == l {
			return
		}
	}
	l.over = true
	l.cancel()
}

// finish ends l on its terminal: a done line adds its counters and the
// candidates of the shards it served; an error fails it over.
func (f *fanout) finish(l *streamLeg, m streamMsg) {
	l.over = true
	l.cancel()
	if m.err != nil {
		f.failover(l, m.err)
		return
	}
	f.stats.Produced.Add(m.done.Produced)
	f.stats.Verified.Add(m.done.Verified)
	if f.drain {
		var own graph.IDSet
		for _, id := range m.done.Candidates {
			if f.servedBy(id, l) {
				own = append(own, id)
			}
		}
		*f.stats.Candidates = f.stats.Candidates.Union(own)
	}
}

// failover replaces a leg that died, per shard it served. A hedge racing
// for the shard takes it over. A leg refused for a stale shard
// (*StaleShardError) fails that shard over and reopens its other shards on
// the same node. Any other death restarts the shard on its next untried
// owner; a shard with none left is failed.
func (f *fanout) failover(l *streamLeg, cause error) {
	var refused *StaleShardError
	if errors.As(cause, &refused) {
		f.c.rejectStale(l.node, refused.Shard, refused.Epoch)
	}
	for _, s := range l.shards {
		sh := &f.shards[s]
		switch {
		case sh.hedge == l:
			sh.hedge = nil
		case sh.owner != l:
		case sh.hedge != nil:
			sh.owner, sh.hedge = sh.hedge, nil
		case refused != nil && s != refused.Shard:
			f.launch(l.node, []int{s}, false)
		default:
			if o := f.nextOwner(s); o >= 0 {
				f.c.failovers.Add(1)
				f.launch(o, []int{s}, false)
			} else {
				sh.failed = true
			}
		}
	}
}

// hedgeSlow gives every leg that has delivered no line a rival: each of
// its shards with an untried owner is duplicated there, grouped per node.
// It runs once, before any race, so each such leg serves all its shards.
func (f *fanout) hedgeSlow() {
	groups := make(map[int][]int)
	for _, l := range f.legs {
		if l.over || l.started {
			continue
		}
		for _, s := range l.shards {
			if o := f.nextOwner(s); o >= 0 {
				groups[o] = append(groups[o], s)
			}
		}
	}
	for o, shards := range groups {
		f.c.hedgesFired.Add(1)
		f.launch(o, shards, true)
	}
}

// nextOwner returns shard s's next untried owner, -1 when none is left.
func (f *fanout) nextOwner(s int) int {
	sh := &f.shards[s]
	if sh.tried == len(sh.owners) {
		return -1
	}
	sh.tried++
	return sh.owners[sh.tried-1]
}

// launch opens a leg on node over shards, as their owner or, for a hedge,
// their rival. A drain's leg starts from the beginning, a stream's after
// the smallest of its shards' last emitted ids.
func (f *fanout) launch(node int, shards []int, hedge bool) {
	lctx, cancel := context.WithCancel(f.legCtx)
	leg := &streamLeg{node: node, shards: shards, ch: make(chan streamMsg, 64), cancel: cancel}
	need := make([]uint64, len(shards))
	after := f.shards[shards[0]].last
	for i, s := range shards {
		sh := &f.shards[s]
		need[i], after = sh.need, min(after, sh.last)
		if hedge {
			sh.hedge = leg
		} else {
			sh.owner = leg
		}
	}
	if f.drain {
		after = -1
	}
	f.legs = append(f.legs, leg)
	f.wg.Add(1)
	go f.serve(lctx, leg, need, after, hedge)
}

// serve runs leg's node stream, sending its first message on f.first and
// the rest on leg.ch until lctx ends. NodeTimeout bounds the wait for the
// first line; once the leg streams, only the request's context bounds it.
// The leg's span, under the cluster-query span, takes the node's echoed
// subtree; a leg the merge cancelled — a hedge loser, or one still open
// when the run ended — is marked cancelled, not failed.
func (f *fanout) serve(lctx context.Context, leg *streamLeg, need []uint64, after graph.ID, hedge bool) {
	defer f.wg.Done()
	sctx, sp := obs.StartSpan(lctx, "node:"+f.c.nodes[leg.node].info.Name)
	sp.Attr("shards", leg.shards)
	if hedge {
		sp.Attr("hedge", true)
	}
	rctx, expire := context.WithCancelCause(sctx)
	defer expire(nil)
	timer := time.AfterFunc(f.c.cfg.NodeTimeout, func() { expire(errNoFirstLine) })
	defer timer.Stop()
	out := f.first
	send := func(m streamMsg) bool {
		m.leg = leg
		select {
		case out <- m:
			if out == f.first {
				timer.Stop()
				out = leg.ch
			}
			return true
		case <-lctx.Done():
			return false
		}
	}
	done, err := f.c.nodes[leg.node].client.Stream(rctx, leg.shards, need, f.gj, after, func(id graph.ID) bool {
		return send(streamMsg{id: id})
	})
	if lctx.Err() != nil {
		sp.Cancel()
		return
	}
	if err != nil {
		if context.Cause(rctx) == errNoFirstLine {
			err = errNoFirstLine
		}
		if isTransport(err) {
			f.c.markDown(leg.node, err)
		}
		sp.Attr("error", err.Error())
	}
	sp.Graft(done.Trace)
	sp.End()
	send(streamMsg{err: err, done: done})
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
