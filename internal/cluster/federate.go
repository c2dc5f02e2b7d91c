package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Federation: GET /metrics/cluster turns the coordinator into a single
// scrape target for the whole cluster. Every member's /metrics is fetched
// concurrently under a per-leg timeout; each family comes back twice —
// once per instance, relabeled with node="<addr>" so per-node series stay
// distinct, and once summed into an _agg family (same-bound histograms
// merge bucket-wise). A member that fails to answer in time costs nothing
// but a sq_federate_node_up{node=...} 0 row and a bump of the
// sq_federate_failed_nodes gauge — a dead node never fails the scrape.

// DefScrapeTimeout bounds each federation scrape leg.
const DefScrapeTimeout = 3 * time.Second

// scrapeTarget is one member the federation endpoint scrapes.
type scrapeTarget struct {
	name   string
	addr   string
	client *NodeClient
}

// scrapeTargets snapshots the membership for a federation pass.
func (c *Coordinator) scrapeTargets() []scrapeTarget {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]scrapeTarget, len(c.nodes))
	for i, ns := range c.nodes {
		out[i] = scrapeTarget{name: ns.info.Name, addr: ns.info.Addr, client: ns.client}
	}
	return out
}

// Federate scrapes every member's /metrics concurrently (each leg bounded
// by timeout) and returns the combined snapshot: per-node relabeled
// families, coordinator-local families under node="coordinator", synthetic
// sq_federate_node_up rows, and summed _agg families. The second return is
// how many members failed to answer.
func (c *Coordinator) Federate(ctx context.Context, timeout time.Duration) (*obs.PromSnapshot, int) {
	if timeout <= 0 {
		timeout = DefScrapeTimeout
	}
	targets := c.scrapeTargets()
	snaps := make([]*obs.PromSnapshot, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t scrapeTarget) {
			defer wg.Done()
			lctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			body, err := t.client.Metrics(lctx)
			if err != nil {
				errs[i] = err
				return
			}
			snaps[i], errs[i] = obs.ParsePromText(bytes.NewReader(body))
		}(i, t)
	}
	wg.Wait()

	failed := 0
	for i := range targets {
		if errs[i] != nil {
			failed++
			c.cfg.Logf("cluster: federation scrape of %s (%s) failed: %v", targets[i].name, targets[i].addr, errs[i])
		}
	}
	// The failure gauge is set before the self snapshot so the value this
	// very scrape observed is part of its own output.
	c.fedFailed.Set(int64(failed))

	var buf bytes.Buffer
	agg := obs.NewPromSnapshot()
	combined := obs.NewPromSnapshot()
	if err := c.cfg.Registry.WritePrometheus(&buf); err == nil {
		if self, err := obs.ParsePromText(bytes.NewReader(buf.Bytes())); err == nil {
			agg.Merge(self)
			combined.Extend(self.Relabel("node", "coordinator"))
		}
	}
	for i, t := range targets {
		up := 1.0
		if errs[i] != nil {
			up = 0
		}
		combined.AddSample("sq_federate_node_up", "Whether the last federation scrape of this node succeeded.",
			obs.KindGauge, []obs.PromLabel{{Name: "node", Value: t.addr}, {Name: "name", Value: t.name}}, up)
		if snaps[i] == nil {
			continue
		}
		agg.Merge(snaps[i])
		combined.Extend(snaps[i].Relabel("node", t.addr))
	}
	combined.Extend(agg.WithSuffix("_agg"))
	return combined, failed
}

// healthChecks scores membership for /health/score (registered with
// obs.Registry.OnHealth): down nodes, named in the reason, degrade; stale
// shards — some owner serves an old epoch — degrade; ownerless shards, with
// no reachable fresh owner right now, are critical.
func (c *Coordinator) healthChecks() []obs.HealthCheck {
	c.mu.RLock()
	var down []string
	staleSet := make(map[int]bool)
	for _, ns := range c.nodes {
		if !ns.up {
			down = append(down, fmt.Sprintf("%s (%s)", ns.info.Name, ns.info.Addr))
		}
		for s := range ns.stale {
			staleSet[s] = true
		}
	}
	var stale, ownerless []int
	for s := 0; s < c.man.Shards; s++ {
		if staleSet[s] {
			stale = append(stale, s)
		}
		if len(c.eligible(s)) == 0 {
			ownerless = append(ownerless, s)
		}
	}
	nodes := len(c.nodes)
	c.mu.RUnlock()
	sort.Strings(down)

	member := obs.HealthCheck{Name: "membership", Status: obs.HealthOK,
		Value: float64(len(down)), Reason: fmt.Sprintf("all %d nodes up", nodes)}
	if len(down) > 0 {
		member.Status = obs.HealthDegraded
		member.Reason = fmt.Sprintf("%d of %d nodes down: %s", len(down), nodes, strings.Join(down, ", "))
	}
	staleCheck := obs.HealthCheck{Name: "stale_shards", Status: obs.HealthOK,
		Value: float64(len(stale)), Reason: "no stale shards"}
	if len(stale) > 0 {
		staleCheck.Status = obs.HealthDegraded
		staleCheck.Reason = fmt.Sprintf("%d shards serving old epochs: %v", len(stale), stale)
	}
	owner := obs.HealthCheck{Name: "ownerless_shards", Status: obs.HealthOK,
		Value: float64(len(ownerless)), Reason: "every shard has a reachable owner"}
	if len(ownerless) > 0 {
		owner.Status = obs.HealthCritical
		owner.Reason = fmt.Sprintf("%d shards with no reachable fresh owner: %v", len(ownerless), ownerless)
	}
	return []obs.HealthCheck{member, staleCheck, owner}
}

// refreshNodeGauges updates the per-node membership gauges; it runs as a
// collect hook so every /metrics (and federation) scrape sees the current
// membership without a background sampler.
func (c *Coordinator) refreshNodeGauges() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	owned := make([]int64, len(c.nodes))
	for s := 0; s < c.man.Shards; s++ {
		for _, o := range c.owners(s) {
			owned[o]++
		}
	}
	for i, ns := range c.nodes {
		up := int64(0)
		if ns.up {
			up = 1
		}
		c.nodeUp.Gauge(ns.info.Addr, ns.info.Name).Set(up)
		c.nodeStale.Gauge(ns.info.Addr, ns.info.Name).Set(int64(len(ns.stale)))
		c.nodeShards.Gauge(ns.info.Addr, ns.info.Name).Set(owned[i])
	}
}
