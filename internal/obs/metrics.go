// Package obs is the repo's dependency-free observability core: a metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms with
// quantile estimation, all groupable into labeled families), a Prometheus
// text-exposition writer, and a lightweight per-query trace/span model that
// crosses process boundaries through the X-Sq-Trace header.
//
// Everything is safe for concurrent use. The hot path — Counter.Inc,
// Histogram.Observe — is a handful of atomic operations; families resolve
// label cells through a read-locked map and callers that care cache the
// resolved cell.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 (inflight requests, live graphs, queue depth).
type Gauge struct{ v atomic.Int64 }

// FloatGauge is a settable float64 gauge (ratios, seconds). It exposes as a
// plain Prometheus gauge; the separate type keeps the int64 Gauge hot path
// free of float bit tricks.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// AddGet moves the value by n and returns the new value atomically — for
// gauges that double as control state (an admission count checked against
// a limit).
func (g *Gauge) AddGet(n int64) int64 { return g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning 10µs (a cache hit) to 10s (a pathological verification), roughly
// log-spaced. Prometheus `le` semantics: a bucket counts observations <=
// its bound; an implicit +Inf bucket catches the rest.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations (latencies
// in seconds by convention). Recording is lock-free; quantiles are
// estimated by linear interpolation inside the bucket holding the rank.
//
// A histogram can additionally maintain an exponentially weighted moving
// average of its observations (see NewHistogramEWMA): this is what lets the
// router's learned cost model and the exported latency series share one
// cell per (bucket, method) instead of double-counting.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; len(counts) == len(bounds)+1
	counts  []atomic.Int64 // counts[i] observes v <= bounds[i]; last is +Inf
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated

	// EWMA state; alpha == 0 disables it. The mean warms up as a plain
	// running mean for the first warm observations, then decays with alpha —
	// the exact semantics the router's cost model had before it moved here.
	alpha float64
	warm  int64
	ewma  struct {
		sync.Mutex
		n    int64
		mean float64
	}
}

// NewHistogram returns a histogram over the given ascending bucket bounds
// (DefBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// NewHistogramEWMA is NewHistogram plus an attached EWMA: a running mean
// for the first warm observations, then mean += alpha*(v-mean).
func NewHistogramEWMA(bounds []float64, alpha float64, warm int) *Histogram {
	h := NewHistogram(bounds)
	h.alpha, h.warm = alpha, int64(warm)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. the le bucket
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if h.alpha > 0 {
		h.ewma.Lock()
		h.ewma.n++
		if h.ewma.n <= h.warm {
			h.ewma.mean += (v - h.ewma.mean) / float64(h.ewma.n)
		} else {
			h.ewma.mean += h.alpha * (v - h.ewma.mean)
		}
		h.ewma.Unlock()
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// EWMA returns the observation count and current EWMA mean (0, 0 before
// any observation or when EWMA is disabled).
func (h *Histogram) EWMA() (n int64, mean float64) {
	h.ewma.Lock()
	defer h.ewma.Unlock()
	return h.ewma.n, h.ewma.mean
}

// SeedEWMA overwrites the EWMA state; used to restore a persisted cost
// model. It does not touch the bucket counts — a restored mean carries no
// distribution.
func (h *Histogram) SeedEWMA(n int64, mean float64) {
	h.ewma.Lock()
	h.ewma.n, h.ewma.mean = n, mean
	h.ewma.Unlock()
}

// Quantile estimates the q-quantile by linear interpolation within the
// bucket containing the rank. q is clamped into [0, 1] (a NaN q reads as
// 0); values in the +Inf bucket clamp to the largest finite bound; an empty
// histogram returns 0. The result is always finite — dashboards divide by
// and render these numbers directly.
func (h *Histogram) Quantile(q float64) float64 {
	cum, total, _ := h.snapshot()
	return QuantileFromCells(h.bounds, cum, total, q)
}

// QuantileFromCells estimates a quantile from the Prometheus exposition
// shape of a histogram: ascending finite bucket bounds, cumulative le
// counts (one per bound), and the total count including the +Inf bucket.
// It never returns NaN or an infinity: q is clamped into [0, 1] (NaN reads
// as 0), an empty histogram returns 0, and mass in the +Inf bucket clamps
// to the largest finite bound.
func QuantileFromCells(bounds []float64, cum []int64, total int64, q float64) float64 {
	if len(bounds) == 0 || len(cum) != len(bounds) || total <= 0 {
		return 0
	}
	if !(q >= 0) { // catches q < 0 and NaN
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var prev int64
	for i, c := range cum {
		n := c - prev
		if float64(c) >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-float64(prev))/float64(n)
		}
		prev = c
	}
	// Rank falls in the +Inf bucket (or all mass does): clamp.
	return bounds[len(bounds)-1]
}

// snapshot returns cumulative le counts (one per finite bound, ascending),
// the total including +Inf, and the sum — the Prometheus exposition shape.
func (h *Histogram) snapshot() (cum []int64, total int64, sum float64) {
	cum = make([]int64, len(h.bounds))
	var run int64
	for i := range h.bounds {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run + h.counts[len(h.bounds)].Load(), h.Sum()
}

// Snapshot returns the histogram's bucket bounds, cumulative le counts,
// total count (including the +Inf bucket), and sum — the exposition shape,
// for callers computing windowed quantiles from successive snapshots.
func (h *Histogram) Snapshot() (bounds []float64, cum []int64, total int64, sum float64) {
	cum, total, sum = h.snapshot()
	return h.bounds, cum, total, sum
}

// Kind discriminates family types in the registry.
type Kind int

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Family is a named group of metrics of one kind sharing a label schema:
// sq_query_duration_seconds{method=...} is one family with one histogram
// cell per method. A family with no labels has a single anonymous cell.
type Family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	// histogram construction parameters
	bounds []float64
	alpha  float64
	warm   int

	flt bool // KindGauge family with *FloatGauge cells

	mu    sync.RWMutex
	cells map[string]any      // label-key -> *Counter | *Gauge | *FloatGauge | *Histogram
	vals  map[string][]string // label-key -> label values (for exposition)
}

// labelKey joins label values unambiguously (values may not contain \x1f,
// which no method name, shard number, or policy name does).
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = append(b, v...)
	}
	return string(b)
}

func (f *Family) cell(values []string) any {
	if len(values) != len(f.labels) {
		panic("obs: wrong label cardinality for " + f.name)
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.cells[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.cells[key]; ok {
		return c
	}
	var nc any
	switch f.kind {
	case KindCounter:
		nc = &Counter{}
	case KindGauge:
		if f.flt {
			nc = &FloatGauge{}
		} else {
			nc = &Gauge{}
		}
	default:
		if f.alpha > 0 {
			nc = NewHistogramEWMA(f.bounds, f.alpha, f.warm)
		} else {
			nc = NewHistogram(f.bounds)
		}
	}
	f.cells[key] = nc
	f.vals[key] = append([]string(nil), values...)
	return nc
}

// Counter returns (creating on first use) the counter cell for the given
// label values.
func (f *Family) Counter(labelValues ...string) *Counter {
	return f.cell(labelValues).(*Counter)
}

// Gauge returns the gauge cell for the given label values.
func (f *Family) Gauge(labelValues ...string) *Gauge {
	return f.cell(labelValues).(*Gauge)
}

// FloatGauge returns the float gauge cell for the given label values (the
// family must have been registered with Registry.FloatGauge).
func (f *Family) FloatGauge(labelValues ...string) *FloatGauge {
	return f.cell(labelValues).(*FloatGauge)
}

// Histogram returns the histogram cell for the given label values.
func (f *Family) Histogram(labelValues ...string) *Histogram {
	return f.cell(labelValues).(*Histogram)
}

// Cells calls fn for every live cell with its label values, in unspecified
// order. The cell is a *Counter, *Gauge, or *Histogram per the family kind.
func (f *Family) Cells(fn func(labelValues []string, cell any)) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(f.vals[k], f.cells[k])
	}
	f.mu.RUnlock()
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	fams   map[string]*Family
	hooks  []func()
	health []func() []HealthCheck
}

// OnCollect registers fn to run at the start of every exposition
// (WritePrometheus / the /metrics handler). Hooks refresh gauges whose
// source of truth lives elsewhere — runtime stats, cluster membership —
// so they are only sampled when someone is looking. Hooks run outside the
// registry lock and must be safe for concurrent scrapes.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// collectHooks returns a snapshot of the registered hooks.
func (r *Registry) collectHooks() []func() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hooks[:len(r.hooks):len(r.hooks)]
}

// OnHealth registers fn as a source of extra health checks: a component
// whose state lives outside the serving layer (cluster membership) adds its
// checks to whichever /health/score serves this registry. Hooks must be
// safe for concurrent use.
func (r *Registry) OnHealth(fn func() []HealthCheck) {
	r.mu.Lock()
	r.health = append(r.health, fn)
	r.mu.Unlock()
}

// HealthChecks runs every OnHealth hook and returns their checks in
// registration order.
func (r *Registry) HealthChecks() []HealthCheck {
	r.mu.RLock()
	hooks := r.health[:len(r.health):len(r.health)]
	r.mu.RUnlock()
	var out []HealthCheck
	for _, fn := range hooks {
		out = append(out, fn()...)
	}
	return out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*Family)} }

// register returns the existing family under name (first registration
// wins — re-registering is idempotent so independently wired layers can
// share series) or installs a new one.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64, alpha float64, warm int) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		return f
	}
	f := &Family{
		name: name, help: help, kind: kind, labels: labels,
		bounds: bounds, alpha: alpha, warm: warm,
		cells: make(map[string]any), vals: make(map[string][]string),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.register(name, help, KindCounter, labels, nil, 0, 0)
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.register(name, help, KindGauge, labels, nil, 0, 0)
}

// FloatGauge registers (or fetches) a gauge family whose cells hold
// float64 values (exposed as an ordinary Prometheus gauge).
func (r *Registry) FloatGauge(name, help string, labels ...string) *Family {
	f := r.register(name, help, KindGauge, labels, nil, 0, 0)
	f.mu.Lock()
	f.flt = true
	f.mu.Unlock()
	return f
}

// Histogram registers (or fetches) a histogram family over bounds
// (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Family {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, KindHistogram, labels, bounds, 0, 0)
}

// HistogramEWMA registers a histogram family whose cells also track an
// EWMA mean (running mean for the first warm observations, then
// exponential decay with alpha).
func (r *Registry) HistogramEWMA(name, help string, bounds []float64, alpha float64, warm int, labels ...string) *Family {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, KindHistogram, labels, bounds, alpha, warm)
}

// Adopt installs an already-built family under its own name, first
// registration winning like register: a component that created its metrics
// on a private registry can expose them on a shared one without copying
// cells — both registries then serve the same live series.
func (r *Registry) Adopt(f *Family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[f.name]; !ok {
		r.fams[f.name] = f
	}
}

// Family returns the registered family by name, or nil.
func (r *Registry) Family(name string) *Family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fams[name]
}

// families returns all families sorted by name.
func (r *Registry) families() []*Family {
	r.mu.RLock()
	out := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
