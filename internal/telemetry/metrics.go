// Package telemetry is the J-Kernel's dependency-free observability
// layer: a lock-sharded metrics registry (counters, gauges, log-scale
// latency histograms) plus a lightweight trace layer whose contexts
// propagate across the remote wire (see internal/remote), so a
// supervisor→worker→worker call chain stitches into one trace.
//
// The package is designed to stay on the hot path of the Table 4–9
// benchmarks: every instrument is a pre-resolved pointer whose update is
// a handful of atomic operations, every method is nil-safe (a nil
// *Counter, *Gauge, *Histogram, *Registry, or *Tracer is an inert no-op),
// and the null-call path performs no map lookups and no allocation when
// telemetry is disabled.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counterStripes is the stripe count of Counter: a power of two, sized so
// a modest executor pool spreads across distinct cache lines.
const counterStripes = 8

// padInt64 is an atomic counter cell padded to its own cache line.
type padInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing metric. The zero value is ready;
// a nil *Counter is an inert no-op. The count is striped across
// cache-line-padded cells: a counter shared by a pool of worker
// goroutines (the serve-side LRMI counters, say) would otherwise bounce
// one line between every core on every increment, which costs more than
// the rest of the instrumentation combined. Single-writer callers use
// Inc/Add (stripe 0); pooled callers add to a per-worker stripe's Cell.
type Counter struct {
	stripes [counterStripes]padInt64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.stripes[0].v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Cell returns stripe s&(stripes-1) of the counter, for a caller that
// batches its increments and adds them to the cell itself. c must not be
// nil.
func (c *Counter) Cell(s uint64) *atomic.Int64 {
	return &c.stripes[s&(counterStripes-1)].v
}

// Value returns the current count (0 for nil). The striped cells are
// summed with independent atomic loads, so a concurrent reader sees a
// value at least as large as any increment that completed before the
// call — monotonic, though not a single linearizable snapshot.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var v int64
	for i := range c.stripes {
		v += c.stripes[i].v.Load()
	}
	return v
}

// Gauge is a point-in-time level. The zero value is ready; a nil *Gauge
// is an inert no-op. Padded to a cache line for the same reason as
// Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores the current level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the level by d (use +1/-1 for in-flight tracking).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-scale with four sub-buckets per octave
// (bucket = floor(log2(v))*4 + top-two mantissa bits), giving ~±9%
// resolution over the full int64 range with a fixed, lock-free array of
// atomic buckets. Values are whatever unit the caller observes —
// nanoseconds for latency histograms, plain counts for occupancy.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits // sub-buckets per octave
	histOctaves = 64
	histBuckets = histOctaves * histSub
)

// Histogram is a lock-free log-scale distribution with quantile
// estimation. The zero value is ready; a nil *Histogram is an inert
// no-op.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histBuckets]atomic.Int64
}

// bucketOf maps a value onto its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u) // values 0..histSub-1 land in the first octave 1:1
	}
	// Octave = position of the highest set bit; sub-bucket = the next
	// histSubBits mantissa bits.
	oct := bits.Len64(u) - histSubBits
	sub := (u >> (uint(oct) - 1)) & (histSub - 1)
	return oct*histSub + int(sub)
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) float64 {
	oct := i / histSub
	sub := i % histSub
	if oct == 0 {
		return float64(sub)
	}
	return float64(uint64(histSub+sub) << (uint(oct) - 1))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket[bucketOf(v)].Add(1)
}

// ObserveSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// interpolating within the winning bucket. Concurrent observes make the
// estimate approximate, never panic.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n := h.bucket[i].Load()
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			// Position of the rank within this bucket.
			frac := float64(rank-(seen-n)) / float64(n)
			return lo + (hi-lo)*frac
		}
	}
	return bucketLow(histBuckets - 1)
}

// HistogramSnapshot is a summarized distribution for JSON export.
// Latency histograms are in nanoseconds; occupancy histograms in counts.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
}

// --- registry ---------------------------------------------------------------

const regShards = 16

// shard is one lock-sharded slice of the registry's name space.
type shard struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
	edges    map[edgeKey]*Counter
}

type edgeKey struct{ caller, callee string }

// Registry is a lock-sharded metrics registry. Instruments are created on
// first use and live for the registry's lifetime; hot paths resolve their
// instruments once and update through the returned pointers, so the
// sharded locks are off the per-call path. A nil *Registry is an inert
// no-op whose getters return nil instruments (themselves no-ops).
type Registry struct {
	node   string
	shards [regShards]shard
	events eventRing
}

// NewRegistry creates a registry; node names this kernel/process in
// snapshots and stitched traces.
func NewRegistry(node string) *Registry {
	if node == "" {
		node = "jk"
	}
	return &Registry{node: node}
}

// Node returns the registry's node name ("" for nil).
func (r *Registry) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// fnv1a hashes a name onto a shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (r *Registry) shard(name string) *shard {
	return &r.shards[fnv1a(name)%regShards]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = map[string]*Counter{}
	}
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gauges == nil {
		s.gauges = map[string]*Gauge{}
	}
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge computed at snapshot time (table sizes,
// queue depths owned by other structures). Re-registering a name replaces
// the function; DropGauge removes it.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gaugeFns == nil {
		s.gaugeFns = map[string]func() int64{}
	}
	s.gaugeFns[name] = fn
}

// DropGauge removes a gauge or gauge function (connection teardown).
func (r *Registry) DropGauge(name string) {
	if r == nil {
		return
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.gaugeFns, name)
	delete(s.gauges, name)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hists == nil {
		s.hists = map[string]*Histogram{}
	}
	h := s.hists[name]
	if h == nil {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Edge returns the caller→callee call-graph edge counter, creating it on
// first use. The observed cross-domain call graph (every LRMI records its
// edge) is dumped from /debug/jk — the seed input for stack-based
// access-control policy inference.
func (r *Registry) Edge(caller, callee string) *Counter {
	if r == nil {
		return nil
	}
	s := r.shard(caller)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.edges == nil {
		s.edges = map[edgeKey]*Counter{}
	}
	k := edgeKey{caller, callee}
	c := s.edges[k]
	if c == nil {
		c = &Counter{}
		s.edges[k] = c
	}
	return c
}

// --- event log --------------------------------------------------------------

// Event is one timestamped lifecycle event (worker restarts, faults).
type Event struct {
	At  time.Time `json:"at"`
	Msg string    `json:"msg"`
}

const eventRingCap = 256

// eventRing is a bounded, mutex-guarded event log. Events are rare
// (process lifecycle, faults), so a plain mutex is fine here.
type eventRing struct {
	mu   sync.Mutex
	buf  [eventRingCap]Event
	next uint64
}

// Eventf appends one formatted event to the registry's event log.
func (r *Registry) Eventf(format string, args ...any) {
	if r == nil {
		return
	}
	e := Event{At: time.Now(), Msg: fmt.Sprintf(format, args...)}
	r.events.mu.Lock()
	r.events.buf[r.events.next%eventRingCap] = e
	r.events.next++
	r.events.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.events.mu.Lock()
	defer r.events.mu.Unlock()
	n := r.events.next
	start := uint64(0)
	if n > eventRingCap {
		start = n - eventRingCap
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, r.events.buf[i%eventRingCap])
	}
	return out
}

// --- snapshot ---------------------------------------------------------------

// EdgeSnapshot is one observed cross-domain call-graph edge.
type EdgeSnapshot struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	Calls  int64  `json:"calls"`
}

// Snapshot is a point-in-time JSON-serializable view of a registry: the
// /debug/jk payload's metrics section.
type Snapshot struct {
	Node       string                       `json:"node"`
	At         time.Time                    `json:"at"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	CallGraph  []EdgeSnapshot               `json:"callgraph,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// Snapshot captures every instrument. Gauge functions are evaluated
// outside the shard locks, so a gauge that itself takes a lock (table
// sizes under a connection mutex) cannot deadlock the registry.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	snap.Node = r.node
	snap.At = time.Now()
	type pendingFn struct {
		name string
		fn   func() int64
	}
	var fns []pendingFn
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for name, c := range s.counters {
			snap.Counters[name] = c.Value()
		}
		for name, g := range s.gauges {
			snap.Gauges[name] = g.Value()
		}
		for name, fn := range s.gaugeFns {
			fns = append(fns, pendingFn{name, fn})
		}
		for name, h := range s.hists {
			snap.Histograms[name] = h.Snapshot()
		}
		for k, c := range s.edges {
			snap.CallGraph = append(snap.CallGraph, EdgeSnapshot{Caller: k.caller, Callee: k.callee, Calls: c.Value()})
		}
		s.mu.Unlock()
	}
	for _, p := range fns {
		snap.Gauges[p.name] = p.fn()
	}
	sort.Slice(snap.CallGraph, func(i, j int) bool {
		a, b := snap.CallGraph[i], snap.CallGraph[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		return a.Callee < b.Callee
	})
	snap.Events = r.Events()
	return snap
}

// defaultRegistry serves components with no kernel to hang a registry on
// (the worker pool supervisor side); Default() never returns nil.
var defaultRegistry = NewRegistry("process")

// Default returns the process-wide default registry.
func Default() *Registry { return defaultRegistry }
