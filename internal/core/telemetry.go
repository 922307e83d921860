package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/telemetry"
	"jkernel/internal/threads"
)

// Kernel-side telemetry: a per-kernel registry + tracer with the hot-path
// instruments pre-resolved, so the LRMI paths update plain atomics and
// never take the registry's sharded locks per call. A kernel built with
// Options.DisableTelemetry carries a nil *kernelMetrics, and every method
// here is nil-safe, so the disabled fast path is one pointer test.

type kernelMetrics struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	// calls and latency are each LRMI path's instruments, by callPath.
	calls       [2]*telemetry.Counter
	latency     [2]*telemetry.Histogram
	asyncStarts *telemetry.Counter
	// asyncDones mirrors asyncStarts on resolution; the in-flight gauge is
	// starts-dones, computed at snapshot time. Two monotonic counters keep
	// each cache line owned by one side (launch vs resolve goroutine)
	// instead of ping-ponging a single gauge between them every call.
	asyncDones *telemetry.Counter

	// asyncDone increments asyncDones; allocated once so the per-future
	// resolve hook does not allocate a closure per call.
	asyncDone func()

	// Cross-domain call-graph edge counters, cached by packed
	// caller<<32|callee domain id in a copy-on-write map: the per-call
	// lookup is one atomic load + map read (no lock, no interface boxing,
	// no string building). Misses rebuild the map under edgeMu.
	edgeMu sync.Mutex
	edges  atomic.Pointer[map[uint64]*telemetry.Counter]
}

func newKernelMetrics(node string) *kernelMetrics {
	reg := telemetry.NewRegistry(node)
	m := &kernelMetrics{
		reg:         reg,
		tracer:      telemetry.NewTracer(node),
		calls:       [2]*telemetry.Counter{reg.Counter("core.lrmi.calls"), reg.Counter("core.vm.calls")},
		latency:     [2]*telemetry.Histogram{reg.Histogram("core.lrmi.latency_ns"), reg.Histogram("core.vm.latency_ns")},
		asyncStarts: reg.Counter("core.async.starts"),
		asyncDones:  reg.Counter("core.async.dones"),
	}
	m.edges.Store(&map[uint64]*telemetry.Counter{})
	dones := m.asyncDones
	m.asyncDone = func() { dones.Inc() }
	starts := m.asyncStarts
	// Read dones first: starts only ever leads dones, so this order can
	// never report a negative in-flight count.
	reg.GaugeFunc("core.async.inflight", func() int64 {
		d := dones.Value()
		return starts.Value() - d
	})
	return m
}

// Telemetry returns the kernel's metrics registry (nil when disabled).
func (k *Kernel) Telemetry() *telemetry.Registry {
	if k.tm == nil {
		return nil
	}
	return k.tm.reg
}

// Tracer returns the kernel's span recorder (nil when disabled).
func (k *Kernel) Tracer() *telemetry.Tracer {
	if k.tm == nil {
		return nil
	}
	return k.tm.tracer
}

// accountFields names the fields of a domain's account as its gauges and
// its post-mortem spell them.
var accountFields = []struct {
	name string
	of   func(accountStats) int64
}{
	{"alloc_bytes", func(s accountStats) int64 { return s.AllocBytes }},
	{"steps", func(s accountStats) int64 { return s.Steps }},
	{"copy_bytes", func(s accountStats) int64 { return s.CopyBytes }},
	{"class_bytes", func(s accountStats) int64 { return s.ClassBytes }},
	{"cross_calls", func(s accountStats) int64 { return s.CrossCalls }},
	{"revoked", func(s accountStats) int64 { return s.Revoked }},
}

// domainGauges publishes d's account as domain.<name>.* gauges, read at
// snapshot time only, until domainEnd.
func (m *kernelMetrics) domainGauges(d *Domain) {
	if m == nil {
		return
	}
	for _, f := range accountFields {
		m.reg.GaugeFunc("domain."+d.Name+"."+f.name, func() int64 { return f.of(d.Stats()) })
	}
}

// domainEnd drops d's gauges and writes its frozen account to the event
// log, one line: the post-mortem outlives the domain, its gauges do not.
func (m *kernelMetrics) domainEnd(d *Domain, cause error) {
	if m == nil {
		return
	}
	s := d.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "domain %s ended (%v):", d.Name, cause)
	for _, f := range accountFields {
		m.reg.DropGauge("domain." + d.Name + "." + f.name)
		fmt.Fprintf(&b, " %s=%d", f.name, f.of(s))
	}
	m.reg.Eventf("%s", b.String())
}

// edgeInc counts one call on the caller→callee edge, now.
func (m *kernelMetrics) edgeInc(t *Task, caller, callee *Domain) {
	if m != nil {
		m.edgeCell(t, caller, callee).Add(1)
	}
}

// edgeCell returns t's stripe of the caller→callee edge counter. The
// task's one-entry cache covers the overwhelming case — a task calling
// along the edge it just used — so most calls never touch the shared edge
// map at all.
func (m *kernelMetrics) edgeCell(t *Task, caller, callee *Domain) *atomic.Int64 {
	key := uint64(uint32(caller.ID))<<32 | uint64(uint32(callee.ID))
	if t.edgeCtr == nil || t.edgeKey != key {
		t.edgeKey, t.edgeCtr = key, m.edge(caller, callee)
	}
	return t.edgeCtr.Cell(t.stripe)
}

// edge returns the caller→callee call-graph counter, caching by domain id.
func (m *kernelMetrics) edge(caller, callee *Domain) *telemetry.Counter {
	if m == nil {
		return nil
	}
	key := uint64(uint32(caller.ID))<<32 | uint64(uint32(callee.ID))
	if c := (*m.edges.Load())[key]; c != nil {
		return c
	}
	c := m.reg.Edge(caller.Name, callee.Name)
	m.edgeMu.Lock()
	old := *m.edges.Load()
	next := make(map[uint64]*telemetry.Counter, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = c
	m.edges.Store(&next)
	m.edgeMu.Unlock()
	return c
}

// callStart returns the start timestamp for one cross-domain call, or
// the zero time when the call falls outside the untraced 1-in-64 sample.
// Traced calls are always profiled; for sampled-out calls the exact
// counters still count them, but the latency histograms and trace ring
// are skipped — along with both clock reads, which dominate the
// per-call cost of telemetry. The sample tick lives on the task
// (goroutine-affine), so the decision touches no shared cache line.
func (m *kernelMetrics) callStart(t *Task) time.Time {
	if m == nil {
		return time.Time{}
	}
	t.sampleTick++
	if t.sampleTick&telemetry.UntracedSampleMask == 0 || t.Chain.Trace.Active() {
		return time.Now()
	}
	return time.Time{}
}

// callPath is the LRMI path a call took: it picks the call's counter,
// latency histogram and span kind.
type callPath uint8

const (
	nativeCall callPath = iota // core.lrmi.*, spans of kind "local"
	vmCall                     // core.vm.*, spans of kind "vm"
	// proxyCall counts on its edge only: the transport records the call
	// and its span.
	proxyCall
)

var callKinds = [...]string{nativeCall: "local", vmCall: "vm"}

// span records the span and latency of one LRMI made with t, on the trace
// t carries. A zero start means the call fell outside the sample
// (callStart): Task.charge counted it, and that is all.
func (m *kernelMetrics) span(p callPath, t *Task, caller, callee *Domain, method string, start time.Time, err error) {
	if m == nil || start.IsZero() {
		return
	}
	tc := t.Chain.Trace
	m.tracer.Finish(m.latency[p], telemetry.Span{
		TraceID: tc.TraceID, Parent: tc.SpanID, Kind: callKinds[p],
		Caller: caller.Name, Callee: callee.Name, Method: method, Start: start,
	}, err)
}

// asyncStart counts a future launch and installs the resolution counter
// on its resolve hook (in-flight = starts - dones, see newKernelMetrics).
// The hook is stored directly: asyncStart runs right after newFuture,
// before the future escapes to any other goroutine, so the lock that
// setOnResolve takes for the general install/resolve race is not needed.
func (m *kernelMetrics) asyncStart(f *Future) {
	if m == nil {
		return
	}
	m.asyncStarts.Inc()
	f.onResolve = m.asyncDone
}

// --- trace contexts on tasks -------------------------------------------------

// BeginTrace starts a new trace on the task: subsequent calls made with it
// (and their onward hops, across the wire) record spans under one trace
// id, and so do the calls of a task NewTask makes on the goroutine this
// task is entered on. It returns the new context; pass its TraceID to
// /debug/jk?trace= to retrieve the stitched spans.
func (t *Task) BeginTrace() telemetry.TraceContext {
	tc := telemetry.TraceContext{TraceID: telemetry.NewID(), SpanID: telemetry.NewID()}
	t.Chain.Trace = tc
	return tc
}

// EndTrace clears the task's trace context.
func (t *Task) EndTrace() { t.Chain.Trace = telemetry.TraceContext{} }

// TraceContext returns the task's trace context (zero when none).
func (t *Task) TraceContext() telemetry.TraceContext { return t.Chain.Trace }

// JoinTrace puts a detached task — a served task from Domain.GetTask — on
// the inbound trace tc, and lends its chain to the calling goroutine, so a
// task the handler makes there with NewTask joins tc too. Ambient APIs
// still find the goroutine not entered (currentTask). LeaveTrace must run
// on the same goroutine before the task goes back.
func (t *Task) JoinTrace(tc telemetry.TraceContext) {
	t.Chain.Trace = tc
	threads.Bind(t.Chain)
}

// LeaveTrace takes the task's chain off the goroutine and ends its trace:
// the next call it serves, on whatever goroutine, starts untraced.
func (t *Task) LeaveTrace() {
	threads.Unregister(t.Chain)
	t.EndTrace()
}
