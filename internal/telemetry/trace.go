package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The trace layer. Every LRMI and remote invoke records a Span (caller
// domain → callee domain, method, latency, outcome) into a fixed
// lock-free ring; spans over a configurable threshold are additionally
// kept in a slow-call log. A TraceContext names the active trace: the
// remote wire carries it in each call entry of a msgInvoke frame, and the
// serving side joins the inbound call to it, so a chain of calls
// hopping supervisor→worker→worker shares one trace id and stitches into
// a single tree.
//
// Propagation is opt-in at the root: Task.BeginTrace starts a trace on a
// task, and only active contexts travel on the wire (one flag byte
// otherwise). Untraced calls are timed 1 in 64 (UntracedSampleMask), and
// a timed one that failed or was slow still reaches the ring as a trace
// of its own (Finish); they never pay the cross-process propagation
// cost, and sampled-out calls skip span recording and latency clock
// reads entirely.

// TraceContext names an active trace: the trace id shared by the whole
// chain and the span id of the current hop (the parent of any span the
// next hop creates). The zero value means "no active trace".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Active reports whether the context names a live trace.
func (tc TraceContext) Active() bool { return tc.TraceID != 0 }

// id generation: a per-process random base (seeded from pid and boot
// time) mixed with a counter through splitmix64, so ids are unique within
// a process and collide across processes with negligible probability —
// without math/rand on the hot path.
var (
	idCounter atomic.Uint64
	idBase    = uint64(time.Now().UnixNano())*2654435761 ^ uint64(os.Getpid())<<32
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID returns a fresh nonzero trace or span id.
func NewID() uint64 {
	for {
		if id := splitmix64(idBase + idCounter.Add(1)); id != 0 {
			return id
		}
	}
}

// FormatID renders an id the way /debug/jk and the examples print them.
func FormatID(id uint64) string { return strconv.FormatUint(id, 16) }

// ParseID parses FormatID output.
func ParseID(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// Span is one recorded call. IDs marshal as hex strings (JSON numbers
// cannot carry 64-bit ids).
type Span struct {
	TraceID uint64        `json:"-"`
	SpanID  uint64        `json:"-"`
	Parent  uint64        `json:"-"`
	Node    string        `json:"node"`   // kernel/process that recorded it
	Kind    string        `json:"kind"`   // "local", "client", "server"
	Caller  string        `json:"caller"` // caller domain
	Callee  string        `json:"callee"` // callee domain (or peer)
	Method  string        `json:"method"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Err     string        `json:"err,omitempty"`
}

// MarshalJSON renders the span with hex ids alongside the plain fields.
func (s Span) MarshalJSON() ([]byte, error) {
	type plain Span // drop the method set to avoid recursion
	return json.Marshal(struct {
		Trace  string `json:"trace"`
		Span   string `json:"span"`
		Parent string `json:"parent,omitempty"`
		plain
	}{
		Trace:  FormatID(s.TraceID),
		Span:   FormatID(s.SpanID),
		Parent: parentHex(s.Parent),
		plain:  plain(s),
	})
}

func parentHex(p uint64) string {
	if p == 0 {
		return ""
	}
	return FormatID(p)
}

// UnmarshalJSON restores the hex ids, so spans shipped between processes
// (a worker answering a supervisor's trace query) round-trip intact.
func (s *Span) UnmarshalJSON(b []byte) error {
	type plain Span
	aux := struct {
		Trace  string `json:"trace"`
		Span   string `json:"span"`
		Parent string `json:"parent"`
		*plain
	}{plain: (*plain)(s)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	var err error
	if s.TraceID, err = ParseID(aux.Trace); err != nil {
		return fmt.Errorf("telemetry: span trace id: %w", err)
	}
	if s.SpanID, err = ParseID(aux.Span); err != nil {
		return fmt.Errorf("telemetry: span id: %w", err)
	}
	if aux.Parent != "" {
		if s.Parent, err = ParseID(aux.Parent); err != nil {
			return fmt.Errorf("telemetry: span parent id: %w", err)
		}
	}
	return nil
}

// Tracer records completed spans for one kernel: a lock-free recent ring
// plus a log of the calls that took DefaultSlowCall or longer. A nil
// *Tracer is an inert no-op.
type Tracer struct {
	node   string
	sample atomic.Uint64

	recent spanRing
	slow   spanRing
}

const (
	recentSpanCap = 512
	slowSpanCap   = 128
	// DefaultSlowCall is the slow-call threshold.
	DefaultSlowCall = 10 * time.Millisecond
)

// spanRing is a fixed lock-free ring of span pointers: writers claim a
// slot with one atomic add and publish with one atomic store; readers
// snapshot the published pointers.
type spanRing struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Span]
}

func (r *spanRing) init(n int) { r.slots = make([]atomic.Pointer[Span], n) }

func (r *spanRing) record(s *Span) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(s)
}

func (r *spanRing) snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// NewTracer creates a tracer; node names this kernel in recorded spans.
func NewTracer(node string) *Tracer {
	if node == "" {
		node = "jk"
	}
	t := &Tracer{node: node}
	t.recent.init(recentSpanCap)
	t.slow.init(slowSpanCap)
	return t
}

// Node returns the tracer's node name ("" for nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// UntracedSampleMask selects the 1-in-64 untraced-call sample: a call is
// profiled when (tick & UntracedSampleMask) == 0, whatever monotonic
// per-call tick the instrumenting layer has at hand: the tracer's shared
// atomic (SampleUntraced) on a wire call's calling side, the task's own
// tick for an LRMI in core, the request id on a wire call's serving side.
const UntracedSampleMask = 63

// SampleUntraced reports whether an untraced call should be profiled
// (1 in 64): record a span and observe call latency. Traced calls always
// record; for everything else the recent ring and latency histograms stay
// a live sample of ordinary traffic without the hot paths paying the
// span allocation and clock reads per call — the call counters still see
// every call exactly.
func (t *Tracer) SampleUntraced() bool {
	if t == nil {
		return false
	}
	return t.sample.Add(1)&UntracedSampleMask == 0
}

// Record stores one completed span, filling in the tracer's node name.
func (t *Tracer) Record(s *Span) {
	if t == nil || s == nil {
		return
	}
	if s.Node == "" {
		s.Node = t.node
	}
	t.recent.record(s)
	if s.Dur >= DefaultSlowCall {
		t.slow.record(s)
	}
}

// Finish closes the books on one instrumented call: it observes the call's
// latency on lat and records s as its span, by the rules every layer
// shares. s names the call — its trace (TraceID, and the caller's span as
// Parent; both zero when untraced), Kind, Caller, Callee, Method and Start,
// set only for a call inside the sample — and a zero SpanID is minted here.
// An untraced call becomes a span only when it failed or crossed the
// slow-call threshold, and then as a trace of its own: the histogram
// already carries its timing, and the span allocation is the dearest piece
// of the instrumentation, kept for spans someone will look at.
func (t *Tracer) Finish(lat *Histogram, s Span, err error) {
	if t == nil {
		return
	}
	s.Dur = time.Since(s.Start)
	lat.Observe(int64(s.Dur))
	if s.TraceID == 0 && err == nil && s.Dur < DefaultSlowCall {
		return
	}
	if s.SpanID == 0 {
		s.SpanID = NewID()
	}
	if s.TraceID == 0 {
		s.TraceID = s.SpanID
	}
	if err != nil {
		s.Err = err.Error()
	}
	rec := new(Span)
	*rec = s
	t.Record(rec)
}

// Recent returns the retained spans, oldest first.
func (t *Tracer) Recent() []Span {
	if t == nil {
		return nil
	}
	return t.recent.snapshot()
}

// Slow returns the retained slow-call spans, oldest first.
func (t *Tracer) Slow() []Span {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// TraceSpans returns the retained spans of one trace, oldest first.
func (t *Tracer) TraceSpans(traceID uint64) []Span {
	if t == nil || traceID == 0 {
		return nil
	}
	all := t.recent.snapshot()
	out := all[:0]
	for _, s := range all {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}
