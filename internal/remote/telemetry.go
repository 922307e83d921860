package remote

import (
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

// Connection telemetry: frame counters by message type, batch occupancy
// both ways (calls per invoke frame sent, calls per inbound run, replies
// per reply frame sent), serve/client latency, capability faults, and
// per-connection table-size gauges (registered at NewConn, dropped at
// shutdown so a churned connection leaves no stale gauges behind). Calls
// a connection's bootstrap serves count as remote.bootstrap.<method>
// (bootstrap.go). A kernel with telemetry disabled yields a nil
// *connMetrics; every use is nil-guarded.

// msgName labels a wire message type for metric names.
func msgName(t byte) string {
	switch t {
	case msgInvoke:
		return "invoke"
	case msgReply:
		return "reply"
	case msgPush:
		return "push"
	default:
		return "other"
	}
}

const maxMsgType = msgPush

type connMetrics struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	peer   string // the connection's host domain name ("remote-<n>")

	// Frame counters indexed by message type, shared kernel-wide (one set
	// of instruments regardless of connection count).
	framesIn  [maxMsgType + 2]*telemetry.Counter
	framesOut [maxMsgType + 2]*telemetry.Counter
	badFrames *telemetry.Counter

	batchOccupancy *telemetry.Histogram // calls per msgInvoke frame sent
	runCalls       *telemetry.Histogram // calls per inbound run served
	replyOccupancy *telemetry.Histogram // replies per msgReply frame sent
	serveLatency   *telemetry.Histogram
	clientLatency  *telemetry.Histogram
	capFaults      *telemetry.Counter

	gaugeNames []string // per-conn gauges to drop at shutdown
}

// newConnMetrics wires c into its kernel's registry; nil when the kernel
// has telemetry disabled.
func newConnMetrics(k *core.Kernel, c *Conn) *connMetrics {
	reg := k.Telemetry()
	if reg == nil {
		return nil
	}
	m := &connMetrics{
		reg:            reg,
		tracer:         k.Tracer(),
		peer:           c.domain.Name,
		badFrames:      reg.Counter("remote.frames_in.malformed"),
		batchOccupancy: reg.Histogram("remote.batch.occupancy"),
		runCalls:       reg.Histogram("remote.inbound.run_calls"),
		replyOccupancy: reg.Histogram("remote.reply.occupancy"),
		serveLatency:   reg.Histogram("remote.serve.latency_ns"),
		clientLatency:  reg.Histogram("remote.invoke.latency_ns"),
		capFaults:      reg.Counter("remote.capability_faults"),
	}
	for t := byte(1); t <= maxMsgType; t++ {
		m.framesIn[t] = reg.Counter("remote.frames_in." + msgName(t))
		m.framesOut[t] = reg.Counter("remote.frames_out." + msgName(t))
	}
	m.framesIn[maxMsgType+1] = reg.Counter("remote.frames_in.other")
	m.framesOut[maxMsgType+1] = reg.Counter("remote.frames_out.other")

	// Per-connection live gauges: table occupancy (the wire-table leak
	// diagnostics of TableSizes), push backlog, executor pool size.
	base := "remote.conn." + c.domain.Name
	gauge := func(name string, fn func() int64) {
		reg.GaugeFunc(name, fn)
		m.gaugeNames = append(m.gaugeNames, name)
	}
	gauge(base+".exports", func() int64 { return int64(c.TableSizes().Exports) })
	gauge(base+".imports", func() int64 { return int64(c.TableSizes().Imports) })
	gauge(base+".pending", func() int64 { return int64(c.TableSizes().Pending) })
	gauge(base+".pre_revoked", func() int64 { return int64(c.TableSizes().PreRevoked) })
	gauge(base+".push_backlog", func() int64 { return int64(c.batch.pushBacklog()) })
	gauge(base+".exec_workers", func() int64 { return int64(c.exec.workers.Load()) })
	return m
}

// drop removes the per-connection gauges (connection teardown).
func (m *connMetrics) drop() {
	if m == nil {
		return
	}
	for _, name := range m.gaugeNames {
		m.reg.DropGauge(name)
	}
}

func (m *connMetrics) frameIn(t byte) {
	if m == nil {
		return
	}
	if t == 0 || t > maxMsgType {
		t = maxMsgType + 1
	}
	m.framesIn[t].Inc()
}

func (m *connMetrics) frameOut(t byte) {
	if m == nil {
		return
	}
	if t == 0 || t > maxMsgType {
		t = maxMsgType + 1
	}
	m.framesOut[t].Inc()
}

func (m *connMetrics) capFault(n int64) {
	if m != nil {
		m.capFaults.Add(n)
	}
}

// sampleStart makes the per-call profiling decision for one outbound wire
// invoke: traced calls always profile; untraced calls profile 1 in 64. It
// returns the call's start timestamp, or the zero time for sampled-out
// calls — which then skip both clock reads, the latency histogram, and
// the span, while the frame counters still see every call.
func (m *connMetrics) sampleStart(traced bool) time.Time {
	if m == nil {
		return time.Time{}
	}
	if traced || m.tracer.SampleUntraced() {
		return time.Now()
	}
	return time.Time{}
}

// serveStart is sampleStart for the serving side, with the decision made
// by the caller (off the frame's request id, which costs no shared
// counter).
func (m *connMetrics) serveStart(profiled bool) time.Time {
	if m == nil || !profiled {
		return time.Time{}
	}
	return time.Now()
}

// clientSpan records the caller side of one wire invoke (sync or async,
// enqueue to reply). A zero start means the call fell outside the
// untraced sample (see sampleStart): the frame counters already counted
// it, and nothing more is recorded.
func (m *connMetrics) clientSpan(tc telemetry.TraceContext, spanID uint64, method string, start time.Time, err error) {
	if m == nil || start.IsZero() {
		return
	}
	m.tracer.Finish(m.clientLatency, telemetry.Span{
		TraceID: tc.TraceID, SpanID: spanID, Parent: tc.SpanID, Kind: "client",
		Callee: m.peer, Method: method, Start: start,
	}, err)
}
