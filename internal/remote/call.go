package remote

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

// The call path. Every request that awaits a reply is a capability invoke
// — a user call, or a call on the peer's bootstrap (ping, lookup, manifest
// fetch, handoff redeem) — blocking or asynchronous, and is one pooled
// callRecord in Conn.pending under its request id. There is one invoke
// path: a blocking invoke is an asynchronous one whose caller writes the
// queued frames itself instead of waking the flusher (the write stays on
// the calling goroutine, and calls queued by others ride along), then
// parks on its record.
//
// Record ownership, the companion of the frameBuf rule in bufpool.go:
// whoever removes a record from Conn.pending (takePending: the reader on a
// reply, shutdown's sweep, a cancel, a timed-out waiter) owns its one
// completion, and the record is recycled after exactly that. Nothing else
// keeps a *callRecord: the batcher queues a copy of what goes on the wire,
// and a request id — never reused on a connection, looked up under Conn.mu
// — is all a reply or a cancel carries. So a late reply, a stale cancel or
// a timed-out probe finds no slot and is inert, whatever its old record is
// doing now.

// callRecord is the per-call state of one request awaiting its reply.
type callRecord struct {
	// The route and the call (for the stale-route reissue and the
	// completer), and the client span's books.
	p      *proxyTarget
	call   core.ProxyCall
	spanID uint64
	start  time.Time
	argLen int64

	// ext is the external of the call's two seri passes: prepare encodes
	// the arguments through it, and whoever takes the record for its reply
	// decodes the results through it.
	ext connExternal

	// ch parks a blocking caller (call.Done == nil). Made once per record,
	// it holds one result, so the completer never blocks.
	ch chan wireResult
}

var recordPool = sync.Pool{New: func() any { return &callRecord{ch: make(chan wireResult, 1)} }}

func getRecord() *callRecord { return recordPool.Get().(*callRecord) }

func putRecord(rec *callRecord) {
	rec.ext.reset()
	*rec = callRecord{ch: rec.ch, ext: rec.ext}
	recordPool.Put(rec)
}

// isLoad reports whether rec counts toward PendingCalls: a placement policy
// must not read a health ping as queue depth, so bootstrap calls do not.
func (rec *callRecord) isLoad() bool { return rec.p.exportID != bootstrapID }

// register files rec under a fresh request id. The id is returned rather
// than read back from the record: once registered, an asynchronous record
// may complete and be recycled at any moment.
func (c *Conn) register(rec *callRecord) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, c.causeLocked()
	}
	c.nextReq++
	c.pending[c.nextReq] = rec
	if rec.isLoad() {
		c.invokes++
	}
	return c.nextReq, nil
}

// takePending removes and returns the record pending under id — nil for an
// unknown id: already completed, cancelled, or swept by shutdown.
func (c *Conn) takePending(id uint64) *callRecord {
	c.mu.Lock()
	rec := c.pending[id]
	if rec != nil {
		delete(c.pending, id)
		if rec.isLoad() {
			c.invokes--
		}
	}
	c.mu.Unlock()
	return rec
}

// complete resolves one pending request.
func (c *Conn) complete(id uint64, res wireResult) {
	if rec := c.takePending(id); rec != nil {
		rec.completeWire(res)
	}
}

// completeWire delivers rec's one completion: to the parked caller, or —
// for an asynchronous invoke — straight to its completer.
func (rec *callRecord) completeWire(res wireResult) {
	if rec.call.Done != nil {
		rec.finish(res)
		return
	}
	rec.ch <- res
}

// proxyOf returns cap's proxy target when cap is a wire proxy.
func proxyOf(cap *core.Capability) *proxyTarget {
	pt, _ := core.ProxyTargetOf(cap).(*proxyTarget)
	return pt
}

// staleRouteErr matches the one failure a superseded relay route
// produces: the middleman rejected the call before dispatch because the
// shortened route already released our reference there. The call never
// ran, so reissuing it cannot double-execute.
func staleRouteErr(err error) bool {
	return errors.Is(err, errUnknownExport)
}

// proxyTarget is the core.ProxyTarget for one imported capability.
type proxyTarget struct {
	conn     *Conn
	exportID uint64 // the PEER's export id
	redeemed bool   // true when this route came from a redeemed handoff ticket

	// next forwards a superseded relay route to its shortened replacement.
	// A redeemed handoff retargets the proxy and releases the middleman's
	// export; an invoke that snapshotted the old route concurrently can
	// reach the middleman after that release and come back "unknown
	// export" — a call that never executed, so it retries on next.
	next atomic.Pointer[proxyTarget]

	// methods is the method manifest, nil until known. Imports by name and
	// redeemed handoffs come with it; proxies imported inline (as arguments
	// or results) fetch it on the first ProxyMethods call — one Manifest
	// call on the peer's bootstrap, cached.
	methods atomic.Pointer[[]string]
}

func (p *proxyTarget) setManifest(ms []string) { p.methods.Store(&ms) }

// ProxyMethods reports the remote method names, fetching the manifest
// from the exporting kernel on first use for inline imports. A fetch that
// fails (connection lost, export already dropped) reports no methods and
// leaves the cache empty, so a transient failure does not poison a
// later call.
func (p *proxyTarget) ProxyMethods() []string {
	if ms := p.methods.Load(); ms != nil {
		return *ms
	}
	res, err := p.conn.callPeer(0, "Manifest", p.exportID)
	if err != nil {
		return nil
	}
	ms := answerAt[Manifest](res, 0).Methods
	p.setManifest(ms)
	return ms
}

// InvokeProxy implements core.ProxyTarget: marshal args (capabilities by
// reference), queue the call on the connection's batcher, and either
// return (call.Done set: the completion fires on the reader goroutine when
// its reply arrives, or on the shutdown path when the
// connection dies first — exactly once, unless CancelProxy takes the slot
// before that) or write the queue out and wait for the reply.
//
//jk:blocking
func (p *proxyTarget) InvokeProxy(call core.ProxyCall) ([]any, int64, uint64, error) {
	rec, bc, err := p.prepare(call)
	if err != nil {
		if call.Done == nil {
			return nil, 0, 0, err
		}
		call.Done.CompleteWire(nil, 0, err)
		return nil, 0, 0, nil
	}
	// Only an asynchronous call wakes the flusher; a blocking caller is
	// about to park anyway, so it does the flusher's job itself.
	b := p.conn.batch
	b.enqueue(bc, call.Done != nil)
	if call.Done != nil {
		return nil, 0, bc.reqID, nil
	}
	b.flushCall(bc.reqID)
	return rec.finish(<-rec.ch)
}

// CancelProxy implements core.ProxyTarget: drop the pending slot so a late
// reply is ignored.
func (p *proxyTarget) CancelProxy(token uint64) {
	if rec := p.conn.takePending(token); rec != nil {
		putRecord(rec)
	}
}

// prepare encodes call's arguments and registers a record for it; nothing
// is queued yet. An error is the call's outcome — a copy failure on a
// healthy connection, or the capability fault of one already down — with
// its client span recorded.
func (p *proxyTarget) prepare(call core.ProxyCall) (*callRecord, batchedCall, error) {
	c := p.conn
	m := c.metrics
	method, tc := call.Method, call.Trace
	start := m.sampleStart(tc.Active())
	var spanID uint64
	if m != nil && tc.Active() {
		spanID = telemetry.NewID() // this hop's span, the wire parent of the callee's
	}
	fail := func(err error) (*callRecord, batchedCall, error) {
		m.clientSpan(tc, spanID, method, start, err)
		return nil, batchedCall{}, err
	}
	rec := getRecord()
	rec.p, rec.call, rec.spanID, rec.start = p, call, spanID, start
	// Queued calls keep their encoded args until a frame is written, so
	// each call's stream lives in its own pooled buffer that sendBatch
	// releases after the vectored write. Zero-arg calls — the bulk of small
	// traffic — take no buffer, no external and no serializer.
	var argsBuf *frameBuf
	var argBytes []byte
	if len(call.Args) > 0 {
		argsBuf = getFrame(64)
		err := c.marshalVectorInto(argsBuf, call.Args, &rec.ext)
		// Oversized arguments are a copy failure on a healthy connection,
		// not a revocation; reject before the frame writer does.
		if n := len(argsBuf.b); err == nil && n+len(method)+64 > maxFrame {
			rec.ext.rollback()
			err = fmt.Errorf("%d bytes exceeds the %d-byte frame limit", n, maxFrame)
		}
		if err != nil {
			argsBuf.release()
			putRecord(rec)
			return fail(&core.CopyError{What: "remote arguments of " + method, Err: err})
		}
		argBytes = argsBuf.b
		rec.argLen = int64(len(argBytes))
	}
	reqID, err := c.register(rec)
	if err != nil {
		// The connection is already down (and about to fault this proxy).
		rec.ext.rollback()
		putRecord(rec)
		if argsBuf != nil {
			argsBuf.release()
		}
		return fail(fmt.Errorf("%w: %v", core.ErrRevoked, err))
	}
	return rec, batchedCall{reqID: reqID, exportID: p.exportID, method: method, traceID: tc.TraceID, parentSpan: spanID, args: argBytes, argsBuf: argsBuf}, nil
}

// finish closes the books on an invoke record's one completion and
// recycles it; the outcome goes to the completer, or back to the blocking
// caller as InvokeProxy's results. A completer that had already resolved —
// Cancel or revocation won the race after the reader took the record —
// drops the results, so the proxies their decode minted are released here:
// nothing else will ever own them.
func (rec *callRecord) finish(res wireResult) ([]any, int64, uint64, error) {
	p, call, spanID, start, copied := rec.p, rec.call, rec.spanID, rec.start, rec.argLen+res.copied
	if n := p.next.Load(); n != nil && staleRouteErr(res.err) {
		// Superseded relay route: the middleman dropped our export before
		// this call reached it, so it never ran. Reissue it on the shortened
		// route, which does its own span accounting and completes exactly
		// once.
		putRecord(rec)
		return n.InvokeProxy(call)
	}
	p.conn.metrics.clientSpan(call.Trace, spanID, call.Method, start, res.err)
	if call.Done == nil {
		putRecord(rec)
		return res.results, copied, 0, res.err
	}
	if !call.Done.CompleteWire(res.results, copied, res.err) {
		rec.ext.releaseCreated()
	}
	putRecord(rec)
	return nil, 0, 0, nil
}

// sendBatch writes queued calls as one msgInvoke vector. A failed write
// faults the connection (sendBatched), which fails every pending call.
func (c *Conn) sendBatch(calls []batchedCall) {
	if m := c.metrics; m != nil {
		m.batchOccupancy.Observe(int64(len(calls)))
	}
	// Call headers build in one pooled buffer; each call's argument bytes
	// stay in the buffer prepare encoded them into, and the vectored writer
	// stitches header and payload segments into one syscall — nothing is
	// memmoved into a contiguous frame.
	c.sendBatched(msgInvoke, len(calls), func(w *wbuf, i int) []byte {
		call := &calls[i]
		appendCallHeader(w, call.reqID, call.exportID, call.method, call.traceID, call.parentSpan, len(call.args))
		return call.args
	})
	for i := range calls {
		if calls[i].argsBuf != nil {
			calls[i].argsBuf.release()
			calls[i].argsBuf = nil
		}
	}
}
