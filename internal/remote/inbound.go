package remote

import (
	"bufio"
	"fmt"
	"sync"
	"sync/atomic"

	"jkernel/internal/telemetry"
)

// executor runs the claimers of inbound runs (batchRun.run) on a bounded
// pool of persistent goroutines. A claimer is its pooled run, so handing
// one over allocates nothing. Claimers never queue behind a blocked
// worker: submit hands the run to an idle worker, grows the pool if there
// is room, and otherwise falls back to a one-off goroutine — so a call
// that blocks (waiting on another capability, say) can never stall an
// unrelated call, only de-optimize it.
type executor struct {
	done    <-chan struct{}
	jobs    chan *batchRun
	workers atomic.Int32
	max     int32
}

func newExecutor(done <-chan struct{}) *executor {
	// A run is served by claimers that take its calls in order, with at
	// most one spare in flight, so calls that never block keep two or
	// three workers busy however deep the client's pipeline; the pool
	// grows toward the cap only with calls that block, one worker each,
	// and a parked worker is handed a claimer only when it is idle (idle
	// stacks shrink at GC). Past the cap a claimer runs on a one-off
	// goroutine whose fresh stack grows again on every deep call, so the
	// cap stays well above the blocked calls a peer's windows hold.
	return &executor{done: done, jobs: make(chan *batchRun), max: 512}
}

func (e *executor) submit(run *batchRun) {
	select {
	case e.jobs <- run: // an idle pooled worker takes it
		return
	default:
	}
	if n := e.workers.Load(); n < e.max && e.workers.CompareAndSwap(n, n+1) {
		go e.worker(run)
		return
	}
	go run.run()
}

// worker runs its first claimer, then serves the pool until the
// connection dies.
func (e *executor) worker(run *batchRun) {
	run.run()
	for {
		select {
		case r := <-e.jobs:
			r.run()
		case <-e.done:
			return
		}
	}
}

// --- reader / inbound ------------------------------------------------------

func (c *Conn) readLoop() {
	br := bufio.NewReader(c.nc)
	var f inFrame     // the reader's one decode target, refilled per frame
	var run *batchRun // invoke frames in hand whose calls are not yet submitted
	for {
		fb, err := readFrameInto(br)
		if err == nil {
			// The reader's reference spans dispatch; calls that outlive it
			// (their method and args alias the buffer) retain their own and
			// drop it once their argument stream is decoded.
			run, err = c.dispatch(fb, &f, run)
			fb.release()
		}
		if err != nil {
			if run != nil {
				run.abandon()
			}
			c.shutdown(err)
			return
		}
		// A run grows only by frames already in hand: the reader never
		// waits for bytes to extend one, so merging adds no latency and
		// trusts nothing about the peer's pace.
		if run != nil && !invokeBuffered(br) {
			c.serveRun(run)
			run = nil
		}
	}
}

// dispatch decodes one frame into f (decodeFrame — the fuzzed surface)
// and acts on the typed result. Anything that outlives dispatch is copied
// out of f first: the next frame overwrites it. A decode error faults the
// whole connection: frame structure is trusted-transport territory, unlike
// per-call argument streams, which fail per call.
//
// An invoke frame's calls join run, the reader's pending run (a fresh one
// when run is nil or the frame would take it past maxBatchCalls or
// maxBatchBytes), which dispatch returns for the reader to submit or grow.
// Any other frame submits the pending run before it is handled, so frames
// act in the order they arrived, and a push vector's entries act in the
// order they were queued.
func (c *Conn) dispatch(fb *frameBuf, f *inFrame, run *batchRun) (*batchRun, error) {
	err := decodeFrame(fb.b, f)
	if m := c.metrics; m != nil {
		m.frameIn(f.t)
		if err != nil {
			m.badFrames.Inc()
			m.reg.Eventf("conn %s: malformed %s frame faulted the connection: %v", m.peer, msgName(f.t), err)
		}
	}
	if err != nil {
		return run, err
	}
	if run != nil && (f.t != msgInvoke || !run.fits(len(f.calls), len(fb.b))) {
		c.serveRun(run)
		run = nil
	}
	switch f.t {
	case msgInvoke:
		// Calls run off the reader so it keeps draining replies — a worker
		// servicing a call can call back into us mid-request. The frame
		// buffer rides along in the run until each call has decoded its
		// argument stream.
		if run == nil {
			run = newBatchRun(c)
		}
		run.add(f.calls, fb)
		return run, nil
	case msgReply:
		for i := range f.replies {
			c.completeReply(&f.replies[i])
		}
	case msgPush:
		for i := range f.pushes {
			if err = c.handlePush(&f.pushes[i]); err != nil {
				break
			}
		}
	}
	return nil, err
}

// serveRun hands a run to the executor.
func (c *Conn) serveRun(run *batchRun) {
	if m := c.metrics; m != nil {
		m.runCalls.Observe(int64(len(run.slots)))
	}
	run.addClaimer()
}

// completeReply resolves the invoke rep answers. The record is taken
// first, and the results are decoded for its waiter, through its external.
// A reply nobody waits for any more — the call was cancelled or timed out —
// is decoded only for the capability handles it carries: the peer counted a
// wire reference for each, so the proxies they mint here are released at
// once, which returns the references.
func (c *Conn) completeReply(rep *replyFrame) {
	rec := c.takePending(rep.reqID)
	if rec == nil {
		if rep.status == statusOK {
			var ext connExternal
			if _, err := c.unmarshalVector(rep.body, &ext); err == nil {
				ext.releaseCreated()
			}
		}
		return
	}
	rec.completeWire(c.wireResultOf(rep, &rec.ext))
}

// wireResultOf turns one decoded reply into a caller-facing result,
// decoding the seri stream of successful replies.
func (c *Conn) wireResultOf(rep *replyFrame, ext *connExternal) wireResult {
	if rep.status != statusOK {
		return wireResult{err: decodeWireErr(rep.kind, rep.class, rep.msg)}
	}
	results, err := c.unmarshalVector(rep.body, ext)
	if err != nil {
		return wireResult{err: fmt.Errorf("remote: decode results: %w", err)}
	}
	return wireResult{results: results, copied: int64(len(rep.body))}
}

// inbound is one inbound call while it is served: the frame that asked for
// it, the reply under construction, and the external of its two seri
// passes. It lives in the call's slot of a pooled batchRun, so serving a
// call allocates none of it.
type inbound struct {
	c     *Conn
	call  invokeFrame
	reply replyFrame
	ext   connExternal
}

// fail makes the reply the call's failure. Every failure — unknown export,
// argument decode, callee error, unencodable results — lands in the reply's
// own status, which is what gives the calls of one vector per-call error
// isolation for free.
func (in *inbound) fail(kind byte, class, msg string) {
	in.reply = replyFrame{reqID: in.call.reqID, status: statusErr, kind: kind, class: class, msg: msg}
}

// serveInvoke runs the call on a local export and builds its reply. The
// callee owns the decoded arguments and the reply carries the encoding of
// its results themselves (core.Capability.ServeWire): each direction is
// copied once, by the codec.
//
// fb is the inbound frame buffer call.method and call.args alias, with one
// reference held for this call; serveInvoke drops it exactly once, the
// moment the argument stream is decoded (or the call fails before needing
// it) — the buffer must never stay pinned for the duration of the callee.
func (in *inbound) serveInvoke(fb *frameBuf) {
	c, f := in.c, &in.call
	in.reply = replyFrame{reqID: f.reqID, status: statusOK}
	cap := c.boot
	if f.exportID != bootstrapID {
		cap = c.exported(f.exportID)
	}
	if cap == nil {
		fb.release()
		in.fail(errKindUnknownExport, "", fmt.Sprintf("unknown export %d", f.exportID))
		return
	}
	if cap.Stub != nil {
		fb.release()
		in.fail(errKindRemote, "UnsupportedOperation",
			"remote invocation of VM capabilities is not supported yet")
		return
	}
	// Interned against the export's own method set: no string per call,
	// and no table a peer can grow. A name the export lacks (or a relayed
	// proxy's, whose set lives upstream) is copied for the callee to judge.
	method, ok := cap.InternMethod(f.method)
	if !ok {
		method = string(f.method)
	}
	args, err := c.unmarshalVector(f.args, &in.ext)
	argBytes := int64(len(f.args))
	fb.release() // decode copies everything out; the frame is free to recycle
	if err != nil {
		in.fail(errKindProtocol, "", err.Error())
		return
	}

	m := c.metrics
	// Untraced frames sample off the request id — monotonic per client
	// connection, so it is an exact 1-in-64 tick with no shared counter.
	start := m.serveStart(f.traceID != 0 || f.reqID&telemetry.UntracedSampleMask == 0)
	var serverSpan uint64

	// The host domain's idle tasks make the per-call cost the LRMI plus the
	// wire, not task setup.
	task := c.domain.GetTask()
	// A traced frame joins the serving task to the caller's trace and lends
	// its chain to this goroutine for the call, so onward calls — made with
	// this task or with tasks the handler creates — join it too. Untraced
	// frames (the common case) skip it all, the goroutine-id lookup too.
	if m != nil && f.traceID != 0 {
		serverSpan = telemetry.NewID()
		task.JoinTrace(telemetry.TraceContext{TraceID: f.traceID, SpanID: serverSpan})
	}
	callErr := cap.ServeWire(task, method, args, argBytes, in)
	if serverSpan != 0 {
		// Before the task goes back: the next GetTask, and the next call
		// this goroutine serves, may be an unrelated, untraced one.
		task.LeaveTrace()
	}
	c.domain.PutTask(task)

	if m != nil && !start.IsZero() {
		m.tracer.Finish(m.serveLatency, telemetry.Span{
			TraceID: f.traceID, SpanID: serverSpan, Parent: f.parentSpan, Kind: "server",
			Caller: m.peer, Callee: cap.Owner().Name, Method: method, Start: start,
		}, callErr)
	}
	if callErr != nil {
		in.fail(encodeWireErr(callErr))
	}
}

// EncodeResults implements core.WireEncoder: the callee's results go into
// a pooled buffer the reply owns until it is written. Void results — the
// bulk of small traffic — take no buffer.
func (in *inbound) EncodeResults(results []any) int64 {
	if len(results) == 0 {
		return 0
	}
	fb := getFrame(64)
	if err := in.c.marshalVectorInto(fb, results, &in.ext); err != nil {
		fb.release()
		in.fail(errKindProtocol, "", "encode results: "+err.Error())
		return 0
	}
	n := len(fb.b)
	if n+32 > maxFrame {
		in.ext.rollback()
		fb.release()
		in.fail(errKindProtocol, "", fmt.Sprintf("results of %d bytes exceed the frame limit", n))
		return 0
	}
	in.reply = replyFrame{reqID: in.call.reqID, status: statusOK, body: fb.b, bodyBuf: fb}
	return int64(n)
}

// batchRun is the shared state of one inbound run: the calls of the
// msgInvoke frames one read delivered — a vector, or several a peer's
// batcher sent back to back — with a slot per call holding the call's own
// copy of its decoded entry (the reader's is overwritten by the next frame),
// the frame buffer that entry aliases, and where its reply lands. Runs are
// pooled with their slot arrays: a run costs no more allocations than its
// calls.
type batchRun struct {
	c     *Conn
	slots []batchSlot
	size  int          // frame bytes the run's calls arrived in
	next  atomic.Int32 // index of the next unclaimed call
	spare atomic.Bool  // a submitted claimer has not started yet
	refs  atomic.Int32 // claimers submitted and not yet done
}

// batchSlot is one call of a run. It is served once, so a reply taken to
// be written (ready swapped back to false) never reads as ready again.
type batchSlot struct {
	inbound
	fb    *frameBuf   // the frame call aliases, one reference held until serveInvoke drops it
	ready atomic.Bool // the reply is built and no claimer has taken it to write yet
}

var batchRuns = sync.Pool{New: func() any { return new(batchRun) }}

func newBatchRun(c *Conn) *batchRun {
	b := batchRuns.Get().(*batchRun)
	b.c = c
	return b
}

// fits reports whether a frame of n calls in size bytes may join the run.
func (b *batchRun) fits(n, size int) bool {
	return len(b.slots)+n <= maxBatchCalls && b.size+size <= maxBatchBytes
}

// add copies the reader's decoded calls into the run and takes one
// reference on fb per call (each serveInvoke drops its own).
func (b *batchRun) add(calls []invokeFrame, fb *frameBuf) {
	for _, call := range calls {
		fb.retain()
		b.slots = append(b.slots, batchSlot{inbound: inbound{c: b.c, call: call}, fb: fb})
	}
	b.size += len(fb.b)
}

// abandon drops a run that will never be served — the reader faulted the
// connection while holding it — with its frame references.
func (b *batchRun) abandon() {
	for i := range b.slots {
		b.slots[i].fb.release()
	}
	b.recycle()
}

// recycle returns the run to its pool holding nothing.
func (b *batchRun) recycle() {
	clear(b.slots)
	b.slots = b.slots[:0]
	b.c, b.size = nil, 0
	b.next.Store(0)
	b.spare.Store(false)
	batchRuns.Put(b)
}

// addClaimer hands one more claimer of the run to the executor.
func (b *batchRun) addClaimer() {
	b.refs.Add(1)
	b.c.exec.submit(b)
}

// run is one claimer: it takes the run's calls in order, one at a time,
// and serves each on this goroutine. Before serving a call while calls are
// left unclaimed it makes sure a spare claimer has been submitted — at
// most one is in flight — so a call that blocks never stalls its siblings,
// a run whose calls all block still gets a goroutine per call, and a run of
// one call costs one executor hand-off. The executor never queues a
// claimer behind a busy worker, so a spare cannot be stuck behind this one.
//
// Out of calls, the claimer writes every finished reply no claimer has
// taken yet: a finished reply never waits for a sibling still being
// served, and on one P a run of calls that never block leaves as one
// vector. The last claimer out recycles the run.
func (b *batchRun) run() {
	b.spare.Store(false)
	n := int32(len(b.slots))
	for {
		i := b.next.Add(1) - 1
		if i >= n {
			break
		}
		if b.next.Load() < n && b.spare.CompareAndSwap(false, true) {
			b.addClaimer()
		}
		s := &b.slots[i]
		s.serveInvoke(s.fb)
		s.ready.Store(true)
	}
	b.writeFinished()
	if b.refs.Add(-1) == 0 {
		b.recycle()
	}
}

// writeFinished takes the finished replies no claimer has taken yet and
// writes them as msgReply vectors with per-call status — one faulting call
// never poisons its run — cut by size so large result sets cannot overflow
// one frame. A reply that cannot be written means the socket is broken:
// sendBatched shuts the connection down with the cause, so the peer's
// calls fail with its teardown instead of waiting on a live connection for
// replies that will never come. The result buffers are released once
// written (or abandoned on a dead connection).
func (b *batchRun) writeFinished() {
	c, slots := b.c, b.slots
	var taken [maxBatchCalls]int32
	n := 0
	for i := range slots {
		if slots[i].ready.CompareAndSwap(true, false) {
			taken[n] = int32(i)
			n++
		}
	}
	for start := 0; start < n; {
		end, size := start, 0
		for end < n {
			rep := &slots[taken[end]].reply
			s := len(rep.body) + len(rep.class) + len(rep.msg) + 32
			if end > start && size+s > maxBatchBytes {
				break
			}
			size += s
			end++
		}
		chunk := taken[start:end]
		if m := c.metrics; m != nil {
			m.replyOccupancy.Observe(int64(len(chunk)))
		}
		err := c.sendBatched(msgReply, len(chunk), func(w *wbuf, i int) []byte {
			return appendReplyHeader(w, &slots[chunk[i]].reply)
		})
		if err != nil {
			break // the connection is down
		}
		start = end
	}
	for _, i := range taken[:n] {
		if bb := slots[i].reply.bodyBuf; bb != nil {
			bb.release()
		}
	}
}
