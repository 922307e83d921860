package remote

import "sync"

// Wire-level batching: every invoke enqueues here instead of writing its
// own frame, and the queue drains into msgInvoke vectors — of one call or
// many, the same frame either way — on a per-connection flusher goroutine
// for asynchronous invokes, on the caller's own goroutine for blocking ones
// (flushCall: the caller is about to park anyway, so it does the write
// itself and saves the wake-up). Flushing is "smart batching" rather than
// timer-driven: whenever the flusher is idle it sends whatever has queued
// immediately, so a call on an idle connection pays no added latency, while
// calls arriving during a frame write pile up and leave as one vector. The
// flush policy is therefore:
//
//   - occupancy: at most maxBatchCalls calls per frame;
//   - size: at most maxBatchBytes of encoded calls per frame;
//   - explicit: Conn.Flush drains the queue on the calling goroutine
//     before returning.
//
// One-way traffic queues here too: every revocation, release and handoff
// entry leaves as part of a msgPush vector the flusher writes, so no
// revoker, marshal or revocation hook ever waits on the socket.

const (
	// maxBatchCalls bounds calls per msgInvoke vector.
	maxBatchCalls = 128
	// maxBatchBytes bounds the encoded size of one msgInvoke vector (well
	// under maxFrame; a single oversized call still travels, alone in its
	// vector, and is rejected by the per-call frame check).
	maxBatchBytes = 1 << 20
	// maxPushEntries bounds entries per msgPush vector (each entry is a
	// few uvarints, or an offer's two short strings, so even the cap is a
	// small frame).
	maxPushEntries = 4096
)

// batchedCall is one encoded, pending invocation awaiting a frame — a copy
// of what goes on the wire, not the call's record (which may be completed,
// cancelled and recycled while this waits in the queue).
type batchedCall struct {
	reqID    uint64
	exportID uint64
	method   string
	// traceID/parentSpan are the call's wire trace block (zero traceID
	// encodes as the one-byte untraced flags).
	traceID    uint64
	parentSpan uint64
	args       []byte
	// argsBuf is the pooled buffer args lives in (nil for zero-arg calls);
	// sendBatch releases it once the frame is written, and discard when the
	// connection shuts down with the call still queued.
	argsBuf *frameBuf
}

// wireSize is the call's encoded footprint (over-approximated headers,
// including the worst-case trace block).
func (b batchedCall) wireSize() int {
	return len(b.args) + len(b.method) + 64
}

// batcher coalesces pending invokes — and pushes — for one connection.
// Its mu is a leaf lock: nothing is acquired under it, so a revocation
// hook may queue a push whatever locks its revoker holds.
type batcher struct {
	c *Conn

	mu       sync.Mutex
	q        []batchedCall
	pq       []pushEntry // pending pushes, coalesced per frame
	closed   bool        // the connection is down: pushes have nowhere to go
	inflight int         // batches taken but not yet written
	idle     *sync.Cond  // signalled when inflight drops to zero

	// qSpare/pqSpare recycle the slices take/takePushes pop: the sender
	// returns each batch's backing array after the write, so steady-state
	// batching ping-pongs between two arrays instead of allocating one per
	// flush.
	qSpare  []batchedCall
	pqSpare []pushEntry

	// kick signals the flusher that the queue is non-empty (capacity 1:
	// a pending kick covers any number of enqueues).
	kick chan struct{}
}

func newBatcher(c *Conn) *batcher {
	b := &batcher{c: c, kick: make(chan struct{}, 1)}
	b.idle = sync.NewCond(&b.mu)
	return b
}

// enqueue adds one call and, when kick is set, nudges the flusher. A
// caller that passes false must see the call onto the wire itself
// (flushCall).
func (b *batcher) enqueue(call batchedCall, kick bool) {
	b.mu.Lock()
	b.q = append(b.q, call)
	b.mu.Unlock()
	if kick {
		b.nudge()
	}
}

// push queues one push entry and nudges the flusher; it never writes and
// never blocks. Pushes churned in a burst (a table sweep, a fan of proxies
// dying together, a domain's exports revoked at once) leave as one
// msgPush vector, exactly as batched invokes do.
func (b *batcher) push(p pushEntry) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.pq = append(b.pq, p)
	b.mu.Unlock()
	b.nudge()
}

func (b *batcher) nudge() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// run is the flusher goroutine: drain whenever kicked, exit with the
// connection. Calls still queued at shutdown fail through their pending
// completions (Conn.shutdown), not here.
func (b *batcher) run() {
	for {
		select {
		case <-b.kick:
		case <-b.c.done:
			return
		}
		b.drain()
	}
}

// discard drops the calls and pushes still queued when the connection
// shuts down, returning the calls' argument buffers to the pool (their
// pending records fail with the connection), and refuses later pushes —
// the proxies teardown revokes queue releases nobody would send.
func (b *batcher) discard() {
	b.mu.Lock()
	for i := range b.q {
		if fb := b.q[i].argsBuf; fb != nil {
			fb.release()
		}
	}
	clear(b.q)
	b.q = b.q[:0]
	clear(b.pq)
	b.pq = b.pq[:0]
	b.closed = true
	b.mu.Unlock()
}

// sendCalls writes one frame's worth of queued calls. It reports how many
// it sent and whether the call with request id reqID was among them.
func (b *batcher) sendCalls(reqID uint64) (n int, mine bool) {
	calls := b.take()
	for i := range calls {
		mine = mine || calls[i].reqID == reqID
	}
	if n = len(calls); n != 0 {
		b.c.sendBatch(calls)
		b.recycleCalls(calls)
	}
	return n, mine
}

// flushCall is a blocking caller's turn as the flusher: it writes queued
// call frames on the calling goroutine until the frame carrying its own
// call (enqueued without a kick) has left, so calls queued ahead of it
// ride along and nothing queued behind it delays its wait. An empty queue
// means a concurrent drain took the call and is writing it.
//
//jk:blocking
func (b *batcher) flushCall(reqID uint64) {
	for {
		if n, mine := b.sendCalls(reqID); n == 0 || mine {
			return
		}
	}
}

// drain sends frames until both queues are empty. Safe to call
// concurrently (Conn.Flush and blocking callers race the flusher):
// take/takePushes are atomic, so each queued call and push is sent
// exactly once. Invokes drain before pushes, so a call enqueued before
// its proxy was released reaches the exporter while the export entry is
// still live.
func (b *batcher) drain() {
	for {
		if n, _ := b.sendCalls(0); n != 0 {
			continue
		}
		pushes := b.takePushes()
		if len(pushes) == 0 {
			return
		}
		b.c.sendPushes(pushes)
		b.recyclePushes(pushes)
	}
}

// flush is drain plus the guarantee Conn.Flush advertises: it also waits
// out batches the background flusher popped but has not finished writing,
// so "flush returned" means "every call enqueued before it is on the
// wire (or has failed its pendings)".
func (b *batcher) flush() {
	b.drain()
	b.mu.Lock()
	for b.inflight > 0 || len(b.q) > 0 || len(b.pq) > 0 {
		if len(b.q) > 0 || len(b.pq) > 0 {
			// More work queued while we waited; send it ourselves.
			b.mu.Unlock()
			b.drain()
			b.mu.Lock()
			continue
		}
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// sentLocked retires one in-flight batch. Caller holds b.mu.
func (b *batcher) sentLocked() {
	b.inflight--
	if b.inflight == 0 {
		b.idle.Broadcast()
	}
}

// take pops up to one frame's worth of queued calls (occupancy and size
// bound), marking them in flight until sent. A single call exceeding
// maxBatchBytes still travels, alone. The popped slice reuses the spare
// backing array (recycleCalls returns it after the send), so steady-state
// batching allocates nothing here.
func (b *batcher) take() []batchedCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.q) == 0 {
		return nil
	}
	b.inflight++
	n, size := 0, 0
	for n < len(b.q) && n < maxBatchCalls {
		s := b.q[n].wireSize()
		if n > 0 && size+s > maxBatchBytes {
			break
		}
		size += s
		n++
	}
	out := append(b.qSpare[:0], b.q[:n]...)
	b.qSpare = nil
	rest := copy(b.q, b.q[n:])
	clear(b.q[rest:]) // drop arg references so sent calls are collectable
	b.q = b.q[:rest]
	return out
}

// recycleCalls retires a sent batch and returns its backing array to the
// spare slot (cleared, so it pins no argument buffers). Concurrent drains
// race for the slot; the loser's array goes to the GC.
func (b *batcher) recycleCalls(calls []batchedCall) {
	clear(calls)
	b.mu.Lock()
	if b.qSpare == nil {
		b.qSpare = calls[:0]
	}
	b.sentLocked()
	b.mu.Unlock()
}

// recyclePushes is recycleCalls for push batches.
func (b *batcher) recyclePushes(pushes []pushEntry) {
	clear(pushes)
	b.mu.Lock()
	if b.pqSpare == nil {
		b.pqSpare = pushes[:0]
	}
	b.sentLocked()
	b.mu.Unlock()
}

// pushBacklog reports the queued-push count (telemetry gauge).
func (b *batcher) pushBacklog() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pq)
}

// takePushes pops up to one frame's worth of queued pushes, marking them
// in flight until sent.
func (b *batcher) takePushes() []pushEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pq) == 0 {
		return nil
	}
	b.inflight++
	n := min(len(b.pq), maxPushEntries)
	out := append(b.pqSpare[:0], b.pq[:n]...)
	b.pqSpare = nil
	rest := copy(b.pq, b.pq[n:])
	clear(b.pq[rest:]) // drop the offers' strings
	b.pq = b.pq[:rest]
	return out
}
