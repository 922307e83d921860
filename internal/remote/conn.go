package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
)

// connSeq numbers connections for domain naming.
var connSeq atomic.Int64

// ErrConnClosed reports an operation on a closed connection.
var ErrConnClosed = errors.New("remote: connection closed")

// Conn is one kernel-to-kernel connection. It is symmetric: both ends can
// export (answer lookups and invokes from the peer) and import (hold
// proxies for peer capabilities). All proxies imported over the
// connection are owned by a dedicated local domain, so a connection
// teardown is a domain termination: every proxy faults, nothing else in
// the kernel is disturbed.
type Conn struct {
	k      *core.Kernel
	ks     *kernelState // k's wire state: ticket table and clock
	domain *core.Domain

	nc    net.Conn
	wmu   sync.Mutex  // serializes frame writes
	whdr  [4]byte     // frame length header scratch (guarded by wmu)
	wvec  net.Buffers // vectored-write scratch (guarded by wmu)
	wout  net.Buffers // the header WriteTo consumes, aliasing wvec (guarded by wmu)
	whead wbuf        // sendBatched: the item headers' builder (guarded by wmu)
	wcuts []int       // sendBatched: where each item's header ends (guarded by wmu)
	wsegs [][]byte    // sendBatched: the frame's segments (guarded by wmu)
	wdead time.Time   // the socket's write deadline, on the ks clock (guarded by wmu)

	mu            sync.Mutex
	nextReq       uint64
	pending       map[uint64]*callRecord  // reqID -> the one record awaiting that reply (see call.go)
	invokes       int                     // pending records that are invokes: the load PendingCalls reports
	exports       map[uint64]*exportEntry // export id -> refcounted local capability
	exportIDs     map[*core.Gate]uint64   // dedup: gate -> export id
	nextExport    uint64
	imports       map[uint64]*importEntry // peer export id -> local proxy + receipt count
	nextImportGen uint64                  // generation stamped on fresh imports (release dedup)
	preRevoked    map[uint64]parkedRevoke // revokes that raced ahead of the import
	closed        bool
	cause         error

	// boot is this side's bootstrap capability, served at export id 0;
	// peerBoot invokes the peer's (see bootstrap.go).
	boot     *core.Capability
	peerBoot *proxyTarget

	// Peer identity for three-party handoff: the endpoint this side dialed,
	// or the listen address the peer announced in its Hello. A peer with
	// neither is no handoff origin: re-exports of its capabilities relay.
	peerNet, peerAddr string
	pendingHandoffs   map[uint64]parkedOffer // redeem offers that raced ahead of their relay import
	releasedImports   map[uint64]time.Time   // fully-released ids; a revoke crossing the release is stale

	// batch coalesces pending invokes into msgInvoke vectors, and
	// revocations, releases and handoff entries into msgPush vectors (see
	// batch.go): it is the connection's one writer of requests and pushes.
	batch *batcher

	// exec runs inbound invocations on pooled goroutines. Fresh
	// goroutines pay stack-growth copying on every call (reflect + seri
	// are stack-hungry); pooled workers keep their grown stacks warm,
	// which is most of the difference between sync and batched
	// throughput on null calls.
	exec *executor

	// metrics is the connection's telemetry bundle; nil when the kernel
	// has telemetry disabled (every use is nil-guarded).
	metrics *connMetrics

	done chan struct{}
}

// wireResult is one decoded reply entry.
type wireResult struct {
	results []any
	copied  int64
	err     error
}

// NewConn wires an established network connection into kernel k and
// starts its reader. The connection gets a fresh host domain named
// remote-<n> that owns its proxies and its bootstrap capability and runs
// its inbound calls.
func NewConn(k *core.Kernel, nc net.Conn) (*Conn, error) {
	ks := stateOf(k)
	ks.wireTypes.Do(func() { k.RegisterWireType("jk.remote.Manifest", Manifest{}) })
	d, err := k.NewDomain(core.DomainConfig{
		Name: fmt.Sprintf("remote-%d", connSeq.Add(1)),
	})
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Conn{
		k:               k,
		ks:              ks,
		domain:          d,
		nc:              nc,
		pending:         make(map[uint64]*callRecord),
		exports:         make(map[uint64]*exportEntry),
		exportIDs:       make(map[*core.Gate]uint64),
		nextExport:      bootstrapID + 1,
		imports:         make(map[uint64]*importEntry),
		preRevoked:      make(map[uint64]parkedRevoke),
		pendingHandoffs: make(map[uint64]parkedOffer),
		releasedImports: make(map[uint64]time.Time),
		done:            make(chan struct{}),
	}
	if c.boot, err = k.CreateNativeCapability(d, &bootstrap{c}); err != nil {
		d.Terminate("remote connection never started")
		return nil, err
	}
	c.peerBoot = &proxyTarget{conn: c, exportID: bootstrapID}
	c.batch = newBatcher(c)
	c.exec = newExecutor(c.done)
	c.metrics = newConnMetrics(k, c)
	go c.readLoop()
	go c.batch.run()
	// Announce our listen endpoint; nobody waits for the answer.
	network, addr := advertised(k)
	c.peerBoot.InvokeProxy(core.ProxyCall{Method: "Hello", Args: []any{network, addr}, Done: make(replyChan, 1)})
	return c, nil
}

// Flush forces every queued asynchronous invoke — and every queued push —
// onto the wire before returning, including frames the background flusher
// was mid-write on. The flusher already drains the queues whenever it is
// idle, so Flush is only needed when the caller wants a hard
// everything-is-sent point (end of a fan-out wave, say).
//
//jk:blocking
func (c *Conn) Flush() {
	c.batch.flush()
}

// Dial connects kernel k to a remote kernel listening on network/addr
// ("tcp" or "unix").
//
//jk:blocking
func Dial(k *core.Kernel, network, addr string) (*Conn, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c, err := NewConn(k, nc)
	if err != nil {
		return nil, err
	}
	c.setDialTarget(network, addr)
	return c, nil
}

// setDialTarget records the endpoint this side dialed, making c usable as
// a handoff origin reference (a middleman tells receivers to dial it).
func (c *Conn) setDialTarget(network, addr string) {
	c.mu.Lock()
	c.peerNet, c.peerAddr = network, addr
	c.mu.Unlock()
}

// Domain returns the connection's host domain (owner of its proxies).
func (c *Conn) Domain() *core.Domain { return c.domain }

// TableSizes is a snapshot of one connection's table occupancy, for leak
// diagnostics: on a healthy connection whose peers release what they are
// done with, every field returns to baseline after a burst of traffic.
type TableSizes struct {
	Exports    int // live export entries (capabilities the peer may invoke)
	ExportIDs  int // gate -> export id dedup entries (== Exports when healthy)
	Imports    int // live proxies for peer capabilities
	PreRevoked int // revocations parked for imports still in flight
	Unhook     int // gate revocation hooks held (one per live export)
	Pending    int // requests awaiting replies
	Handoffs   int // redeem offers parked for relay imports still in flight
}

// TableSizes reports the connection's current table occupancy. Parked
// revocations past their in-flight window are pruned first, so the
// snapshot never counts garbage a quiet connection would only have shed
// on its next pushed revocation.
func (c *Conn) TableSizes() TableSizes {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.ks.now()
	c.prunePreRevokedLocked(now)
	c.pruneHandoffsLocked(now)
	t := TableSizes{
		Exports:    len(c.exports),
		ExportIDs:  len(c.exportIDs),
		Imports:    len(c.imports),
		PreRevoked: len(c.preRevoked),
		Pending:    len(c.pending),
		Handoffs:   len(c.pendingHandoffs),
	}
	for _, e := range c.exports {
		if e.unhook != nil {
			t.Unhook++
		}
	}
	return t
}

// PendingCalls reports how many invocations are on the wire awaiting
// replies — the per-worker queue-depth signal a placement policy or
// autoscaler reads. Calls on the peer's bootstrap (pings, lookups, manifest
// fetches, redeems) are not load and are not counted; TableSizes().Pending
// counts every record. Cheaper than TableSizes: one lock, no pruning.
func (c *Conn) PendingCalls() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invokes
}

// Done is closed when the connection shuts down.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err returns the shutdown cause, once Done is closed.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// Close tears the connection down: pending calls fail, and every proxy
// imported over it faults with a revocation wrapping ErrRevoked.
func (c *Conn) Close() error {
	c.shutdown(ErrConnClosed)
	return nil
}

// writeWindow bounds how long one frame write may wait on a peer that
// stopped reading: past it the write fails, and the connection with it,
// instead of holding wmu — and every caller and the flusher behind it —
// for ever. The socket's deadline is moved only once less than half the
// window is left, so a frame pays one clock read, not a deadline syscall.
const writeWindow = 30 * time.Second

// writeLocked frames and writes one message whose payload is the
// concatenation of segs, as a single vectored write: the 4-byte length
// header and every segment go down in one writev-style syscall
// (net.Buffers), with no copy into an intermediate contiguous buffer. The
// first byte of the first segment is the message type. Caller holds wmu.
//
//jk:blocking
func (c *Conn) writeLocked(segs [][]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > maxFrame {
		return fmt.Errorf("remote: frame of %d bytes exceeds limit", total)
	}
	if len(segs) > 0 && len(segs[0]) > 0 {
		c.metrics.frameOut(segs[0][0])
	}
	binary.LittleEndian.PutUint32(c.whdr[:], uint32(total))
	c.wvec = append(c.wvec[:0], c.whdr[:])
	for _, s := range segs {
		if len(s) > 0 {
			c.wvec = append(c.wvec, s)
		}
	}
	if now := c.ks.now(); c.wdead.Sub(now) < writeWindow/2 {
		c.wdead = now.Add(writeWindow)
		if err := c.nc.SetWriteDeadline(c.wdead); err != nil {
			return err
		}
	}
	// WriteTo consumes its receiver, so hand it a copy of the scratch's
	// slice header — in a Conn field, not a local: the receiver's address
	// escapes through the writer interface, and a local would cost one
	// heap allocation per frame. The scratch itself is cleared after the
	// write so it does not pin payload buffers between frames.
	c.wout = c.wvec
	_, err := c.wout.WriteTo(c.nc)
	c.wout = nil
	clear(c.wvec)
	c.wvec = c.wvec[:0]
	return err
}

// sendBatched frames and writes one vector message of n items (a msgInvoke,
// a msgReply chunk or a msgPush) as a single vectored write; it is the
// connection's only writer. A write that fails — the peer gone, or past
// writeWindow — may have left part of a frame on the stream, so it shuts
// the connection down with the write's error as the cause: pending calls
// fail and proxies fault there, whichever writer hit it.
// item(w, i) appends item i's header to w and returns the payload that
// follows it on the wire (nil for none): headers build in one pooled
// buffer, payloads stay where they were encoded. Two passes, because
// appends may move the header buffer — segments are cut once it is final.
// Both run under wmu, in scratch the connection keeps (the builder
// included: item is an indirect call, so a local's address would escape
// through it), and a vector frame allocates nothing; item must not block.
//
//jk:blocking
func (c *Conn) sendBatched(t byte, n int, item func(w *wbuf, i int) []byte) error {
	hb := getFrame(64 * n)
	c.wmu.Lock()
	w := &c.whead
	w.b = append(hb.b, t)
	w.uvarint(uint64(n))
	cuts, segs := c.wcuts[:0], c.wsegs[:0]
	for i := 0; i < n; i++ {
		segs = append(segs, nil, item(w, i))
		cuts = append(cuts, len(w.b))
	}
	hb.b, w.b = w.b, nil
	prev := 0
	for i, end := range cuts {
		//jk:allow(bufown) segs is the connection's wmu-guarded scratch: it is cleared below, before hb is released, so the slices never outlive the buffer
		segs[2*i] = hb.b[prev:end]
		prev = end
	}
	//jk:allow(lockhold) wmu is the frame-write serializer: it is held across this one vectored write so frames never interleave; the passes above only append bytes, and nothing else ever blocks under it
	err := c.writeLocked(segs)
	clear(segs)
	c.wcuts, c.wsegs = cuts, segs
	c.wmu.Unlock()
	hb.release()
	if err != nil {
		c.shutdown(fmt.Errorf("remote: %s write failed: %w", msgName(t), err))
	}
	return err
}

func (c *Conn) causeLocked() error {
	if c.cause != nil && c.cause != ErrConnClosed {
		return fmt.Errorf("%w: %v", ErrConnClosed, c.cause)
	}
	return ErrConnClosed
}

// --- teardown --------------------------------------------------------------

// shutdown tears the connection down exactly once: pending requests fail,
// every imported proxy faults, and the host domain terminates so its
// resources are reclaimed.
func (c *Conn) shutdown(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cause = cause
	pending := c.pending
	c.pending = make(map[uint64]*callRecord)
	c.invokes = 0
	imports := make([]*core.Capability, 0, len(c.imports))
	for _, e := range c.imports {
		imports = append(imports, e.cap)
	}
	c.imports = make(map[uint64]*importEntry)
	c.preRevoked = make(map[uint64]parkedRevoke)
	c.pendingHandoffs = make(map[uint64]parkedOffer)
	c.releasedImports = make(map[uint64]time.Time)
	// Unregister every export's revocation hook so a closed connection
	// does not stay pinned to long-lived gates, and collect the relay
	// entries' upstream pins — they live on OTHER connections of this
	// kernel and must not outlive the relays that took them.
	unhook := make([]func(), 0, len(c.exports))
	var upstreams []*relayRef
	for _, e := range c.exports {
		if e.unhook != nil {
			unhook = append(unhook, e.unhook)
		}
		if e.relay != nil {
			upstreams = append(upstreams, e.relay)
		}
	}
	c.exports = make(map[uint64]*exportEntry)
	c.exportIDs = make(map[*core.Gate]uint64)
	c.mu.Unlock()

	for _, remove := range unhook {
		remove()
	}
	for _, rr := range upstreams {
		rr.conn.unpinImport(rr.importID, rr.gen)
	}

	close(c.done)
	c.nc.Close()
	c.batch.discard()

	if m := c.metrics; m != nil {
		m.capFault(int64(len(imports)))
		m.drop()
		m.reg.Eventf("conn %s closed: %v", m.peer, cause)
	}

	fault := fmt.Errorf("%w: remote connection lost: %v", core.ErrRevoked, cause)
	for _, cap := range imports {
		cap.RevokeWithReason(fault)
	}
	for _, rec := range pending {
		rec.completeWire(wireResult{err: fmt.Errorf("%w: connection lost mid-call: %v", core.ErrRevoked, cause)})
	}
	c.domain.Terminate("remote connection closed")
}
