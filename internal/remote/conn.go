package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/seri"
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
	domain *core.Domain

	nc    net.Conn
	wmu   sync.Mutex  // serializes frame writes
	whdr  [4]byte     // frame length header scratch (guarded by wmu)
	wvec  net.Buffers // vectored-write scratch (guarded by wmu)
	wout  net.Buffers // the header WriteTo consumes, aliasing wvec (guarded by wmu)
	whead wbuf        // sendBatched: the item headers' builder (guarded by wmu)
	wcuts []int       // sendBatched: where each item's header ends (guarded by wmu)
	wsegs [][]byte    // sendBatched: the frame's segments (guarded by wmu)

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
	stateOf(k).wireTypes.Do(func() { k.RegisterWireType("jk.remote.Manifest", Manifest{}) })
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
	now := time.Now()
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
// connection's only writer.
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
	return err
}

func (c *Conn) causeLocked() error {
	if c.cause != nil && c.cause != ErrConnClosed {
		return fmt.Errorf("%w: %v", ErrConnClosed, c.cause)
	}
	return ErrConnClosed
}

// --- export side -----------------------------------------------------------

// exportEntry is one row of the per-connection export table. refs counts
// the handles shipped to the peer that the peer has not yet released; the
// entry — and its gate revocation hook — dies when refs reaches zero (a
// release push) or when the gate is revoked, whichever happens first, so a
// long-lived connection does not pin dead gates.
type exportEntry struct {
	cap    *core.Capability
	refs   uint64 // handles sent minus handles released
	relGen uint64 // highest release generation applied (stale-release guard)
	unhook func() // OnRevoke deregistration for the revocation-push hook
	// relay, for re-exported proxies, names the upstream import whose wire
	// references this entry transitively pins; they are released when the
	// entry dies at refcount zero (see handleRelease), closing the
	// middleman release leak.
	relay *relayRef
}

// importEntry is one row of the import table. recv counts how many times
// the peer shipped this handle; the release sent when the proxy dies
// carries exactly that count, which is what makes a release racing a
// re-export benign (the exporter's refcount nets out, never underflows).
// gen is a connection-unique generation stamped when the proxy was
// created: the exporter ignores a release whose generation it has already
// applied, so a duplicated or superseded release cannot double-decrement.
type importEntry struct {
	cap  *core.Capability
	recv uint64
	gen  uint64
	// pins counts relay export entries (on this kernel's other
	// connections) whose wire references ride on this entry. While pinned
	// the receipts cannot go back to the exporter even if the local proxy
	// dies — the relayed handles downstream still route through them — so
	// a pinned release parks the entry as a zombie until the last pin
	// drops (unpinImport completes it).
	pins   int
	zombie bool
	// redeeming is set once a handoff offer for this import is being
	// redeemed: a peer repeating the offer starts nothing more.
	redeeming bool
}

// exported returns the capability behind the export id the peer names,
// nil when the table has no such entry.
func (c *Conn) exported(id uint64) *core.Capability {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.exports[id]; e != nil {
		return e.cap
	}
	return nil
}

// exportLocked registers cap in the export table (idempotent per gate),
// counts one wire reference, and arranges revocation push. created
// reports whether this call minted the entry (which is when a handoff
// offer is worth sending). Caller holds c.mu.
func (c *Conn) exportLocked(cap *core.Capability, relay *relayRef) (id uint64, created bool) {
	g := cap.Gate()
	if id, ok := c.exportIDs[g]; ok {
		c.exports[id].refs++
		return id, false
	}
	id = c.exportNewLocked(cap, relay)
	c.exportIDs[g] = id
	return id, true
}

// exportNewLocked unconditionally mints a fresh export entry, bypassing
// the per-gate dedup. Redeemed handoffs need this: the fresh export's
// refcount and revocation push must be independent of any direct import
// the peer already holds for the same gate, so releasing one can never
// strand the other. Caller holds c.mu.
func (c *Conn) exportNewLocked(cap *core.Capability, relay *relayRef) uint64 {
	g := cap.Gate()
	id := c.nextExport
	c.nextExport++
	e := &exportEntry{cap: cap, refs: 1, relay: relay}
	c.exports[id] = e
	// The gate's death queues a revocation push, and that is all the hook
	// does: the revoker never waits on the socket, and the hook may fire
	// inline — the gate already revoked, this goroutine holding c.mu —
	// because the batcher's lock is a leaf. The flusher drops the table
	// entry and writes the push (sendPushes), so remote proxies fail fast
	// instead of on their next wire round-trip; a revoked gate answers
	// every call with the same fault, so nothing is lost. The peer
	// tolerates a revoke arriving before the handle that names it
	// (preRevoked).
	e.unhook = g.OnRevoke(func() {
		reason := revokeReasonRevoked
		if cap.Owner().Terminated() {
			reason = revokeReasonTerminated
		}
		c.batch.push(pushEntry{kind: pushRevoke, exportID: id, reason: reason})
	})
	return id
}

// dropExportRefsLocked returns n of an export's wire references, deleting
// the entry at zero. It returns the gate-hook deregistration to run after
// c.mu is released (nil when the entry survives or is already gone), the
// upstream relay reference to release for a dying relay entry — the peer
// releasing the last relay handle is what lets the middleman return its
// own references to the origin — and an error when the peer releases more
// references than it was ever sent, a protocol violation that faults the
// connection. Caller holds c.mu and must act on unhook/upstream after
// releasing it.
func (c *Conn) dropExportRefsLocked(id, n uint64) (unhook func(), upstream *relayRef, err error) {
	e := c.exports[id]
	if e == nil {
		// Already dropped — the gate's revocation raced the peer's
		// release, or a rollback beat it. Benign either way.
		return nil, nil, nil
	}
	if n > e.refs {
		return nil, nil, fmt.Errorf("remote: protocol error: release of %d refs for export %d holding %d", n, id, e.refs)
	}
	e.refs -= n
	if e.refs > 0 {
		return nil, nil, nil
	}
	delete(c.exports, id)
	if g := e.cap.Gate(); c.exportIDs[g] == id {
		delete(c.exportIDs, g)
	}
	return e.unhook, e.relay, nil
}

// importLocked returns (creating if needed) the proxy for the peer's
// export id, counting one handle receipt. A cached proxy that was revoked
// locally (e.g. an unmounted remote servlet, or an explicit ReleaseProxy
// racing a re-send) is replaced: revocation kills the handle, not the
// peer's export, and a fresh import is a fresh grant — if the peer side
// is what died, the new proxy's first invoke fails there anyway. When a
// pushed revocation raced ahead of the import, the parked reason is
// returned as pre; the caller must apply it with RevokeWithReason outside
// c.mu (firing the proxy's revocation hooks under the connection lock
// would deadlock against the release path). created reports whether this
// call minted the proxy, so a decode that fails mid-vector can release
// exactly the entries nothing else will ever own. Caller holds c.mu.
func (c *Conn) importLocked(id uint64) (cap *core.Capability, pre error, created bool, err error) {
	if e, ok := c.imports[id]; ok {
		if !e.cap.Revoked() {
			e.recv++
			return e.cap, nil, false, nil
		}
		// Replacing a dead proxy: release the stale entry's receipts now.
		// Its release intent will find the entry replaced and send nothing,
		// so this is the only release for that generation — and any
		// in-flight async invokes on the old proxy were already resolved
		// with the capability fault when its gate was severed.
		c.batch.push(pushEntry{kind: pushRelease, exportID: id, count: e.recv, gen: e.gen})
	}
	cap, err = c.k.CreateProxyCapability(c.domain, &proxyTarget{conn: c, exportID: id})
	if err != nil {
		return nil, nil, false, err
	}
	created = true
	c.nextImportGen++
	e := &importEntry{cap: cap, recv: 1, gen: c.nextImportGen}
	c.imports[id] = e
	// The id is live again (the exporter resurrected it before our release
	// landed, or this replaces a dead proxy), so a future revoke for it is
	// no longer stale.
	delete(c.releasedImports, id)
	gen := e.gen
	// The proxy's death — explicit ReleaseProxy, local revocation, pushed
	// revocation, or connection teardown — releases its wire references.
	// The hook only queues the intent, so no revoker ever takes the
	// connection lock.
	cap.Gate().OnRevoke(func() { c.releaseImport(id, gen) })
	if p, raced := c.preRevoked[id]; raced {
		delete(c.preRevoked, id)
		pre = revokeFault(p.reason)
	}
	// A handoff offer for this handle may have raced ahead of the frame
	// that carries it (the middleman's flusher may write its pushes first).
	// Now that the proxy exists, redeem the parked offer against the origin.
	if off, parked := c.pendingHandoffs[id]; parked && pre == nil {
		delete(c.pendingHandoffs, id)
		e.redeeming = true
		go c.redeemOffer(off.p, cap, id, gen)
	}
	return cap, pre, created, nil
}

// releaseImport queues the release intent of the proxy created under
// generation gen of import id. It is what an import's revocation hook
// does, and all it does; the flusher resolves the intent under c.mu
// (releaseImportLocked) before anything is written.
func (c *Conn) releaseImport(id, gen uint64) {
	c.batch.push(pushEntry{kind: pushRelease, exportID: id, gen: gen})
}

// releaseImportLocked resolves a release intent: it drops the import entry
// the intent names, if the entry still holds the intent's generation, and
// fills in the receipts to return. It reports false when there is nothing
// to send — the entry was replaced or already released, or relay exports
// still ride on its receipts, which parks it as a zombie until the last
// unpin queues the intent again. Caller holds c.mu.
func (c *Conn) releaseImportLocked(p *pushEntry) bool {
	e := c.imports[p.exportID]
	if e == nil || e.gen != p.gen {
		return false
	}
	if e.pins > 0 {
		e.zombie = true
		return false
	}
	delete(c.imports, p.exportID)
	delete(c.preRevoked, p.exportID) // a parked revoke for a dead handle expires with it
	c.recordReleasedLocked(p.exportID, time.Now())
	p.count = e.recv
	return true
}

// unpinImport drops one relay pin from an import entry: a relay export
// entry that named this import as its upstream died (peer released it,
// gate revoked, payload rolled back, or its connection closed). The last
// pin leaving a zombie entry completes the release its proxy deferred.
func (c *Conn) unpinImport(id, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.imports[id]
	if e == nil || e.gen != gen || c.closed {
		return
	}
	e.pins--
	if e.pins == 0 && e.zombie {
		c.releaseImport(id, gen)
	}
}

// recordReleasedLocked remembers that every receipt for import id went
// back to the exporter. The exporter's entry dies when that release
// lands, so a revocation push for id can only be one that crossed the
// release in flight — handleRevoke recognizes it as stale and drops it
// instead of parking it in preRevoked (where a redeem-heavy workload,
// which force-releases a relay import per shortened handoff, would
// otherwise trip the flood guard). The set is a best-effort staleness
// filter: entries expire with the preRevoked window, and on overflow the
// whole set is wiped — a dropped record merely re-opens the benign park.
// Caller holds c.mu.
func (c *Conn) recordReleasedLocked(id uint64, now time.Time) {
	if len(c.releasedImports) >= 4*maxPreRevoked {
		for rid, at := range c.releasedImports {
			if now.Sub(at) > preRevokedTTL {
				delete(c.releasedImports, rid)
			}
		}
		if len(c.releasedImports) >= 4*maxPreRevoked {
			clear(c.releasedImports)
		}
	}
	c.releasedImports[id] = now
}

// ReleaseProxy severs a wire proxy's local handle, releasing its wire
// reference so the exporting kernel can drop its table entry once every
// handle is gone. It reports whether cap was a live wire proxy. Releasing
// is revocation of the handle, not of the peer's capability: importing
// the same export again yields a fresh, working proxy.
func ReleaseProxy(cap *core.Capability) bool {
	if proxyOf(cap) == nil {
		return false
	}
	cap.RevokeWithReason(fmt.Errorf("%w: proxy released", core.ErrRevoked))
	return true
}

// revokeFault builds the local error for a pushed revocation.
func revokeFault(reason byte) error {
	if reason == revokeReasonTerminated {
		return fmt.Errorf("%w (remote domain)", core.ErrDomainTerminated)
	}
	return fmt.Errorf("%w (remote)", core.ErrRevoked)
}

// --- seri External bridge --------------------------------------------------

// connExternal implements seri.External over the connection's tables:
// capabilities cross the stream as handles, everything else by copy. It
// keeps the books of one marshal or unmarshal, so an encode that counted
// wire references and then failed (a later unencodable value, an oversized
// frame) can return them — otherwise the peer would owe releases for
// handles it never received — and so a decode that fails mid-vector can
// release the proxies it minted that nothing else will ever own. Nothing
// allocates one per pass: it lives in the call's pooled state (the
// caller's callRecord, the callee's inbound) and is reset with it.
type connExternal struct {
	c       *Conn
	sent    []uint64           // export ids refcounted by this encode, for rollback
	created []*core.Capability // proxies minted by this decode, for rollback
}

// reset empties e for its next call, keeping the slices' arrays.
func (e *connExternal) reset() {
	e.c, e.sent = nil, e.sent[:0]
	clear(e.created)
	e.created = e.created[:0]
}

func (e *connExternal) EncodeExternal(v any) (uint64, bool) {
	cap, ok := v.(*core.Capability)
	if !ok {
		return 0, false
	}
	// A proxy imported over THIS connection goes home as the peer's own
	// export id; everything else (local capabilities, proxies from other
	// connections) is exported from here — and a foreign proxy also mints
	// a handoff offer when the peers allow it (see exportHandle).
	h, refcounted := e.c.exportHandle(cap)
	if refcounted {
		e.sent = append(e.sent, h>>1)
	}
	return h, true
}

// rollback returns the wire references this encode counted, for payloads
// that never reach the wire.
func (e *connExternal) rollback() {
	if len(e.sent) == 0 {
		return
	}
	c := e.c
	var unhooks []func()
	var upstreams []*relayRef
	c.mu.Lock()
	for _, id := range e.sent {
		// The refs being returned are ours, so over-release is impossible.
		unhook, upstream, _ := c.dropExportRefsLocked(id, 1)
		if unhook != nil {
			unhooks = append(unhooks, unhook)
		}
		if upstream != nil {
			upstreams = append(upstreams, upstream)
		}
	}
	c.mu.Unlock()
	e.sent = e.sent[:0]
	for _, unhook := range unhooks {
		unhook()
	}
	// A rolled-back relay entry returns only its pin; the middleman's own
	// import receipts stay (the payload never reached the peer, but the
	// import belongs to whoever holds the proxy, not to this encode).
	for _, rr := range upstreams {
		rr.conn.unpinImport(rr.importID, rr.gen)
	}
}

func (e *connExternal) DecodeExternal(h uint64) (any, error) {
	id, kind := unpackHandle(h)
	c := e.c
	if id == bootstrapID {
		return nil, fmt.Errorf("remote: a capability handle names the bootstrap")
	}
	if kind == handleKindYours {
		// Our own export returning home: hand back the original.
		if cap := c.exported(id); cap != nil {
			return cap, nil
		}
		return nil, fmt.Errorf("remote: unknown returning export %d", id)
	}
	c.mu.Lock()
	cap, pre, created, err := c.importLocked(id)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if created {
		e.created = append(e.created, cap)
	}
	if pre != nil {
		cap.RevokeWithReason(pre)
	}
	return cap, nil
}

// releaseCreated revokes the proxies this decode minted when the vector
// they arrived in never reaches its caller (a later value failed to
// decode). Nothing else will ever own them, so without this the import
// entry — and the sender's export reference — would outlive the failed
// call; revoking them routes through the ordinary release path. A proxy
// that was merely re-received by this decode (entry pre-existed) is left
// alone: its receipts are real and its owner releases them.
func (e *connExternal) releaseCreated() {
	for _, cap := range e.created {
		cap.RevokeWithReason(fmt.Errorf("%w: argument vector never delivered", core.ErrRevoked))
	}
	clear(e.created)
	e.created = e.created[:0]
}

// marshalVectorInto encodes an argument/result vector directly into fb —
// after whatever frame header the caller already wrote — so the encoded
// payload never exists as a separate allocation; a payload that outgrows fb
// moves it to a buffer of the class that fits (frameBuf.Grow). The empty
// vector is the empty payload: zero-arg calls and void results — the bulk
// of small batched traffic — skip the serializer entirely on both ends.
// ext keeps the wire references the encode counted: callers must run its
// rollback when the payload is abandoned before reaching the wire (after a
// send there is nothing to return — the handles really did ship). On error
// the references are already returned and fb holds what it held.
func (c *Conn) marshalVectorInto(fb *frameBuf, vals []any, ext *connExternal) error {
	if len(vals) == 0 {
		return nil
	}
	ext.c = c
	out, err := seri.AppendVector(fb.b, c.k.SeriRegistry(), vals, ext, fb)
	if err != nil {
		ext.rollback()
		return err
	}
	fb.b = out
	return nil
}

// unmarshalVector decodes what marshalVectorInto produced, through ext. A
// vector that fails mid-decode releases the proxies it already minted — the
// decode side of the encode rollback, keeping both ends' tables honest when
// a call's arguments or results turn out undecodable.
func (c *Conn) unmarshalVector(data []byte, ext *connExternal) ([]any, error) {
	if len(data) == 0 {
		return nil, nil
	}
	ext.c = c
	vals, err := seri.UnmarshalVector(c.k.SeriRegistry(), data, ext)
	if err != nil {
		ext.releaseCreated()
		return nil, err
	}
	return vals, nil
}

// sendPushes does the table work of queued pushes under c.mu and writes
// what is left as one msgPush. A revoke drops its export entry — the gate
// is dead — and one whose entry is already gone (released, rolled back)
// names no handle the peer holds, so it is not sent; a release intent is
// resolved against the import table (releaseImportLocked); a closed
// connection sends nothing. A failed write faults the connection: a
// half-dead writer that swallowed pushes silently would leak the peer's
// export entries and leave its proxies working until teardown, and every
// later frame was going to fail the same way.
func (c *Conn) sendPushes(q []pushEntry) {
	var upstreams []*relayRef
	out := q[:0]
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	for _, p := range q {
		switch {
		case p.kind == pushRevoke:
			e := c.exports[p.exportID]
			if e == nil {
				continue
			}
			delete(c.exports, p.exportID)
			if g := e.cap.Gate(); c.exportIDs[g] == p.exportID {
				delete(c.exportIDs, g)
			}
			if e.relay != nil {
				upstreams = append(upstreams, e.relay)
			}
		case p.kind == pushRelease && p.count == 0:
			if !c.releaseImportLocked(&p) {
				continue
			}
		}
		out = append(out, p)
	}
	c.mu.Unlock()
	// A revoked relay entry drops its pin on the upstream import; the
	// import's own revocation (same fault, pushed from the origin) completes
	// the release once every pin is gone.
	for _, rr := range upstreams {
		rr.conn.unpinImport(rr.importID, rr.gen)
	}
	if len(out) == 0 {
		return
	}
	err := c.sendBatched(msgPush, len(out), func(w *wbuf, i int) []byte {
		appendPush(w, &out[i])
		return nil
	})
	if err != nil {
		c.shutdown(fmt.Errorf("remote: send pushes: %w", err))
	}
}

// parkedRevoke is a pushed revocation waiting for its import: the frame
// carrying the handle was sent after the revocation push (the hook may
// fire during marshal, and the flusher may write the push before the frame
// leaves), so on a FIFO stream the handle follows within one in-flight
// window. at bounds that window: a parked entry that old is garbage — most
// commonly a revocation racing a release the importer already sent, for an
// id that will never arrive again — and is pruned rather than kept forever.
type parkedRevoke struct {
	reason byte
	at     time.Time
}

// maxPreRevoked caps the parked-revocation table. Entries are consumed by
// the import they raced, expired after preRevokedTTL (or when the handle
// they would have revoked is released), and cleared at teardown — so the
// table only grows when a peer floods revocations for exports it never
// ships. A peer that parks maxPreRevoked of them inside one TTL window is
// malfunctioning or hostile, and the connection faults rather than grow
// without bound.
const (
	maxPreRevoked = 1024
	preRevokedTTL = 5 * time.Second
)

// prunePreRevokedLocked drops parked revocations past their in-flight
// window. Caller holds c.mu.
func (c *Conn) prunePreRevokedLocked(now time.Time) {
	for id, p := range c.preRevoked {
		if now.Sub(p.at) > preRevokedTTL {
			delete(c.preRevoked, id)
		}
	}
}

// handleRevoke applies a pushed revocation to the local proxy, or parks
// it for an import still in flight. The peer's bootstrap is no import:
// a push naming it does nothing.
func (c *Conn) handleRevoke(exportID uint64, reason byte) error {
	if exportID == bootstrapID {
		return nil
	}
	c.mu.Lock()
	var cap *core.Capability
	if e := c.imports[exportID]; e != nil {
		cap = e.cap
	} else if at, released := c.releasedImports[exportID]; released && time.Since(at) <= preRevokedTTL {
		// The push crossed our own full release in flight: the handle is
		// already dead on both ends, so there is nothing left to revoke.
	} else {
		now := time.Now()
		c.prunePreRevokedLocked(now)
		if len(c.preRevoked) >= maxPreRevoked {
			c.mu.Unlock()
			return fmt.Errorf("remote: protocol error: %d revocations parked for never-imported exports", maxPreRevoked)
		}
		c.preRevoked[exportID] = parkedRevoke{reason: reason, at: now}
	}
	c.mu.Unlock()
	if cap != nil {
		c.metrics.capFault(1)
		cap.RevokeWithReason(revokeFault(reason))
	}
	return nil
}

// handlePush applies one entry of a msgPush vector.
func (c *Conn) handlePush(p *pushEntry) error {
	switch p.kind {
	case pushRelease:
		return c.handleRelease(p)
	case pushRevoke:
		return c.handleRevoke(p.exportID, p.reason)
	case pushRegister:
		return c.handleRegister(p)
	default:
		return c.handleOffer(p)
	}
}

// handleRelease returns wire references the peer is done with, dropping
// the export entry — and its gate revocation hook — at refcount zero. The
// generation guard makes duplicate or superseded releases inert; a release
// of more references than were ever sent faults the connection.
func (c *Conn) handleRelease(p *pushEntry) error {
	c.mu.Lock()
	e := c.exports[p.exportID]
	if e == nil || p.gen <= e.relGen {
		c.mu.Unlock()
		return nil // dropped by revocation GC, or a stale duplicate
	}
	e.relGen = p.gen
	unhook, upstream, err := c.dropExportRefsLocked(p.exportID, p.count)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if unhook != nil {
		unhook()
	}
	// A dead relay entry drops its pin on the middleman's own import, so
	// an import held only for relaying drains back to the origin once the
	// peer is done — without this, re-exporting a proxy pinned the
	// origin's export for the life of the middleman's connection. An
	// import the middleman still holds for itself just loses the pin and
	// stays usable.
	if upstream != nil {
		upstream.conn.unpinImport(upstream.importID, upstream.gen)
	}
	return nil
}

// --- error mapping ---------------------------------------------------------

// encodeWireErr maps a local invocation failure onto the wire.
func encodeWireErr(err error) (kind byte, class, msg string) {
	switch {
	case errors.Is(err, core.ErrRevoked):
		return errKindRevoked, "", err.Error()
	case errors.Is(err, core.ErrDomainTerminated):
		return errKindTerminated, "", err.Error()
	case errors.Is(err, core.ErrNoSuchMethod):
		return errKindNoMethod, "", err.Error()
	}
	var re *core.RemoteError
	if errors.As(err, &re) {
		return errKindRemote, re.Class, re.Msg
	}
	return errKindRemote, fmt.Sprintf("%T", err), err.Error()
}

// decodeWireErr rebuilds a local error from the wire, around the same
// kernel sentinels so errors.Is works transparently through proxies.
func decodeWireErr(kind byte, class, msg string) error {
	switch kind {
	case errKindRevoked:
		return wrapSentinel(core.ErrRevoked, msg)
	case errKindTerminated:
		return wrapSentinel(core.ErrDomainTerminated, msg)
	case errKindNoMethod:
		return wrapSentinel(core.ErrNoSuchMethod, msg)
	case errKindProtocol:
		return fmt.Errorf("remote: protocol error: %s", msg)
	default:
		return &core.RemoteError{Class: class, Msg: msg}
	}
}

// wrapSentinel rebuilds a sentinel-rooted error without repeating the
// sentinel's own text (the wire message is usually err.Error() of the
// same sentinel on the far side).
func wrapSentinel(sentinel error, msg string) error {
	msg = strings.TrimPrefix(msg, sentinel.Error())
	msg = strings.TrimPrefix(msg, ": ")
	if msg == "" {
		return fmt.Errorf("%w (remote)", sentinel)
	}
	return fmt.Errorf("%w (remote): %s", sentinel, msg)
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
