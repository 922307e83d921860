package remote

import (
	"fmt"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/seri"
)

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
	c.recordReleasedLocked(p.exportID, c.ks.now())
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
// connection sends nothing. A failed write faults the connection
// (sendBatched): a half-dead writer that swallowed pushes silently would
// leak the peer's export entries and leave its proxies working until
// teardown, and every later frame was going to fail the same way.
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
	c.sendBatched(msgPush, len(out), func(w *wbuf, i int) []byte {
		appendPush(w, &out[i])
		return nil
	})
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
	} else if at, released := c.releasedImports[exportID]; released && c.ks.now().Sub(at) <= preRevokedTTL {
		// The push crossed our own full release in flight: the handle is
		// already dead on both ends, so there is nothing left to revoke.
	} else {
		now := c.ks.now()
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
