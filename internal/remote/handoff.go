package remote

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"jkernel/internal/core"
)

// Three-party handoff: when a proxy imported from kernel A is re-exported
// over another connection to kernel C, the middleman B mints a redeemable
// ticket — A's dialable address, A's export id, and a one-time nonce
// registered with A — instead of settling for a relay in which every C
// invoke transits B. C dials A (or reuses a pooled connection to it),
// redeems the ticket for a fresh first-class export, and retargets its
// existing proxy capability onto the direct route; the relay import is
// then released, draining B's tables back to baseline. The relay path is
// minted regardless and stays as the transparent fallback: an origin with
// no known address, an unreachable one, or an expired ticket just leaves
// the two-hop route in place.

// Handoff pacing and table bounds. Tickets are one-time and TTL-pruned,
// reusing the preRevoked flood discipline from the release-race
// machinery: a peer that floods registrations faults its connection
// rather than growing the table without bound.
const (
	ticketTTL          = 30 * time.Second
	maxTickets         = 1024
	redeemDialTimeout  = 5 * time.Second
	redeemRetries      = 4
	redeemRetryPause   = 25 * time.Millisecond
	redeemReplyTimeout = 10 * time.Second
)

// ticket is one registered handoff grant at the origin kernel: the
// capability a middleman promised to a third party, redeemable once.
type ticket struct {
	cap      *core.Capability
	exportID uint64 // the origin's export id on the registering connection
	at       time.Time
}

// redeemSlot is one pooled origin connection (receiver side), keyed by
// origin address. The slot mutex doubles as a singleflight: concurrent
// redeems toward the same origin share one dial.
type redeemSlot struct {
	mu   sync.Mutex
	conn *Conn
}

// kernelState is the per-kernel wire state: the advertised listen
// endpoint, the origin-side ticket table, the receiver-side pool of
// connections to origin kernels, the one-time registration of the
// bootstrap's wire types, and the clock that ages tickets and the
// connections' parked revocations, released ids and parked offers.
type kernelState struct {
	mu        sync.Mutex
	network   string
	addr      string
	tickets   map[uint64]ticket
	slots     map[string]*redeemSlot
	wireTypes sync.Once

	// now is time.Now unless a test replaced it, before the kernel's
	// first connection, to age entries past a TTL without waiting it out.
	now func() time.Time
}

var kstates sync.Map // *core.Kernel -> *kernelState

func stateOf(k *core.Kernel) *kernelState {
	if v, ok := kstates.Load(k); ok {
		return v.(*kernelState)
	}
	v, _ := kstates.LoadOrStore(k, &kernelState{
		tickets: make(map[uint64]ticket),
		slots:   make(map[string]*redeemSlot),
		now:     time.Now,
	})
	return v.(*kernelState)
}

// Advertise records kernel k's dialable listen endpoint, announced to
// peers in the Hello every new connection sends, so re-exports of k's
// capabilities can be shortened back to it. Listen and RunWorker call it automatically; call
// it directly only for hand-built listeners.
func Advertise(k *core.Kernel, network, addr string) {
	ks := stateOf(k)
	ks.mu.Lock()
	ks.network, ks.addr = network, addr
	ks.mu.Unlock()
}

// advertised returns k's recorded listen endpoint ("" when not listening).
func advertised(k *core.Kernel) (network, addr string) {
	ks := stateOf(k)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.network, ks.addr
}

// HandoffTables is a snapshot of one kernel's handoff state, for leak
// diagnostics: tickets drain on redeem or TTL, so a quiet kernel reads
// zero.
type HandoffTables struct {
	Tickets     int // registered, unredeemed tickets
	OriginConns int // pooled receiver-side connections to origin kernels
}

// HandoffTableSizes reports k's current handoff-table occupancy, pruning
// expired tickets first.
func HandoffTableSizes(k *core.Kernel) HandoffTables {
	ks := stateOf(k)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.pruneTicketsLocked(ks.now())
	return HandoffTables{Tickets: len(ks.tickets), OriginConns: len(ks.slots)}
}

// HandoffDone reports whether cap is a wire proxy whose route was
// shortened by a redeemed handoff ticket (it now invokes the origin
// kernel directly instead of relaying through the middleman that
// re-exported it).
func HandoffDone(cap *core.Capability) bool {
	pt := proxyOf(cap)
	return pt != nil && pt.redeemed
}

func (ks *kernelState) pruneTicketsLocked(now time.Time) {
	for n, t := range ks.tickets {
		if now.Sub(t.at) > ticketTTL {
			delete(ks.tickets, n)
		}
	}
}

// registerTicket records a one-time grant. A full table inside one TTL
// window means a malfunctioning or hostile middleman; the caller faults
// the registering connection.
func (ks *kernelState) registerTicket(nonce uint64, cap *core.Capability, exportID uint64) error {
	now := ks.now()
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.pruneTicketsLocked(now)
	if len(ks.tickets) >= maxTickets {
		return fmt.Errorf("remote: protocol error: %d handoff tickets registered and unredeemed", maxTickets)
	}
	ks.tickets[nonce] = ticket{cap: cap, exportID: exportID, at: now}
	return nil
}

// takeTicket consumes a ticket (one-time semantics).
func (ks *kernelState) takeTicket(nonce uint64) (ticket, bool) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.pruneTicketsLocked(ks.now())
	t, ok := ks.tickets[nonce]
	if ok {
		delete(ks.tickets, nonce)
	}
	return t, ok
}

// originConn returns (dialing if needed) the kernel's pooled connection
// to the origin at network/addr; the handshake includes a ping, so a
// connection handed out is one the origin serves. A pooled connection that
// died is replaced on the next call.
func (ks *kernelState) originConn(k *core.Kernel, network, addr string) (*Conn, error) {
	key := network + "!" + addr
	ks.mu.Lock()
	s := ks.slots[key]
	if s == nil {
		s = &redeemSlot{}
		ks.slots[key] = s
	}
	ks.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		select {
		case <-s.conn.Done():
			s.conn = nil // died since last use; dial fresh below
		default:
			return s.conn, nil
		}
	}
	//jk:allow(lockhold) the slot mutex is a deliberate per-origin singleflight: concurrent redeemers must park on the one dial rather than each dialing the origin themselves
	conn, err := dialHandshake(k, network, addr, redeemDialTimeout)
	if err != nil {
		return nil, err
	}
	conn.setDialTarget(network, addr)
	s.conn = conn
	return conn, nil
}

// newNonce mints a one-time ticket nonce. Nonces gate redemption of a
// grant the origin already decided to honor — unguessability keeps a
// third kernel from racing the intended receiver, and 64 random bits are
// plenty for a table capped at maxTickets.
func newNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if n := binary.LittleEndian.Uint64(b[:]); n != 0 {
			return n
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// count bumps a kernel-wide counter: a handoff outcome or a bootstrap
// call served (nil-safe).
func (c *Conn) count(name string) {
	if reg := c.k.Telemetry(); reg != nil {
		reg.Counter(name).Inc()
	}
}

// relayRef records, on a relay export entry, where the re-exported proxy
// came from: the upstream connection and the import entry (id +
// generation) holding the middleman's wire references on the origin. When
// the downstream peer releases the last relay reference, these upstream
// references are released too — without this the middleman pinned the
// origin's export forever (the relayed-capability release leak).
type relayRef struct {
	conn     *Conn
	importID uint64
	gen      uint64
}

// origin is where a middleman tells a receiver to redeem a handoff for a
// proxy on this connection: the origin's dialable address, "" when it has
// none — which is what keeps a re-export on the relay path.
type origin struct{ network, addr string }

// relayInfo resolves the upstream side of re-exporting the proxy for
// importID: the release linkage for the relay entry, and the origin to
// offer. The returned relayRef holds one pin on the import entry — a
// caller that does not hand it to a freshly created export entry must
// unpinImport it. Takes c.mu itself — callers must not hold any connection
// lock, keeping cross-connection lock order acyclic.
func (c *Conn) relayInfo(importID uint64) (*relayRef, origin) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.imports[importID]
	if e == nil {
		return nil, origin{}
	}
	e.pins++
	return &relayRef{conn: c, importID: importID, gen: e.gen}, origin{c.peerNet, c.peerAddr}
}

// offerHandoff mints a ticket for relay export id, a re-export of pt: it
// queues the registration with the origin on pt's own connection and the
// offer to this connection's peer, and writes neither — it runs during
// marshal. Registration is queued first; the receiver's redeem retries
// briefly in case it still outruns the register entry to the origin.
func (c *Conn) offerHandoff(pt *proxyTarget, id uint64, o origin) {
	nonce := newNonce()
	pt.conn.batch.push(pushEntry{kind: pushRegister, nonce: nonce, exportID: pt.exportID})
	c.batch.push(pushEntry{kind: pushOffer, relayID: id, exportID: pt.exportID, nonce: nonce, network: o.network, addr: o.addr})
	c.count("remote.handoff.offers")
}

// exportHandle encodes cap as a capability handle for this connection's
// peer — the single choke point behind both the seri External hook and
// lookup replies. A proxy going home travels as the peer's own export id
// (not refcounted); everything else is exported here. When cap is a proxy
// from ANOTHER connection — a re-export that would otherwise relay every
// invoke through this kernel — the relay export still happens (it is the
// fallback the receiver keeps if redemption fails), but a handoff ticket
// is minted alongside it: registered with the origin over the proxy's own
// connection, offered to the receiver over this one. The offer may reach
// the receiver before the frame carrying the handle, which then parks it
// until the import materializes.
func (c *Conn) exportHandle(cap *core.Capability) (handle uint64, refcounted bool) {
	pt := proxyOf(cap)
	if pt != nil && pt.conn == c {
		return packHandle(pt.exportID, handleKindYours), false
	}
	var relay *relayRef
	var o origin
	if pt != nil {
		relay, o = pt.conn.relayInfo(pt.exportID)
	}
	c.mu.Lock()
	id, created := c.exportLocked(cap, relay)
	c.mu.Unlock()
	if !created && relay != nil {
		// Deduped onto an existing relay entry, which holds its own pin.
		relay.conn.unpinImport(relay.importID, relay.gen)
	}
	if created && o.addr != "" {
		c.offerHandoff(pt, id, o)
	}
	return packHandle(id, handleKindTheirs), true
}

// parkedOffer is a redeem offer waiting for the relay import it names
// (the offer outran the handle on the same stream). TTL-pruned with the
// preRevoked window.
type parkedOffer struct {
	p  pushEntry
	at time.Time
}

// pruneHandoffsLocked drops parked offers past the in-flight window.
// Caller holds c.mu.
func (c *Conn) pruneHandoffsLocked(now time.Time) {
	for id, p := range c.pendingHandoffs {
		if now.Sub(p.at) > preRevokedTTL {
			delete(c.pendingHandoffs, id)
		}
	}
}

// handleRegister records a ticket registration: we are the origin. Only a
// table flood faults the connection; a registration for an export revoked
// or released under the middleman is dropped — its redeem fails anyway.
func (c *Conn) handleRegister(p *pushEntry) error {
	cap := c.exported(p.exportID)
	if cap == nil {
		return nil
	}
	return c.ks.registerTicket(p.nonce, cap, p.exportID)
}

// handleOffer services a redeem offer: we are the receiver. An import is
// redeemed at most once, so a peer repeating an offer starts nothing; an
// offer for a relay import not yet here is parked for it, and one for a
// relay already released is stale. Only a parking flood faults the
// connection; anything stale degrades to the relay fallback.
func (c *Conn) handleOffer(p *pushEntry) error {
	now := c.ks.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneHandoffsLocked(now)
	if e, ok := c.imports[p.relayID]; ok {
		if !e.redeeming {
			e.redeeming = true
			go c.redeemOffer(*p, e.cap, p.relayID, e.gen)
		}
		return nil
	}
	if at, released := c.releasedImports[p.relayID]; released && now.Sub(at) <= preRevokedTTL {
		return nil
	}
	if len(c.pendingHandoffs) >= maxPreRevoked {
		return fmt.Errorf("remote: protocol error: %d handoff offers parked for never-imported relays", maxPreRevoked)
	}
	c.pendingHandoffs[p.relayID] = parkedOffer{p: *p, at: now}
	return nil
}

// exportFreshHandle exports cap under a brand-new id, bypassing the
// per-gate dedup: a redeemed handoff needs an export whose refcount and
// revocation push are independent of any direct import the peer already
// holds for the same gate, so releasing one can never strand the other.
// When cap is itself a proxy (this kernel is mid-chain), the fresh entry
// carries the upstream relay linkage and a further offer is minted, so a
// chain shortens hop by hop.
func (c *Conn) exportFreshHandle(cap *core.Capability) (uint64, bool) {
	pt := proxyOf(cap)
	if pt != nil && pt.conn == c {
		// The ticket names a capability imported FROM the redeeming peer:
		// a fresh export would just loop calls back through us.
		return 0, false
	}
	var relay *relayRef
	var o origin
	if pt != nil {
		relay, o = pt.conn.relayInfo(pt.exportID)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if relay != nil {
			relay.conn.unpinImport(relay.importID, relay.gen)
		}
		return 0, false
	}
	id := c.exportNewLocked(cap, relay)
	c.mu.Unlock()
	if o.addr != "" {
		c.offerHandoff(pt, id, o)
	}
	return id, true
}

// isUnknownTicket matches the origin's not-yet-registered reply, the one
// redeem failure worth a brief retry (the registration frame may still be
// in flight on the middleman->origin connection).
func isUnknownTicket(err error) bool {
	return err != nil && strings.Contains(err.Error(), "handoff ticket")
}

// redeemOffer is the receiver side of one handoff, run on its own
// goroutine: dial (or reuse) the origin, trade the nonce for a fresh
// export, adopt it as an import on the origin connection, retarget the
// existing relay proxy onto the direct route, and release the middleman's
// relay references. Every failure short of a revocation leaves the relay
// path untouched — the capability keeps working, just unshortened.
func (c *Conn) redeemOffer(f pushEntry, cap *core.Capability, relayID, relayGen uint64) {
	oc, err := c.ks.originConn(c.k, f.network, f.addr)
	if err != nil {
		c.count("remote.handoff.fallback")
		return
	}
	var id uint64
	var methods []string
	for attempt := 0; ; attempt++ {
		id, methods, err = oc.redeem(f.nonce, f.exportID)
		if err == nil || attempt >= redeemRetries || !isUnknownTicket(err) {
			break
		}
		time.Sleep(redeemRetryPause)
	}
	if err != nil {
		if errors.Is(err, core.ErrRevoked) || errors.Is(err, core.ErrDomainTerminated) {
			// The gate died between ticket mint and redeem: the redeeming
			// import faults — the origin consumed the ticket without
			// resurrecting the export, and the relay path is about to
			// deliver the same push.
			c.metrics.capFault(1)
			cap.RevokeWithReason(err)
			c.count("remote.handoff.revoked")
			return
		}
		c.count("remote.handoff.fallback")
		return
	}
	pre, ok := oc.adoptImport(id, cap)
	if !ok {
		// The origin connection died under us; its teardown already
		// reclaimed the fresh export. The relay path stands.
		c.count("remote.handoff.fallback")
		return
	}
	if pre != nil {
		// A revocation for the fresh export raced ahead of the adoption
		// and was parked in preRevoked: apply it (satellite of the
		// mid-redeem revocation race).
		c.metrics.capFault(1)
		cap.RevokeWithReason(pre)
		return
	}
	opt := proxyOf(cap)
	npt := &proxyTarget{conn: oc, exportID: id, redeemed: true}
	npt.setManifest(methods)
	if !core.RetargetProxy(cap, npt) {
		// Revoked under us; the adoption hook already released the fresh
		// import.
		return
	}
	// Forward the relay route before releasing it: an invoke that
	// snapshotted the old target races the release below and retries on
	// npt when the middleman reports the export gone.
	if opt != nil {
		opt.next.Store(npt)
	}
	// The proxy now invokes the origin directly. Drop the middleman's
	// relay references; its tables (and, through the relay release
	// linkage, its own upstream references) drain back to baseline.
	c.releaseImport(relayID, relayGen)
	c.count("remote.handoff.redeemed")
}

// adoptImport registers an import entry for id on this (origin)
// connection whose proxy is an EXISTING capability — the relay import
// being shortened — rather than a freshly minted one. The entry carries a
// fresh generation and the usual lifecycle hook; a revocation parked for
// id is consumed and returned as pre. Returns ok=false when the
// connection is closed or the id is unexpectedly occupied (the caller
// keeps the relay path).
func (c *Conn) adoptImport(id uint64, cap *core.Capability) (pre error, ok bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	if _, exists := c.imports[id]; exists {
		c.mu.Unlock()
		return nil, false
	}
	c.nextImportGen++
	e := &importEntry{cap: cap, recv: 1, gen: c.nextImportGen}
	c.imports[id] = e
	delete(c.releasedImports, id) // id is live again; future revokes are real
	gen := e.gen
	// If cap is already revoked this fires inline — under c.mu, which is
	// why the hook only queues — and the fresh entry self-cleans through
	// the ordinary release path.
	cap.Gate().OnRevoke(func() { c.releaseImport(id, gen) })
	if p, raced := c.preRevoked[id]; raced {
		delete(c.preRevoked, id)
		pre = revokeFault(p.reason)
	}
	c.mu.Unlock()
	return pre, true
}
