// Package threads implements the J-Kernel's thread-segment model.
//
// The paper (§3.1, "Local-RMI stubs"): switching real threads on every
// cross-domain call would cost more than the whole call (Table 3), so the
// J-Kernel instead divides each carrier thread into segments, one per side
// of a cross-domain call, and interposes a Thread class whose stop,
// suspend, resume, and setPriority act on the *current segment* rather
// than the carrier. A caller therefore cannot stop or suspend its callee's
// execution, and a callee holding a Thread object cannot attack the caller
// after returning.
//
// A Chain is the per-carrier stack of segments. Cross-domain calls push a
// segment on entry and pop it on return. Stop and suspend requests are
// recorded on the segment and take effect when that segment is (or becomes)
// the one in control: the VM interpreter polls via a safepoint hook, and
// the native LRMI path polls at call boundaries.
//
// A poll that finds nothing pending is one load of the chain's attention
// word. A requester records its request on the segment and raises the word
// after; the carrier lowers it before it re-reads the segments, and raises
// it again while any live segment still has a request it has not taken.
//
// A crossing writes only the carrier's own memory: Push and Pop take no
// lock. Another goroutine reaches a chain through a Handle operation or
// Kick, and nothing else.
package threads

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"jkernel/internal/telemetry"
)

// ErrSegmentStopped is returned (or converted to a VM ThreadDeath) when a
// stopped segment regains control.
var ErrSegmentStopped = errors.New("threads: segment stopped")

// attnSeg is the chain's bit of the attention word. The chain is the
// word's one writer: the carrier's VM thread, which shares it
// (SetAttention), only reads it.
const attnSeg uint32 = 1

// segIDs hands out activation ids, idBlock at a time to each chain: unique
// across chains with no shared write on the crossing.
var segIDs atomic.Int64

const idBlock = 1 << 10

// Owner is the domain a segment runs in, as its chain knows it.
type Owner interface {
	// Ended returns nil while the owner lives and the cause of its end from
	// then on. The end is published before any chain is kicked about it.
	Ended() error
}

// Seg is one side of a cross-domain call: the unit the interposed Thread
// class operates on. A chain recycles its Seg structs: every Push is a new
// activation with a fresh ID and reset stop/suspend state, so a *Seg is
// only meaningful to the carrier while the activation it pushed is live.
// Anything that outlives the activation (a jk/lang/Thread object) must
// hold a Handle instead.
type Seg struct {
	// Carrier-owned: read and written only by the goroutine running the
	// chain.
	ID     int64
	Domain int64 // owning domain id
	owner  Owner // the domain itself, once SetOwner named it
	chain  *Chain
	prev   *Seg // caller segment; next free Seg while on the free list

	// mu orders Handle operations against the carrier, which takes it in
	// the slow poll and to write live. Push resets the rest without it: no
	// Handle names an activation before Handle mints it or after its pop.
	mu sync.Mutex
	// live is the id Handles are checked against: the activation's ID from
	// the time a Handle is minted until the pop, 0 otherwise. Only the
	// carrier writes it, so the carrier reads it without mu.
	live int64
	// stop is a one-shot stop that Poll reports, and takes, once the
	// segment is in control.
	stop      error
	suspended bool
	priority  int64
}

// Chain is the segment stack of one carrier thread.
type Chain struct {
	// attn is the attention word: the chain's own, or the carrier's VM
	// thread's (SetAttention).
	attn *atomic.Uint32

	// top, free and the id block are the carrier's alone.
	top *Seg
	// free holds popped Segs for reuse, linked through prev.
	free *Seg
	// nextID..idEnd is what is left of the block drawn from segIDs.
	nextID, idEnd int64
	// depth is the number of live segments. The carrier's alone.
	depth int

	// mu is the slow poll's, and Kick's to wake a carrier parked on cv.
	mu sync.Mutex
	// cv wakes a carrier parked on a suspended segment.
	cv *sync.Cond

	// displaced is the chain this one took the goroutine's registry entry
	// from (Bind), restored when this one ends. The carrier's alone.
	displaced *Chain
	// gid is the goroutine Bind put the chain on, which Unregister takes
	// it off; 0 while unbound.
	gid int64

	// Trace is the trace the carrier's calls join (zero when none): the
	// one place a trace lives. Register starts a chain on the trace of the
	// chain it displaces. The carrier's alone.
	Trace telemetry.TraceContext
}

// NewChain creates a chain whose base segment belongs to domain.
func NewChain(domain int64) *Chain {
	c := &Chain{attn: new(atomic.Uint32)}
	c.cv = sync.NewCond(&c.mu)
	c.Push(domain)
	return c
}

// SetAttention makes word the chain's attention word, so that the safepoint
// of the VM thread that owns it and the chain's Poll read one and the same.
// It is for the code that builds the carrier, before anything else can
// reach the chain.
func (c *Chain) SetAttention(word *atomic.Uint32) { c.attn = word }

// Current returns the segment in control. Carrier-only; it takes no lock.
func (c *Chain) Current() *Seg { return c.top }

// Push enters a new segment for domain (cross-domain call entry). The Seg
// comes from the chain's free list when one is available; either way it
// starts a new activation — fresh ID, no owner named, not stopped, not
// suspended, default priority — so nothing aimed at an earlier activation
// can reach it. Carrier-only; it takes no lock.
func (c *Chain) Push(domain int64) *Seg {
	s := c.free
	if s != nil {
		c.free = s.prev
	} else {
		s = &Seg{chain: c}
	}
	if c.nextID == c.idEnd {
		c.idEnd = segIDs.Add(idBlock)
		c.nextID = c.idEnd - idBlock
	}
	c.nextID++
	s.ID, s.Domain, s.owner = c.nextID, domain, nil
	s.stop, s.suspended, s.priority = nil, false, 5
	s.prev = c.top
	c.top = s
	c.depth++
	return s
}

// SetOwner names the domain the activation runs in, straight after the
// Push. An owner that has ended by now raises the carrier's own word, one
// that ends later kicks the chain after publishing its end: push then load
// here, publish then kick there, so one side always sees the other.
// Carrier-only.
func (s *Seg) SetOwner(o Owner) {
	s.owner = o
	if o.Ended() != nil {
		s.chain.attn.Or(attnSeg)
	}
}

// Owner returns what SetOwner named for the current activation, or nil.
func (s *Seg) Owner() Owner { return s.owner }

// ended returns the end of the segment's owner, if it has one.
func (s *Seg) ended() error {
	if s.owner == nil {
		return nil
	}
	return s.owner.Ended()
}

// Pop leaves the top segment (cross-domain call return) and recycles it.
// It returns the segment that regains control. Popping the base segment
// is a programming error and panics. Carrier-only; it takes a lock only to
// retire an activation a Handle names: a Handle operation either finished
// before the pop or finds the segment gone.
func (c *Chain) Pop() *Seg {
	s := c.top
	if s == nil || s.prev == nil {
		panic("threads: pop of base segment")
	}
	if s.live != 0 {
		s.mu.Lock()
		s.live = 0
		s.mu.Unlock()
	}
	c.top = s.prev
	// A free Seg names no domain: a chain that once crossed into a domain
	// does not keep it reachable.
	s.prev, s.owner = c.free, nil
	c.free = s
	c.depth--
	return c.top
}

// Depth returns the number of segments (≥1). Carrier-only: another
// goroutine that wants to know where the carrier is waits for something
// the carrier publishes (a domain's account, say) instead.
func (c *Chain) Depth() int { return c.depth }

// Poll is the safepoint check: it parks the carrier while the controlling
// segment is suspended and reports ErrSegmentStopped when it has been
// stopped (with the stop message) or its owner has ended (wrapping the
// owner's cause as well). The VM layer converts the error into a throwable.
// With nothing asked of the carrier it is one load.
func (c *Chain) Poll() error {
	if c.attn.Load() == 0 {
		return nil
	}
	return c.attend()
}

// attend is Poll with the word raised.
func (c *Chain) attend() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		// Down before the segments are read: a request recorded after the
		// read raises the word again, one recorded before it is seen below.
		c.attn.And(^attnSeg)
		s := c.top
		if end := s.ended(); end != nil {
			// Outranks anything asked of the segment, and is never taken:
			// code that catches it is stopped again at its next poll.
			c.attn.Or(attnSeg)
			return fmt.Errorf("%w: %w", ErrSegmentStopped, end)
		}
		s.mu.Lock()
		err, suspended := s.stop, s.suspended
		s.stop = nil
		s.mu.Unlock()
		if err != nil || !suspended {
			// Back up for what is still owed: a park behind the stop just
			// taken, or a request aimed at a caller or the end of a caller's
			// domain, which land when control returns to it.
			if c.pendingLocked() {
				c.attn.Or(attnSeg)
			}
			return err
		}
		// Parked until some segment state changes.
		c.cv.Wait()
	}
}

// pendingLocked reports whether any live segment has a request recorded or
// an owner that has ended. The caller is the carrier and holds c.mu.
func (c *Chain) pendingLocked() bool {
	for s := c.top; s != nil; s = s.prev {
		s.mu.Lock()
		pending := s.stop != nil || s.suspended
		s.mu.Unlock()
		if pending || s.ended() != nil {
			return true
		}
	}
	return false
}

// Stop marks the segment stopped. If the segment is currently in control
// the carrier will observe it at its next poll; if it is a caller segment
// deeper in the chain, the stop takes effect when control returns to it.
// Crucially, stopping a segment never disturbs *other* segments of the
// same carrier: the callee cannot be killed by its caller and vice versa.
//
// Stop lands on whichever activation the Seg is running, so it is for the
// carrier itself, which knows the activation is live. Everything else goes
// through a Handle.
func (s *Seg) Stop(msg string) {
	s.mu.Lock()
	s.stopLocked(msg)
}

// stopLocked records a one-shot stop, releases s.mu and wakes a parked
// carrier.
func (s *Seg) stopLocked(msg string) {
	s.stop = fmt.Errorf("%w: %s", ErrSegmentStopped, msg)
	s.mu.Unlock()
	s.chain.Kick()
}

// Handle names one activation of a Seg: the segment operations of the
// interposed Thread class. They apply only while that activation is the
// Seg's current one and report false afterwards — the Seg may by then be
// running another call, possibly in another domain, and a stale Thread
// object must never reach it.
type Handle struct {
	seg *Seg
	id  int64
	// Domain is the domain the activation runs in.
	Domain int64
}

// Handle returns a handle on the segment's current activation and marks
// the activation minted. Carrier-only, like Minted.
func (s *Seg) Handle() Handle {
	if s.live == 0 {
		s.mu.Lock() // stale handles read live under it
		s.live = s.ID
		s.mu.Unlock()
	}
	return Handle{seg: s, id: s.ID, Domain: s.Domain}
}

// Minted reports whether Handle was called for the current activation, so
// the kernel unregisters a handle only for the rare segment that has one.
func (s *Seg) Minted() bool { return s.live != 0 }

// ID returns the activation's segment id.
func (h Handle) ID() int64 { return h.id }

// lock takes the Seg's mutex if the handle's activation is still the
// current one. It reports false, with the lock released, once the
// activation has been popped.
func (h Handle) lock() bool {
	h.seg.mu.Lock()
	if h.seg.live != h.id {
		h.seg.mu.Unlock()
		return false
	}
	return true
}

// Stop is Seg.Stop on the handle's activation.
func (h Handle) Stop(msg string) bool {
	if !h.lock() {
		return false
	}
	h.seg.stopLocked(msg)
	return true
}

// Suspend marks the activation suspended; the carrier parks when its
// segment is in control (immediately if it already is, at return
// otherwise).
func (h Handle) Suspend() bool { return h.setSuspended(true) }

// Resume clears suspension.
func (h Handle) Resume() bool { return h.setSuspended(false) }

func (h Handle) setSuspended(v bool) bool {
	if !h.lock() {
		return false
	}
	h.seg.suspended = v
	h.seg.mu.Unlock()
	h.seg.chain.Kick()
	return true
}

// SetPriority sets the activation's advisory priority (clamped to 1..10).
func (h Handle) SetPriority(p int64) bool {
	if !h.lock() {
		return false
	}
	h.seg.priority = min(max(p, 1), 10)
	h.seg.mu.Unlock()
	return true
}

// Priority returns the activation's advisory priority.
func (h Handle) Priority() (int64, bool) {
	if !h.lock() {
		return 0, false
	}
	defer h.seg.mu.Unlock()
	return h.seg.priority, true
}

// Kick raises the attention word and wakes a carrier parked in Poll. Every
// writer of segment state calls it after releasing the segment, and an
// Owner, after publishing its end, on every chain that may be running in
// it; a kick with nothing behind it costs the carrier one slow poll.
func (c *Chain) Kick() {
	c.attn.Or(attnSeg)
	c.mu.Lock()
	c.cv.Broadcast()
	c.mu.Unlock()
}
