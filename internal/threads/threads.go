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
package threads

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrSegmentStopped is returned (or converted to a VM ThreadDeath) when a
// stopped segment regains control.
var ErrSegmentStopped = errors.New("threads: segment stopped")

// attnSeg is the chain's bit of the attention word. Bit 0 is left to the
// owner of a shared word (SetAttention): the carrier's VM thread keeps its
// own requests there, so each side lowers only what it is about to re-read.
const attnSeg uint32 = 1 << 1

var segIDs atomic.Int64

// Seg is one side of a cross-domain call: the unit the interposed Thread
// class operates on. A chain recycles its Seg structs: every Push is a new
// activation with a fresh ID and reset stop/suspend state, so a *Seg is
// only meaningful to the carrier while the activation it pushed is live.
// Anything that outlives the activation (a jk/lang/Thread object) must
// hold a Handle instead.
type Seg struct {
	ID     int64
	Domain int64 // owning domain id
	chain  *Chain
	prev   *Seg // caller segment; next free Seg while on the free list

	// minted records that a Handle names this activation. Carrier-owned:
	// read and written only by the goroutine running the chain.
	minted bool

	mu sync.Mutex
	// stop is what Poll reports once the segment is in control: nil, a
	// one-shot stop that the poll takes, or — sticky set — the end of the
	// segment's domain, which every poll reports for as long as the
	// activation lives.
	stop      error
	sticky    bool
	suspended bool
	priority  int64
}

// Chain is the segment stack of one carrier thread.
type Chain struct {
	// attn is the attention word: the chain's own, or the carrier's VM
	// thread's (SetAttention).
	attn *atomic.Uint32

	mu sync.Mutex
	// top is the carrier's: Push and Pop, which only the carrier calls,
	// write it under mu, and Current and Poll read it on the carrier
	// without. Anyone else (Depth) takes mu.
	top *Seg
	// free holds popped Segs for reuse, linked through prev.
	free *Seg
	// cv wakes a carrier parked on a suspended segment.
	cv *sync.Cond
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
// starts a new activation — fresh ID, not stopped, not suspended, default
// priority — so nothing aimed at an earlier activation can reach it.
func (c *Chain) Push(domain int64) *Seg {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.free
	if s != nil {
		c.free = s.prev
	} else {
		s = &Seg{chain: c}
	}
	// Handles compare their ID under s.mu, so the ID changes under it too.
	s.mu.Lock()
	s.ID = segIDs.Add(1)
	s.Domain = domain
	s.stop, s.sticky, s.suspended, s.priority = nil, false, false, 5
	s.mu.Unlock()
	s.minted = false
	s.prev = c.top
	c.top = s
	return s
}

// Pop leaves the top segment (cross-domain call return) and recycles it.
// It returns the segment that regains control. Popping the base segment
// is a programming error and panics.
func (c *Chain) Pop() *Seg {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.top
	if s == nil || s.prev == nil {
		panic("threads: pop of base segment")
	}
	c.top = s.prev
	s.prev = c.free
	c.free = s
	return c.top
}

// Depth returns the number of segments (≥1).
func (c *Chain) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for s := c.top; s != nil; s = s.prev {
		n++
	}
	return n
}

// Poll is the safepoint check: it parks the carrier while the controlling
// segment is suspended and reports ErrSegmentStopped (with the stop
// message, or wrapping the cause given to Terminate) when it has been
// stopped. The VM layer converts the error into a throwable. With nothing
// asked of the carrier it is one load.
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
		s.mu.Lock()
		err, suspended := s.stop, s.suspended
		if !s.sticky {
			s.stop = nil
		}
		s.mu.Unlock()
		if err != nil || !suspended {
			// Back up for what is still owed: the end of this segment's
			// domain, a park behind the stop just taken, or a request aimed
			// at a caller, which lands when control returns to it.
			if c.pendingLocked() {
				c.attn.Or(attnSeg)
			}
			return err
		}
		// Parked until some segment state changes.
		c.cv.Wait()
	}
}

// pendingLocked reports whether any live segment has a request recorded.
// The caller holds c.mu.
func (c *Chain) pendingLocked() bool {
	for s := c.top; s != nil; s = s.prev {
		s.mu.Lock()
		pending := s.stop != nil || s.suspended
		s.mu.Unlock()
		if pending {
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
// Stop lands on whichever activation the Seg is running, so it is for a
// caller that knows the activation is live: the carrier itself. Everything
// else goes through a Handle.
func (s *Seg) Stop(msg string) {
	s.mu.Lock()
	s.stopLocked(msg)
}

// Terminate stops the segment for good because its domain has ended: from
// now until the activation is popped every Poll with it in control reports
// an error wrapping both ErrSegmentStopped and cause, so code that catches
// the stop and carries on is stopped again at its next safepoint. Like
// Stop it lands on whichever activation the Seg is running: domain
// termination calls it holding the lock a segment must take before it can
// be popped.
func (s *Seg) Terminate(cause error) {
	s.mu.Lock()
	s.stop, s.sticky = fmt.Errorf("%w: %w", ErrSegmentStopped, cause), true
	s.mu.Unlock()
	s.chain.kick()
}

// stopLocked records a one-shot stop, releases s.mu and wakes a parked
// carrier. A segment whose domain has ended stays that.
func (s *Seg) stopLocked(msg string) {
	if !s.sticky {
		s.stop = fmt.Errorf("%w: %s", ErrSegmentStopped, msg)
	}
	s.mu.Unlock()
	s.chain.kick()
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
	s.minted = true
	return Handle{seg: s, id: s.ID, Domain: s.Domain}
}

// Minted reports whether Handle was called for the current activation, so
// the kernel unregisters a handle only for the rare segment that has one.
func (s *Seg) Minted() bool { return s.minted }

// ID returns the activation's segment id.
func (h Handle) ID() int64 { return h.id }

// lock takes the Seg's mutex if the handle's activation is still the
// current one. It reports false, with the lock released, when the Seg has
// moved on.
func (h Handle) lock() bool {
	h.seg.mu.Lock()
	if h.seg.ID != h.id {
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
	h.seg.chain.kick()
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

// kick raises the attention word and wakes a carrier parked in Poll. Every
// writer of segment state calls it after releasing the segment.
func (c *Chain) kick() {
	c.attn.Or(attnSeg)
	c.mu.Lock()
	c.cv.Broadcast()
	c.mu.Unlock()
}
