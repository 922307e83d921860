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

	mu        sync.Mutex
	stopped   bool
	stopMsg   string
	suspended bool
	priority  int64
}

// Chain is the segment stack of one carrier thread.
type Chain struct {
	mu  sync.Mutex
	top *Seg
	// free holds popped Segs for reuse, linked through prev.
	free *Seg
	// cv wakes a carrier parked on a suspended segment.
	cv *sync.Cond
}

// NewChain creates a chain whose base segment belongs to domain.
func NewChain(domain int64) *Chain {
	c := &Chain{}
	c.cv = sync.NewCond(&c.mu)
	c.Push(domain)
	return c
}

// Current returns the segment in control.
func (c *Chain) Current() *Seg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.top
}

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
	s.stopped, s.stopMsg, s.suspended, s.priority = false, "", false, 5
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
// message) when it has been stopped. The VM layer converts the error into
// a ThreadDeath throwable.
func (c *Chain) Poll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		s := c.top
		s.mu.Lock()
		if s.stopped {
			s.stopped = false
			msg := s.stopMsg
			s.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrSegmentStopped, msg)
		}
		if !s.suspended {
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		// Parked until some segment state changes.
		c.cv.Wait()
	}
}

// Stop marks the segment stopped. If the segment is currently in control
// the carrier will observe it at its next poll; if it is a caller segment
// deeper in the chain, the stop takes effect when control returns to it.
// Crucially, stopping a segment never disturbs *other* segments of the
// same carrier: the callee cannot be killed by its caller and vice versa.
//
// Stop lands on whichever activation the Seg is running, so it is for
// callers that know the activation is live: the carrier itself, and domain
// termination, which holds the lock a segment must take before it can be
// popped. Everything else goes through a Handle.
func (s *Seg) Stop(msg string) {
	s.mu.Lock()
	s.stopLocked(msg)
}

// stopLocked records the stop, releases s.mu and wakes a parked carrier.
func (s *Seg) stopLocked(msg string) {
	s.stopped, s.stopMsg = true, msg
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

// kick wakes a carrier parked in Poll.
func (c *Chain) kick() {
	c.mu.Lock()
	c.cv.Broadcast()
	c.mu.Unlock()
}
