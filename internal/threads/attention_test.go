package threads

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within runs f on its own goroutine and fails the test if it has not
// returned after d: a poll that should not block took a lock or parked.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestIdlePollTakesNoLock pins the nothing-pending path: with the chain's
// mutex and the controlling segment's mutex both held elsewhere, Poll and
// Current still return.
func TestIdlePollTakesNoLock(t *testing.T) {
	c := NewChain(1)
	top := c.Push(2)
	c.mu.Lock()
	top.mu.Lock()
	defer top.mu.Unlock()
	defer c.mu.Unlock()
	within(t, 5*time.Second, "1000 idle polls under held locks", func() {
		for i := 0; i < 1000; i++ {
			if err := c.Poll(); err != nil {
				t.Errorf("idle poll = %v", err)
				return
			}
			if c.Current() != top {
				t.Error("Current lost the top segment")
				return
			}
		}
	})
}

// TestAttentionWordFollowsRequests walks the word through the life of each
// kind of request: up when it is recorded, down once it has been taken and
// nothing else is owed.
func TestAttentionWordFollowsRequests(t *testing.T) {
	c := NewChain(1)
	word := func() uint32 { return c.attn.Load() }
	if word() != 0 {
		t.Fatalf("new chain's word = %#x", word())
	}

	// A stop on the segment in control: delivered by the next poll.
	c.Current().Stop("now")
	if word() == 0 {
		t.Fatal("stop did not raise the word")
	}
	if err := c.Poll(); !errors.Is(err, ErrSegmentStopped) {
		t.Fatalf("poll = %v, want the stop", err)
	}
	if word() != 0 {
		t.Errorf("word = %#x after the stop was delivered", word())
	}

	// Suspend and resume: parked in between, down afterwards.
	h := c.Current().Handle()
	h.Suspend()
	if word() == 0 {
		t.Fatal("suspend did not raise the word")
	}
	released := make(chan error, 1)
	go func() { released <- c.Poll() }()
	select {
	case err := <-released:
		t.Fatalf("poll returned %v while suspended", err)
	case <-time.After(20 * time.Millisecond):
	}
	h.Resume()
	if err := <-released; err != nil {
		t.Fatalf("poll after resume = %v", err)
	}
	if word() != 0 {
		t.Errorf("word = %#x after resume", word())
	}

	// A stop behind a suspension: the stop is taken, the park still owed.
	h.Suspend()
	h.Stop("first")
	if err := c.Poll(); !errors.Is(err, ErrSegmentStopped) {
		t.Fatalf("poll = %v, want the stop", err)
	}
	if word() == 0 {
		t.Error("word lowered with the segment still suspended")
	}
	h.Resume()
	if err := pollSoon(t, c); err != nil || word() != 0 {
		t.Errorf("after resume: poll = %v, word = %#x", err, word())
	}
}

// TestAttentionStaysUpForCallerSegment is the caller-stop rule seen from
// the word: the callee's polls find nothing for it and must not lower what
// the caller is owed.
func TestAttentionStaysUpForCallerSegment(t *testing.T) {
	c := NewChain(1)
	caller := c.Current().Handle()
	c.Push(2)
	caller.Stop("for the caller")
	for i := 0; i < 3; i++ {
		if err := c.Poll(); err != nil {
			t.Fatalf("callee poll %d = %v", i, err)
		}
		if c.attn.Load() == 0 {
			t.Fatalf("callee poll %d lowered the word with the caller's stop pending", i)
		}
	}
	c.Pop()
	if err := c.Poll(); !errors.Is(err, ErrSegmentStopped) {
		t.Fatalf("poll after return = %v, want the stop", err)
	}
	if c.attn.Load() != 0 {
		t.Error("word still raised after the caller took its stop")
	}

	// A request that dies with its activation costs one slow poll.
	callee := c.Push(2).Handle()
	callee.Suspend()
	c.Pop()
	if err := pollSoon(t, c); err != nil || c.attn.Load() != 0 {
		t.Errorf("after the suspended callee was popped: poll = %v, word = %#x", err, c.attn.Load())
	}
}

// testOwner is an Owner whose end the test publishes.
type testOwner struct{ end atomic.Pointer[error] }

func (o *testOwner) Ended() error {
	if e := o.end.Load(); e != nil {
		return *e
	}
	return nil
}

// finish ends the owner the way a domain does: publish, then kick.
func (o *testOwner) finish(cause error, chains ...*Chain) {
	o.end.Store(&cause)
	for _, c := range chains {
		c.Kick()
	}
}

// TestTerminateIsSticky: the end of a segment's domain is reported by every
// poll, keeps the word raised, outranks a later Thread.stop, and goes away
// only with the activation.
func TestTerminateIsSticky(t *testing.T) {
	cause := errors.New("the domain is gone")
	c := NewChain(1)
	s := c.Push(2)
	dom := new(testOwner)
	s.SetOwner(dom)
	if c.attn.Load() != 0 {
		t.Fatal("a live owner raised the word")
	}
	dom.finish(cause, c)
	s.Handle().Stop("an ordinary stop")
	for i := 0; i < 3; i++ {
		err := c.Poll()
		if !errors.Is(err, ErrSegmentStopped) || !errors.Is(err, cause) {
			t.Fatalf("poll %d = %v, want the termination", i, err)
		}
		if c.attn.Load() == 0 {
			t.Fatalf("poll %d lowered the word on a terminated segment", i)
		}
	}
	c.Pop()
	if err := c.Poll(); err != nil || c.attn.Load() != 0 {
		t.Errorf("caller after the dead callee returned: poll = %v, word = %#x", err, c.attn.Load())
	}
	// The recycled Seg is a new activation in whatever domain enters next.
	if c.Push(3) != s {
		t.Fatal("chain did not reuse the popped Seg")
	}
	if err := c.Poll(); err != nil {
		t.Errorf("recycled seg starts terminated: %v", err)
	}
	// Entering a domain that has already ended needs no kick: the segment
	// raises its own carrier's word.
	c.Pop()
	c.Push(2).SetOwner(dom)
	if err := c.Poll(); !errors.Is(err, cause) {
		t.Errorf("poll after entering a dead domain = %v, want its end", err)
	}
	// A caller's dead domain waits for the return, with the word up.
	c.Push(4).SetOwner(new(testOwner))
	if err := c.Poll(); err != nil || c.attn.Load() == 0 {
		t.Errorf("callee of a dead caller: poll = %v, word = %#x; want nil with the word up", err, c.attn.Load())
	}
}

// TestCrossingTakesNoLock pins the segment switch: with the chain's mutex
// and the mutex of the Seg about to be reused both held elsewhere, Push,
// SetOwner and the Pop of an unminted activation still return.
func TestCrossingTakesNoLock(t *testing.T) {
	c := NewChain(1)
	free := c.Push(2)
	c.Pop()
	dom := new(testOwner)
	c.mu.Lock()
	free.mu.Lock()
	defer free.mu.Unlock()
	defer c.mu.Unlock()
	within(t, 2*time.Second, "1000 crossings under held locks", func() {
		for i := 0; i < 1000; i++ {
			s := c.Push(2)
			s.SetOwner(dom)
			if s != free || c.Current() != s || c.Depth() != 2 {
				t.Error("push did not reuse the free Seg as the top")
				return
			}
			c.Pop()
		}
	})
}

// TestStaleHandleGoneAtPop: a handle dies with its activation, not when the
// Seg is next pushed. Between the pop and the next push nothing it does
// lands or raises the word.
func TestStaleHandleGoneAtPop(t *testing.T) {
	c := NewChain(1)
	h := c.Push(2).Handle()
	if !h.SetPriority(7) {
		t.Fatal("live handle refused")
	}
	c.Pop()
	if h.Stop("late") || h.Suspend() || h.Resume() || h.SetPriority(1) {
		t.Error("stale handle operation reported success before the next push")
	}
	if _, ok := h.Priority(); ok {
		t.Error("stale handle read a priority")
	}
	if w := c.attn.Load(); w != 0 {
		t.Errorf("word = %#x: a stale handle raised it", w)
	}
	// Nor does it come back to life when the Seg does.
	c.Push(3).Handle()
	if h.Stop("later") {
		t.Error("stale handle reached the Seg's next activation")
	}
}

// TestSegIDsUniqueAcrossChains: ids come from per-chain blocks, and two
// chains never hand out the same one.
func TestSegIDsUniqueAcrossChains(t *testing.T) {
	const chains, pushes = 4, 3 * idBlock / 2
	ids := make([][]int64, chains)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewChain(1)
			for n := 0; n < pushes; n++ {
				ids[i] = append(ids[i], c.Push(2).ID)
				c.Pop()
			}
		}()
	}
	wg.Wait()
	seen := make(map[int64]bool)
	for _, chain := range ids {
		for _, id := range chain {
			if id <= 0 || seen[id] {
				t.Fatalf("segment id %d handed out twice (or not positive)", id)
			}
			seen[id] = true
		}
	}
}

// TestAttentionLoweredBeforeSegmentsAreRead holds the carrier in the middle
// of a slow poll — past the segment in control, on its way through the
// callers — and lands a stop on that segment there. The poll in flight
// misses it; the word must still be up afterwards, so that the next one
// does not. A carrier that lowered the word on its way out loses the stop.
func TestAttentionLoweredBeforeSegmentsAreRead(t *testing.T) {
	c := NewChain(1)
	caller := c.Current()
	top := c.Push(2)
	h := top.Handle()
	h.Resume() // raises the word with nothing to find

	caller.mu.Lock()
	polled := make(chan error, 1)
	go func() { polled <- c.Poll() }()
	// The carrier holds c.mu from the start of the slow path to its end,
	// and stops at caller.mu once it is done with the top segment.
	for c.mu.TryLock() {
		c.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(10 * time.Millisecond)
	stopped := make(chan bool, 1)
	go func() { stopped <- h.Stop("mid-poll") }() // records, raises, then queues on c.mu to wake the carrier
	for recorded := false; !recorded; time.Sleep(100 * time.Microsecond) {
		top.mu.Lock()
		recorded = top.stop != nil
		top.mu.Unlock()
	}
	time.Sleep(10 * time.Millisecond)
	caller.mu.Unlock()

	if err := <-polled; err != nil {
		// The carrier was slower than the sleeps allow for and saw the stop
		// first time round: nothing was in flight to lose.
		t.Skipf("poll = %v: the stop landed before the carrier read the segment", err)
	}
	if !<-stopped {
		t.Fatal("live handle refused")
	}
	if err := c.Poll(); !errors.Is(err, ErrSegmentStopped) {
		t.Fatalf("poll = %v: the stop recorded during the previous poll was lost", err)
	}
}

// TestAttentionNoLostRequest races requesters against a polling carrier
// (run it under -race). Each stop is fired only after the previous one was
// delivered, so every one must be, or the requester waits for ever. The
// resumes keep the carrier on its slow path while the stops land.
func TestAttentionNoLostRequest(t *testing.T) {
	const stops = 500
	c := NewChain(1)
	h := c.Push(2).Handle()

	var delivered atomic.Int64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the carrier
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			if err := c.Poll(); err != nil {
				delivered.Add(1)
			}
		}
	}()
	go func() { // noise
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
				h.Resume()
			}
		}
	}()
	defer wg.Wait()
	defer close(quit)

	deadline := time.Now().Add(30 * time.Second)
	for i := int64(1); i <= stops; i++ {
		if !h.Stop("again") {
			t.Fatal("live handle refused")
		}
		for delivered.Load() < i {
			if time.Now().After(deadline) {
				t.Fatalf("stop %d of %d was never delivered (word = %#x)", i, stops, c.attn.Load())
			}
			// Yield: the requesters must not starve the carrier on one P.
			time.Sleep(time.Microsecond)
		}
	}
}
