package threads

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPushPopCurrent(t *testing.T) {
	c := NewChain(1)
	base := c.Current()
	if base.Domain != 1 {
		t.Fatalf("base domain = %d", base.Domain)
	}
	s2 := c.Push(2)
	if c.Current() != s2 {
		t.Error("push did not take control")
	}
	s3 := c.Push(3)
	if c.Depth() != 3 {
		t.Errorf("depth = %d, want 3", c.Depth())
	}
	if got := c.Pop(); got != s2 {
		t.Error("pop did not return to caller segment")
	}
	_ = s3
	if got := c.Pop(); got != base {
		t.Error("pop did not return to base")
	}
}

func TestPopBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on base pop")
		}
	}()
	NewChain(1).Pop()
}

func TestStopAppliesToOwnSegmentOnly(t *testing.T) {
	c := NewChain(1)
	caller := c.Current()
	callee := c.Push(2)

	// Caller's segment stopped while callee runs: callee polls fine.
	caller.Stop("caller killed")
	if err := c.Poll(); err != nil {
		t.Fatalf("callee poll disturbed by caller stop: %v", err)
	}
	// When control returns to the caller, the stop fires.
	c.Pop()
	err := c.Poll()
	if !errors.Is(err, ErrSegmentStopped) {
		t.Fatalf("poll after return = %v, want ErrSegmentStopped", err)
	}
	if !strings.Contains(err.Error(), "caller killed") {
		t.Errorf("stop message lost: %v", err)
	}
	// The stop is one-shot.
	if err := c.Poll(); err != nil {
		t.Errorf("second poll = %v, want nil", err)
	}
	_ = callee
}

func TestStopCalleeFiresImmediately(t *testing.T) {
	c := NewChain(1)
	callee := c.Push(2)
	callee.Stop("die")
	if err := c.Poll(); !errors.Is(err, ErrSegmentStopped) {
		t.Fatalf("poll = %v", err)
	}
}

func TestSuspendParksAndResumeReleases(t *testing.T) {
	c := NewChain(1)
	seg := c.Current().Handle()
	seg.Suspend()

	released := make(chan error, 1)
	go func() { released <- c.Poll() }()

	select {
	case err := <-released:
		t.Fatalf("poll returned %v while suspended", err)
	case <-time.After(30 * time.Millisecond):
	}
	seg.Resume()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("poll after resume = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("poll still parked after resume")
	}
}

func TestStopWakesSuspendedSegment(t *testing.T) {
	c := NewChain(1)
	seg := c.Current().Handle()
	seg.Suspend()
	released := make(chan error, 1)
	go func() { released <- c.Poll() }()
	time.Sleep(10 * time.Millisecond)
	seg.Stop("killed while parked")
	select {
	case err := <-released:
		if !errors.Is(err, ErrSegmentStopped) {
			t.Fatalf("poll = %v, want stop", err)
		}
	case <-time.After(time.Second):
		t.Fatal("stop did not wake suspended segment")
	}
}

func TestSuspendOfCallerDoesNotBlockCallee(t *testing.T) {
	c := NewChain(1)
	caller := c.Current().Handle()
	c.Push(2)
	caller.Suspend()
	done := make(chan error, 1)
	go func() { done <- c.Poll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("callee poll = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("callee blocked by caller suspension")
	}
}

func TestPriorityClampedPerSegment(t *testing.T) {
	c := NewChain(1)
	a := c.Current().Handle()
	b := c.Push(2).Handle()
	a.SetPriority(99)
	b.SetPriority(-5)
	if p, _ := a.Priority(); p != 10 {
		t.Errorf("a priority = %d, want 10 (clamped)", p)
	}
	if p, _ := b.Priority(); p != 1 {
		t.Errorf("b priority = %d, want 1 (clamped)", p)
	}
}

func TestGoroutineIDStableAndDistinct(t *testing.T) {
	id1 := GoroutineID()
	if id1 == 0 {
		t.Fatal("GoroutineID returned 0")
	}
	if id2 := GoroutineID(); id2 != id1 {
		t.Fatalf("id changed within goroutine: %d then %d", id1, id2)
	}
	ch := make(chan int64)
	go func() { ch <- GoroutineID() }()
	if other := <-ch; other == id1 {
		t.Error("two goroutines share an id")
	}
}

// A goroutine's chains stack: each Register displaces the current one and
// each Unregister restores what its chain displaced, whichever order they
// end in.
func TestRegistryRestoresDisplacedChains(t *testing.T) {
	outer := Register(1)
	mid := Register(2)
	inner := Register(3)
	Unregister(mid) // ends early, from under inner
	if CurrentChain() != inner {
		t.Fatal("unregistering a displaced chain changed the current one")
	}
	Unregister(inner)
	if CurrentChain() != outer {
		t.Fatal("the chain under an early-ended one was not restored")
	}
	Unregister(outer)
	if CurrentChain() != nil {
		t.Fatal("the last Unregister left a chain behind")
	}
}

// A chain bound on one goroutine and unregistered from another leaves
// that goroutine's entry, not the caller's: the registry no longer names
// it, and the caller keeps its own chain. A chain it displaced is put back.
func TestRegistryUnregisterOffGoroutine(t *testing.T) {
	mine := Register(9)
	defer Unregister(mine)
	var gid int64
	var outer, inner *Chain
	done := make(chan struct{})
	go func() {
		defer close(done)
		gid = GoroutineID()
		outer = Register(1)
		inner = Register(2)
	}()
	<-done
	bound := func() *Chain {
		if v, ok := registry.Load(gid); ok {
			return v.(*Chain)
		}
		return nil
	}
	Unregister(inner)
	if bound() != outer {
		t.Fatal("unregistering from another goroutine did not restore the displaced chain")
	}
	Unregister(outer)
	if c := bound(); c != nil {
		t.Fatal("a chain unregistered from another goroutine is still bound to its own")
	}
	if CurrentChain() != mine {
		t.Fatal("unregistering another goroutine's chain changed the caller's")
	}
	// A served chain goes back and is bound again, on whatever goroutine.
	Bind(outer)
	if CurrentChain() != outer {
		t.Fatal("a recycled chain was not bound to its new goroutine")
	}
	Unregister(outer)
	if CurrentChain() != mine {
		t.Fatal("the recycled chain did not restore the chain it displaced")
	}
}

func TestRegistryLookup(t *testing.T) {
	c := Register(7)
	defer Unregister(c)
	if got := CurrentChain(); got != c {
		t.Error("CurrentChain did not find registered chain")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if CurrentChain() != nil {
			t.Error("unregistered goroutine found a chain")
		}
	}()
	wg.Wait()
}

// pollSoon polls c and fails the test if the carrier parks: a segment that
// should be running is suspended.
func pollSoon(t *testing.T, c *Chain) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Poll() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("poll parked: the segment in control is suspended")
		return nil
	}
}

func TestRecycledSegIsANewActivation(t *testing.T) {
	c := NewChain(1)
	first := c.Push(2)
	id := first.ID
	h := first.Handle()
	h.Stop("left behind")
	h.Suspend()
	h.SetPriority(9)
	c.Pop()

	second := c.Push(3)
	if second != first {
		t.Fatal("chain did not reuse the popped Seg")
	}
	if second.ID == id || second.Domain != 3 {
		t.Errorf("recycled seg: id %d (was %d), domain %d", second.ID, id, second.Domain)
	}
	if second.Minted() {
		t.Error("recycled seg kept its minted mark")
	}
	if err := pollSoon(t, c); err != nil {
		t.Errorf("recycled seg starts stopped: %v", err)
	}
	// The old activation's handle is dead; none of its operations land.
	if h.Stop("late") || h.Suspend() || h.Resume() || h.SetPriority(1) {
		t.Error("stale handle operation reported success")
	}
	if _, ok := h.Priority(); ok {
		t.Error("stale handle read a priority")
	}
	if err := pollSoon(t, c); err != nil {
		t.Errorf("stale handle reached the new activation: poll=%v", err)
	}
	// A live handle does.
	h2 := second.Handle()
	if h2.ID() != second.ID || h2.Domain != 3 || !second.Minted() {
		t.Error("handle does not name the current activation")
	}
	if p, ok := h2.Priority(); !ok || p != 5 {
		t.Errorf("recycled seg priority = %d, %v; want the default 5", p, ok)
	}
	if !h2.Stop("now") {
		t.Fatal("live handle refused")
	}
	if err := c.Poll(); !errors.Is(err, ErrSegmentStopped) {
		t.Errorf("poll = %v, want the stop", err)
	}
}
