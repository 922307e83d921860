package vmkit

import (
	"testing"
	"time"
)

// safepointSoon runs one safepoint of th on its own goroutine and returns
// the channel its result arrives on.
func safepointSoon(th *Thread) <-chan *Object {
	out := make(chan *Object, 1)
	go func() { out <- th.safepoint() }()
	return out
}

func mustPark(t *testing.T, out <-chan *Object) {
	t.Helper()
	select {
	case th := <-out:
		t.Fatalf("safepoint returned %v on a suspended thread", th)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestIdlePollTakesNoLock pins the nothing-pending safepoint: one load — it
// returns with the thread's suspend mutex held elsewhere and never reaches
// the hook.
func TestIdlePollTakesNoLock(t *testing.T) {
	vm := MustNew(ProfileA)
	th := vm.NewThread("idle")
	defer vm.Detach(th)
	th.SafepointHook = func(*Thread) *Object {
		t.Error("idle safepoint called the hook")
		return nil
	}
	th.suspendMu.Lock()
	defer th.suspendMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if thrown := th.safepoint(); thrown != nil {
				t.Errorf("idle safepoint threw %v", thrown)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("1000 idle safepoints did not return with suspendMu held: the fast path takes it")
	}
}

// TestSafepointAttentionWord walks the thread's own bit through stop,
// suspend/resume, and a stop behind a suspension.
func TestSafepointAttentionWord(t *testing.T) {
	vm := MustNew(ProfileA)
	th := vm.NewThread("t")
	defer vm.Detach(th)
	word := th.Attention()
	death := vm.Throwf(ClassThreadDeath, "die")

	th.Stop(death)
	if word.Load() == 0 {
		t.Fatal("Stop did not raise the word")
	}
	if got := th.safepoint(); got != death {
		t.Fatalf("safepoint = %v, want the stop", got)
	}
	if word.Load() != 0 {
		t.Errorf("word = %#x after the stop was delivered", word.Load())
	}

	th.Suspend()
	if word.Load() == 0 {
		t.Fatal("Suspend did not raise the word")
	}
	out := safepointSoon(th)
	mustPark(t, out)
	th.Resume()
	if got := <-out; got != nil {
		t.Fatalf("safepoint after resume = %v", got)
	}
	if word.Load() != 0 {
		t.Errorf("word = %#x after resume", word.Load())
	}

	// The stop is taken first; the park is still owed and the word says so.
	th.Suspend()
	th.Stop(death)
	if got := th.safepoint(); got != death {
		t.Fatalf("safepoint = %v, want the stop", got)
	}
	if word.Load() == 0 {
		t.Error("word lowered with the thread still suspended")
	}
	out = safepointSoon(th)
	mustPark(t, out)
	th.Resume()
	if got := <-out; got != nil || word.Load() != 0 {
		t.Errorf("after resume: safepoint = %v, word = %#x", got, word.Load())
	}
}

// TestSafepointHookRunsOnlyWhenRaised: the embedder's bit brings the hook
// in, and only the hook takes it down.
func TestSafepointHookRunsOnlyWhenRaised(t *testing.T) {
	vm := MustNew(ProfileA)
	th := vm.NewThread("t")
	defer vm.Detach(th)
	const embedder uint32 = 1 << 1
	calls, lower := 0, false
	th.SafepointHook = func(th *Thread) *Object {
		calls++
		if lower {
			th.Attention().And(^embedder)
		}
		return nil
	}
	for i := 0; i < 100; i++ {
		th.safepoint()
	}
	if calls != 0 {
		t.Fatalf("hook ran %d times with the word down", calls)
	}
	th.Attention().Or(embedder)
	th.safepoint()
	th.safepoint()
	if calls != 2 {
		t.Fatalf("hook ran %d times in two safepoints with its bit up", calls)
	}
	lower = true
	th.safepoint()
	th.safepoint()
	if calls != 3 || th.Attention().Load() != 0 {
		t.Errorf("after the hook lowered its bit: %d calls, word = %#x", calls, th.Attention().Load())
	}
}

// TestSafepointEndsBackEdgeFreeRecursion: a call tree with no backward
// branch — 2^40 calls, never deeper than 41 — is stoppable because method
// entry is a safepoint.
func TestSafepointEndsBackEdgeFreeRecursion(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Tree
.method static walk (I)I stack 4 locals 0
  load 0
  ifz leaf
  load 0
  iconst 1
  isub
  invokestatic Tree.walk:(I)I
  load 0
  iconst 1
  isub
  invokestatic Tree.walk:(I)I
  iadd
  retv
leaf:
  iconst 1
  retv
.end
`)
	th := vm.NewThread("walker")
	defer vm.Detach(th)
	done := make(chan error, 1)
	go func() {
		_, err := vm.CallStatic(th, ns, "Tree.walk:(I)I", IntVal(40))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	th.Stop(vm.Throwf(ClassThreadDeath, "die"))
	select {
	case err := <-done:
		te, ok := err.(*ThrownError)
		if !ok || te.Throwable.Class.Name != ClassThreadDeath {
			t.Fatalf("got %v, want ThreadDeath", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the recursion ignored the stop")
	}
}
