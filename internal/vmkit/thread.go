package vmkit

import (
	"fmt"
	"sync/atomic"

	"jkernel/internal/account"
)

// Thread is a VM thread: the unit that executes bytecode. It is carried by
// whatever goroutine invokes the interpreter. The VM offers bytecode no way
// to stop or suspend a Thread: the J-Kernel layer divides each one into
// segments (one per side of a cross-domain call), defines the jk/lang/Thread
// class whose operations act on those, and asks the carrier to look through
// the attention word and SafepointHook; see internal/threads.
type Thread struct {
	ID   int64
	VM   *VM
	Name string

	// attn is the attention word: zero while nothing is asked of the
	// carrier, which is all a safepoint reads. See safepoint.
	attn atomic.Uint32

	// callDepth tracks interpreter recursion against maxCallDepth.
	callDepth int

	// arena is the thread's frame arena: every frame's locals and operand
	// stack, and every native's argument window, is a window into this one
	// slice (see interp.go). top is the first slot above the innermost
	// live window, where a call entering from Go places its arguments.
	arena []Value
	top   int
	// env is the Env every native on this thread receives.
	env Env

	// Account, when set, is the account of the domain the thread is
	// executing in: its interpreter steps are charged there. The segment
	// layer switches it across LRMI (SwitchAccount). steps counts the
	// instructions of returned frames that ran under it, not yet published.
	Account *account.Account
	steps   int64
	// alt is the account the thread last switched away from, with the
	// steps it counted there: a crossing and its return alternate between
	// two accounts, and switching back swaps them in again.
	alt      *account.Account
	altSteps int64

	// Pending is the carrier's record of charges not yet published: what
	// its crossings book, and the steps of any third account it switched
	// to. It is published with the steps every stepsFlushEvery steps and
	// at VM.Call's return (Publish).
	Pending account.Pending

	// Data is reserved for the J-Kernel layer (the thread's task).
	Data any

	// SafepointHook, when non-nil, runs at a safepoint that found the
	// attention word raised and may return a throwable to inject (segment
	// stops and domain termination). Its owner raises the word when it
	// wants the hook run and lowers it there.
	SafepointHook func(t *Thread) *Object
}

// Attention returns the thread's attention word. The VM only reads it: the
// layer that divides the thread into segments raises and lowers it.
func (t *Thread) Attention() *atomic.Uint32 { return &t.attn }

// NewThread registers a new VM thread. The caller's goroutine becomes the
// carrier; Detach must be called when done so lookup tables do not grow.
func (vm *VM) NewThread(name string) *Thread {
	t := &Thread{
		ID:   vm.nextThread.Add(1),
		VM:   vm,
		Name: name,
	}
	t.env = Env{VM: vm, Thread: t}
	vm.threadsMu.Lock()
	vm.threads[t.ID] = t
	vm.threadsMu.Unlock()
	return t
}

// Detach unregisters the thread.
func (vm *VM) Detach(t *Thread) {
	vm.threadsMu.Lock()
	delete(vm.threads, t.ID)
	vm.threadsMu.Unlock()
}

// LookupThread performs the "thread info lookup" of Table 1: a registry
// lookup by id. Table 1 measures it as a row of its own; a crossing reads
// its task from the thread instead.
func (vm *VM) LookupThread(id int64) *Thread {
	vm.threadsMu.RLock()
	defer vm.threadsMu.RUnlock()
	return vm.threads[id]
}

// safepoint is called by the interpreter at method entry and backward
// branches. It returns a throwable to raise, or nil. Nothing pending is one
// load: whoever asks something of the carrier publishes the request first
// and raises the attention word after; the hook lowers before it re-reads.
func (t *Thread) safepoint() *Object {
	if t.attn.Load() == 0 {
		return nil
	}
	return t.attend()
}

// attend is the safepoint's slow path: the word's owner asked the carrier
// to look, and its hook says what for. It stays out of line so that
// safepoint, a load and a call, inlines at the interpreter's poll sites.
//
//go:noinline
func (t *Thread) attend() *Object {
	if t.SafepointHook != nil {
		return t.SafepointHook(t)
	}
	return nil
}

// SwitchAccount makes a the account the thread's steps are charged to and
// returns the one it replaces: the LRMI gates switch to the callee's and
// back. Nothing is published: the steps counted so far stay on the thread
// for the account they ran under (the one switched back to next swaps in
// again), or, for a third account, go to Pending.
func (t *Thread) SwitchAccount(a *account.Account) (prev *account.Account) {
	prev = t.Account
	if a == prev {
		return prev
	}
	if a != t.alt {
		t.setAlt(a)
	}
	t.Account, t.steps, t.alt, t.altSteps = a, t.altSteps, prev, t.steps
	return prev
}

// setAlt makes room for a third account, a: the steps of the account last
// switched away from go to Pending, and a takes its place, for
// SwitchAccount's swap to bring in.
func (t *Thread) setAlt(a *account.Account) {
	t.Pending.Steps(t.alt, t.altSteps)
	t.alt, t.altSteps = a, 0
	if t.Pending.Work() >= stepsFlushEvery {
		t.Pending.Publish()
	}
}

// Publish books the thread's counted steps to their accounts and publishes
// everything pending to the shared counters. Carrier-only.
func (t *Thread) Publish() {
	t.Pending.Steps(t.Account, t.steps)
	t.Pending.Steps(t.alt, t.altSteps)
	t.steps, t.altSteps = 0, 0
	t.Pending.Publish()
}

// retire adds a returning frame's steps to the thread's count, publishing
// once the count fills a flush window.
func (t *Thread) retire(steps int64) {
	t.steps += steps
	if t.steps >= stepsFlushEvery {
		t.Publish()
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread[%d %s]", t.ID, t.Name)
}
