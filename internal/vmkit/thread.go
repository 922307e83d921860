package vmkit

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jkernel/internal/account"
)

// Thread is a VM thread: the unit that executes bytecode. It is carried by
// whatever goroutine invokes the interpreter. The J-Kernel layer divides
// each Thread into segments (one per side of a cross-domain call) and
// interposes the jk/lang/Thread class so bytecode can only act on segments,
// never on the carrier; see internal/threads.
type Thread struct {
	ID   int64
	VM   *VM
	Name string

	priority atomic.Int64

	// attn is the attention word: zero while nothing is asked of the
	// carrier, which is all a safepoint reads. See safepoint.
	attn atomic.Uint32

	// stop holds a throwable to be thrown at the next safepoint (the
	// Thread.stop mechanism). The segment layer decides whether a stop
	// applies to the current segment.
	stop atomic.Pointer[Object]

	// suspended parks the thread at the next safepoint until resumed.
	suspendMu sync.Mutex
	suspendCV *sync.Cond
	suspended bool

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
	// stops and domain termination). Its owner raises a bit of Attention
	// other than bit 0 when it wants the hook run.
	SafepointHook func(t *Thread) *Object
}

// attnThread, bit 0 of the attention word, is the Thread's own: Stop and
// Suspend raise it. The other bits are the embedder's: the segment layer
// raises one for requests aimed at the carrier's segments and lowers it in
// its SafepointHook.
const attnThread uint32 = 1

// Attention returns the thread's attention word, for the layer that
// divides the thread into segments to share.
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
	t.priority.Store(5)
	t.suspendCV = sync.NewCond(&t.suspendMu)
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

// Priority returns the thread priority (1..10, default 5).
func (t *Thread) Priority() int64 { return t.priority.Load() }

// SetPriority sets the thread priority. The interpreter treats priority as
// advisory, as most 1990s JVMs did.
func (t *Thread) SetPriority(p int64) {
	if p < 1 {
		p = 1
	}
	if p > 10 {
		p = 10
	}
	t.priority.Store(p)
}

// Stop schedules throwable to be thrown in this thread at its next
// safepoint (the Java Thread.stop model).
func (t *Thread) Stop(throwable *Object) {
	t.stop.Store(throwable)
	t.attn.Or(attnThread)
	// A suspended thread must wake to observe the stop.
	t.suspendMu.Lock()
	t.suspendCV.Broadcast()
	t.suspendMu.Unlock()
}

// Suspend parks the thread at its next safepoint until Resume.
func (t *Thread) Suspend() {
	t.suspendMu.Lock()
	t.suspended = true
	t.suspendMu.Unlock()
	t.attn.Or(attnThread)
}

// Resume releases a suspended thread.
func (t *Thread) Resume() {
	t.suspendMu.Lock()
	t.suspended = false
	t.suspendCV.Broadcast()
	t.suspendMu.Unlock()
}

// safepoint is called by the interpreter at method entry and backward
// branches. It returns a throwable to raise, or nil. Nothing pending is one
// load: whoever asks something of the carrier publishes the request first
// and raises the attention word after; attend lowers before it re-reads.
func (t *Thread) safepoint() *Object {
	if t.attn.Load() == 0 {
		return nil
	}
	return t.attend()
}

// attend is the safepoint's slow path. The thread's own bit goes down
// before stop and suspended are read, so a request published after the
// read raises it again and one published before is seen here; it goes back
// up when the thread leaves with a park still owed.
func (t *Thread) attend() *Object {
	t.attn.And(^attnThread)
	t.suspendMu.Lock()
	for {
		if th := t.stop.Swap(nil); th != nil {
			if t.suspended {
				t.attn.Or(attnThread)
			}
			t.suspendMu.Unlock()
			return th
		}
		if !t.suspended {
			break
		}
		t.suspendCV.Wait()
	}
	t.suspendMu.Unlock()
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
