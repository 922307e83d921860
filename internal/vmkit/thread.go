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

	// steps counts executed instructions since the last accounting flush.
	steps int64

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
	// layer switches it across LRMI.
	Account *account.Account

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

// FlushAccounting charges any buffered interpreter steps to the thread's
// account; LRMI gates call it at domain-switch boundaries so steps land on
// the right domain.
func (t *Thread) FlushAccounting() { t.flushSteps() }

// flushSteps charges accumulated interpreter steps to t.Account.
func (t *Thread) flushSteps() {
	if a := t.Account; a != nil {
		a.Steps(t.steps)
	}
	t.steps = 0
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread[%d %s]", t.ID, t.Name)
}
