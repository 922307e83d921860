package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jkernel/internal/threads"
	"jkernel/internal/vmkit"
)

// What the attention word must not bend: a poll that reads one word still
// ends loops and recursions, keeps a dead domain dead, delivers a caller's
// stop when control returns and not before, and loses no wake-up.

const spWorkIface = `
.class Work interface implements jk/kernel/Remote
.method count (I)I
.end
.method mintSpin (I)I
.end
.method relay (LWork;I)I
.end
`

// count and mintSpin run n backward branches; mintSpin and relay first mint
// a jk/lang/Thread for their own segment, so other goroutines find it in
// the kernel's handle registry.
const spWorkImpl = `
.class WorkImpl implements Work
.method count (I)I
  load 1
  store 2
loop:
  load 2
  ifz done
  load 2
  iconst 1
  isub
  store 2
  jmp loop
done:
  load 1
  retv
.end
.method mintSpin (I)I
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  pop
  load 0
  load 1
  invokeinterface Work.count:(I)I
  retv
.end
.method relay (LWork;I)I
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  pop
  load 1
  load 2
  invokeinterface Work.mintSpin:(I)I
  iconst 100
  iadd
  retv
.end
`

const spClient = `
.class SP
.field static result I
.field static iters I
.field static atCatch I
.field static attempts I
.method static work (Ljk/lang/String;)LWork;
  load 0
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Work
  retv
.end
.method static forever ()I
loop:
  jmp loop
.end
; 2^n calls and not one backward branch
.method static walk (I)I
  load 0
  ifz leaf
  load 0
  iconst 1
  isub
  invokestatic SP.walk:(I)I
  load 0
  iconst 1
  isub
  invokestatic SP.walk:(I)I
  iadd
  retv
leaf:
  iconst 1
  retv
.end
; for(;;) { iters++ } with a handler for everything that covers the loop
; and itself. Returns how many iterations completed after the first catch
; once 1000 throwables have been swallowed; -1 if the loop was let run on.
.method static hostile ()I
top:
  getstatic SP.iters:I
  iconst 1
  iadd
  putstatic SP.iters:I
  getstatic SP.iters:I
  iconst 50000000
  if_ge letrun
  jmp top
caught:
  pop
  getstatic SP.attempts:I
  iconst 1
  iadd
  putstatic SP.attempts:I
  getstatic SP.atCatch:I
  ifnz seen
  getstatic SP.iters:I
  putstatic SP.atCatch:I
seen:
  getstatic SP.attempts:I
  iconst 1000
  if_ge out
  jmp top
out:
  getstatic SP.iters:I
  getstatic SP.atCatch:I
  isub
  retv
letrun:
  iconst -1
  retv
  .catch jk/lang/Throwable from top to out using caught
.end
.method static attempts ()I
  getstatic SP.attempts:I
  retv
.end
; mint a Thread for the base segment, run the callee to completion, keep
; its answer, then spin: a stop aimed at this segment lands in the spin
.method static callThenSpin ()I
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  pop
  sconst "work"
  invokestatic SP.work:(Ljk/lang/String;)LWork;
  iconst 300000
  invokeinterface Work.count:(I)I
  putstatic SP.result:I
spin:
  jmp spin
.end
.method static result ()I
  getstatic SP.result:I
  retv
.end
.method static nested (I)I
  sconst "work"
  invokestatic SP.work:(Ljk/lang/String;)LWork;
  sconst "work2"
  invokestatic SP.work:(Ljk/lang/String;)LWork;
  load 0
  invokeinterface Work.relay:(LWork;I)I
  retv
.end
`

type spFixture struct {
	k                       *Kernel
	server, server2, client *Domain
}

// newSPFixture builds two servers exporting WorkImpl as "work" and "work2"
// and a client domain holding SP; the first server has a copy of SP too,
// for tasks that run in it.
func newSPFixture(t *testing.T) *spFixture {
	t.Helper()
	k := MustNew(Options{})
	sp := mustAsm(t, spClient)
	classes := map[string][]byte{"Work": mustAsm(t, spWorkIface), "WorkImpl": mustAsm(t, spWorkImpl), "SP": sp}
	server, err := k.NewDomain(DomainConfig{Name: "server", Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(server, "Work")
	if err != nil {
		t.Fatal(err)
	}
	server2, err := k.NewDomain(DomainConfig{Name: "server2", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"WorkImpl": classes["WorkImpl"]}})
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"SP": sp}})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Domain{"work": server, "work2": server2} {
		target, err := d.NewInstance("WorkImpl")
		if err != nil {
			t.Fatal(err)
		}
		cap, err := k.CreateVMCapability(d, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Repository().Bind(name, cap); err != nil {
			t.Fatal(err)
		}
	}
	return &spFixture{k: k, server: server, server2: server2, client: client}
}

// handleIn returns a registered segment handle of domain d, if there is one.
func (f *spFixture) handleIn(d *Domain) (h threads.Handle, ok bool) {
	f.k.segs.Range(func(_, v any) bool {
		if h = v.(threads.Handle); h.Domain == d.ID {
			ok = true
		}
		return !ok
	})
	return h, ok
}

// runOn starts ref on task's thread from a goroutine of its own.
func (f *spFixture) runOn(task *Task, ref string, args ...vmkit.Value) <-chan callResult {
	done := make(chan callResult, 1)
	go func() {
		v, err := f.k.VM.CallStatic(task.Thread, f.client.NS, ref, args...)
		done <- callResult{v, err}
	}()
	return done
}

type callResult struct {
	v   vmkit.Value
	err error
}

func thrownClass(err error) string {
	var te *vmkit.ThrownError
	if errors.As(err, &te) {
		return te.Throwable.Class.Name
	}
	return fmt.Sprintf("%v", err)
}

// TestSafepointTerminateEndsLoopAndRecursion: a loop with no call and a
// call tree with no loop, each running in its task's own (base) segment,
// are both ended by terminating the domain from another goroutine.
func TestSafepointTerminateEndsLoopAndRecursion(t *testing.T) {
	for _, tc := range []struct {
		name, ref string
		args      []vmkit.Value
	}{
		{"back-edge only", "SP.forever:()I", nil},
		{"recursion only", "SP.walk:(I)I", []vmkit.Value{vmkit.IntVal(40)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newSPFixture(t)
			task := f.k.NewTask(f.client, "client")
			defer task.Close()
			done := f.runOn(task, tc.ref, tc.args...)
			// Well inside the body by now; either order must end it.
			time.Sleep(5 * time.Millisecond)
			f.client.Terminate("test")
			select {
			case r := <-done:
				if got := thrownClass(r.err); got != classTerminatedEx {
					t.Fatalf("ended with %s, want %s", got, classTerminatedEx)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("terminated domain kept running")
			}
		})
	}
}

// TestStickyTerminationHostileLoop: bytecode that swallows every throwable
// and jumps back to its loop gets the termination again at that very
// branch, every time — not one more iteration completes.
func TestStickyTerminationHostileLoop(t *testing.T) {
	f := newSPFixture(t)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	done := f.runOn(task, "SP.hostile:()I")
	// The interpreter reports steps every few thousand instructions of one
	// frame: once the account moves, the loop is running.
	for deadline := time.Now().Add(10 * time.Second); f.client.Stats().Steps == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("hostile loop never started")
		}
	}
	f.client.Terminate("test")
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("hostile = %v; it catches everything", r.err)
		}
		if r.v.I != 0 {
			t.Errorf("%d iterations completed after the first DomainTerminatedException (-1: the loop was let run on)", r.v.I)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("hostile loop neither stopped nor gave up")
	}
	// Still dead afterwards, for the interpreter and at the native boundary.
	if _, err := task.CallStatic("SP.attempts:()I"); thrownClass(err) != classTerminatedEx {
		t.Errorf("call in the dead domain = %v, want %s", err, classTerminatedEx)
	}
	for i := 0; i < 2; i++ {
		err := task.Chain.Poll()
		if !errors.Is(err, ErrDomainTerminated) || !errors.Is(err, threads.ErrSegmentStopped) {
			t.Errorf("poll %d = %v, want a stop that is ErrDomainTerminated", i, err)
		}
	}
	if task.Thread.Attention().Load() == 0 {
		t.Error("attention word lowered on a terminated domain's base segment")
	}
}

// midCall is a native callee that acts on its caller's segment while it is
// itself the segment in control.
type midCall struct {
	task   *Task
	act    func()
	polls  []error
	wordUp bool
}

func (m *midCall) Run() (int64, error) {
	m.act()
	for i := 0; i < 3; i++ {
		m.polls = append(m.polls, m.task.Chain.Poll())
	}
	m.wordUp = m.task.Thread.Attention().Load() != 0
	return 7, nil
}

// TestSafepointCallerStopLandsOnReturn, native path, single goroutine: the
// callee stops its caller's segment. Its own polls find nothing, the word
// stays up across them, and the boundary poll on return delivers the stop.
func TestSafepointCallerStopLandsOnReturn(t *testing.T) {
	f := newSPFixture(t)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	callee := &midCall{task: task}
	cap, err := f.k.CreateNativeCapability(f.server, callee)
	if err != nil {
		t.Fatal(err)
	}
	caller := task.Chain.Current().Handle()
	callee.act = func() {
		if !caller.Stop("aimed at the caller") {
			t.Error("caller's handle is stale while its callee runs")
		}
	}
	out, err := cap.InvokeFrom(task, "Run")
	if !errors.Is(err, threads.ErrSegmentStopped) || !strings.Contains(err.Error(), "aimed at the caller") {
		t.Fatalf("InvokeFrom = %v, %v; want the caller's stop at the boundary", out, err)
	}
	if errors.Is(err, ErrDomainTerminated) {
		t.Errorf("a Thread.stop reads as termination: %v", err)
	}
	for i, perr := range callee.polls {
		if perr != nil {
			t.Errorf("callee poll %d = %v: the caller's stop reached the callee", i, perr)
		}
	}
	if !callee.wordUp {
		t.Error("the callee's polls lowered the word with the caller's stop pending")
	}
	if w := task.Thread.Attention().Load(); w != 0 {
		t.Errorf("attention word = %#x after the stop was delivered", w)
	}
	// One-shot: the segment carries on.
	callee.act = func() {}
	if out, err := cap.InvokeFrom(task, "Run"); err != nil || out[0].(int64) != 7 {
		t.Errorf("next call = %v, %v", out, err)
	}

	// The same with the caller's domain ended mid-call: typed, and sticky.
	callee.act = func() { f.client.Terminate("mid-call") }
	callee.polls = nil
	_, err = cap.InvokeFrom(task, "Run")
	if !errors.Is(err, ErrDomainTerminated) || !errors.Is(err, threads.ErrSegmentStopped) {
		t.Fatalf("InvokeFrom = %v, want a stop that is ErrDomainTerminated", err)
	}
	for i, perr := range callee.polls {
		if perr != nil {
			t.Errorf("callee poll %d = %v: the caller's end reached the callee", i, perr)
		}
	}
}

// TestSafepointCallerStopLandsOnReturnVM is the interpreter's side: another
// goroutine stops the client's base segment while the server's loop runs on
// the carrier. The loop finishes and its answer is stored; the stop lands in
// the client's own code.
func TestSafepointCallerStopLandsOnReturnVM(t *testing.T) {
	f := newSPFixture(t)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	// If the stop is lost the carrier spins for ever; end it with the test.
	defer f.client.Terminate("cleanup")
	steps := f.server.Stats().Steps
	done := f.runOn(task, "SP.callThenSpin:()I")
	awaitSteps(t, f.server, steps, 10*time.Second)
	h, ok := f.handleIn(f.client)
	if !ok {
		t.Fatal("the client's Thread object is not registered")
	}
	if !h.Stop("aimed at the caller") {
		t.Fatal("live handle refused")
	}
	select {
	case r := <-done:
		if got := thrownClass(r.err); got != vmkit.ClassThreadDeath {
			t.Fatalf("callThenSpin ended with %s, want %s", got, vmkit.ClassThreadDeath)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the caller's stop was never delivered")
	}
	v, err := task.CallStatic("SP.result:()I")
	if err != nil || v.I != 300000 {
		t.Errorf("callee's answer = %v, %v; want 300000 (it ran to completion under the caller's pending stop)", v, err)
	}
	if w := task.Thread.Attention().Load(); w != 0 {
		t.Errorf("attention word = %#x after the stop was delivered", w)
	}
}

// goroutineParked reports whether goroutine gid is waiting on a sync.Cond,
// which for a carrier means parked in Chain.Poll. buf holds the stack dump.
func goroutineParked(buf []byte, gid int64) bool {
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Contains(buf, fmt.Appendf(nil, "goroutine %d [sync.Cond.Wait", gid))
}

// TestSafepointStress: one carrier runs client → server → server2 calls
// whose two callee segments mint handles, while other goroutines stop,
// suspend and resume whatever handles they find and one terminates server2
// half way. It must finish (no lost wake-up); every suspension that took
// was seen to park the carrier unless the segment left first; and the
// handle registry and the word end where they began. Run it under -race.
func TestSafepointStress(t *testing.T) {
	const rounds, requesters = 200, 4
	f := newSPFixture(t)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()

	var carrierGID atomic.Int64
	var completed, failed atomic.Int64
	carrierDone := make(chan struct{})
	go func() {
		defer close(carrierDone)
		carrierGID.Store(threads.GoroutineID())
		for i := 0; i < rounds; i++ {
			if i == rounds/2 {
				// From here on relay's call into server2 faults instead.
				go f.server2.Terminate("half way")
			}
			v, err := f.k.VM.CallStatic(task.Thread, f.client.NS, "SP.nested:(I)I", vmkit.IntVal(5000))
			switch {
			case err == nil && v.I == 5100:
				completed.Add(1)
			case err == nil:
				t.Errorf("nested = %d, want 5100", v.I)
			default:
				failed.Add(1) // ThreadDeath from a stop, or the dead server2
			}
		}
	}()

	quit := make(chan struct{})
	var wg sync.WaitGroup
	var suspended, parkedSeen, staleSeen atomic.Int64
	for r := 0; r < requesters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stacks := make([]byte, 1<<18)
			for n := 0; ; n++ {
				select {
				case <-quit:
					return
				default:
				}
				d := f.server
				if (n+r)%2 == 1 {
					d = f.server2
				}
				h, ok := f.handleIn(d)
				if !ok {
					runtime.Gosched()
					continue
				}
				switch (n / 2) % 3 {
				case 0:
					h.Stop("stress")
				case 1:
					h.Resume()
				case 2:
					if !h.Suspend() {
						continue
					}
					suspended.Add(1)
					// The segment is suspended. Until we resume it, either
					// the carrier parks (at once if the segment is in
					// control, when its callee returns if not) or the
					// segment returns without meeting a safepoint.
					deadline := time.Now().Add(20 * time.Second)
					for {
						// The registry entry goes at the pop, and the Seg
						// stops answering to its old id there too.
						if _, live := f.k.segs.Load(h.ID()); !live {
							staleSeen.Add(1)
							break
						}
						if goroutineParked(stacks, carrierGID.Load()) {
							parkedSeen.Add(1)
							break
						}
						if time.Now().After(deadline) {
							t.Errorf("segment %d suspended, still live, and the carrier never parked", h.ID())
							break
						}
						runtime.Gosched()
					}
					h.Resume()
				}
			}
		}(r)
	}

	select {
	case <-carrierDone:
	case <-time.After(120 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("carrier stuck after %d+%d of %d calls: a wake-up was lost\n%s",
			completed.Load(), failed.Load(), rounds, buf[:runtime.Stack(buf, true)])
	}
	close(quit)
	wg.Wait()
	t.Logf("%d calls completed, %d ended by a stop or the dead server; %d suspensions: %d seen parked, %d stale first",
		completed.Load(), failed.Load(), suspended.Load(), parkedSeen.Load(), staleSeen.Load())

	registered := 0
	f.k.segs.Range(func(_, _ any) bool { registered++; return true })
	if registered != 0 {
		t.Errorf("%d segment handles still registered", registered)
	}
	if d := task.Chain.Depth(); d != 1 {
		t.Errorf("chain depth %d after the last return", d)
	}
	// At most one slow poll clears what died with its activation.
	if err := task.Chain.Poll(); err != nil {
		t.Errorf("base segment poll = %v", err)
	}
	if w := task.Thread.Attention().Load(); w != 0 {
		t.Errorf("attention word = %#x with nothing pending", w)
	}
}
