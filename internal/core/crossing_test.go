package core

import (
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

// The crossing's contract: it takes no lock and looks nothing up, a domain
// that ends while carriers are crossing into it is seen by every one of
// them, and a handle dies with its activation.

// pinger is a native callee that does nothing.
type pinger struct{}

func (pinger) Ping() (int64, error) { return 1, nil }

// TestCrossingTakesNoLock pins the segment switch and its accounting: with
// both domains' mutexes held elsewhere, enter, leave and Gate.account still
// return. (The chain's and the Seg's mutexes are held by the test of the
// same name in internal/threads, the meter's by TestChargeTakesNoLock in
// internal/account: each package holds what it owns.)
func TestCrossingTakesNoLock(t *testing.T) {
	f := newSPFixture(t)
	task := f.k.NewDetachedTask(f.client, "client")
	defer task.Close()
	g := f.k.Repository().Lookup("work").Gate()
	m := g.plans[0].m
	if seg := task.enter(f.server); seg != nil { // a free Seg for the loop to reuse
		task.leave(seg)
	}

	f.server.mu.Lock()
	f.client.mu.Lock()
	defer f.client.mu.Unlock()
	defer f.server.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			seg := task.enter(f.server)
			if task.current() != f.server {
				t.Error("the segment in control does not name the callee's domain")
				return
			}
			task.leave(seg)
			g.account(task, f.client, m, time.Time{}, 8, false)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("1000 crossings under held domain locks did not finish: a crossing takes a lock")
	}
	if task.current() != f.client {
		t.Error("the base segment does not name the task's domain")
	}
}

// crossClient makes n bytecode LRMIs through a generated Work stub and
// returns the sum of their answers.
const crossClient = `
.class Cross
.method static calls (LWork;I)I
  iconst 0
  store 2
loop:
  load 1
  ifz done
  load 2
  load 0
  iconst 1
  invokeinterface Work.count:(I)I
  iadd
  store 2
  load 1
  iconst 1
  isub
  store 1
  jmp loop
done:
  load 2
  retv
.end
`

// TestCrossingFromStubReadsTheThread: on the product VM a stub's crossing
// finds its task on the carrier, so 1 000 of them complete with the
// carrier gone from the VM's thread table; once the task is closed, the
// next crossing faults.
func TestCrossingFromStubReadsTheThread(t *testing.T) {
	f := newSPFixture(t)
	if f.k.VM.Profile != (vmkit.Profile{}) {
		t.Fatalf("Options{} built profile %+v, want the zero Profile", f.k.VM.Profile)
	}
	sc, err := f.k.ShareClasses(f.server, "Work")
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.k.NewDomain(DomainConfig{Name: "crosser", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"Cross": mustAsm(t, crossClient)}})
	if err != nil {
		t.Fatal(err)
	}
	stub := vmkit.RefVal(f.k.Repository().Lookup("work").Stub)
	task := f.k.NewDetachedTask(d, "crosser")
	defer task.Close()
	f.k.VM.Detach(task.Thread)

	v, err := task.CallStatic("Cross.calls:(LWork;I)I", stub, vmkit.IntVal(1000))
	if err != nil || v.I != 1000 {
		t.Fatalf("1000 crossings off the thread table = %v, %v; want 1000", v.I, err)
	}
	task.Close()
	_, err = task.CallStatic("Cross.calls:(LWork;I)I", stub, vmkit.IntVal(1))
	if err == nil || !strings.Contains(err.Error(), "thread not managed by the kernel") {
		t.Fatalf("crossing on a closed task: %v, want the unmanaged-thread fault", err)
	}
}

// TestStaleHandleGoneAtPop, through the interposed Thread class: a callee
// stashes its Thread object and returns; before the carrier crosses again,
// every operation on the object finds the segment gone, the registry entry
// is dropped and nothing raised the word.
func TestStaleHandleGoneAtPop(t *testing.T) {
	f := newSemFixture(t, nil)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	if out, err := f.cap.InvokeVM(task, "grab"); err != nil || out.(int64) != 1 {
		t.Fatalf("grab = %v, %v", out, err)
	}
	if n := f.handles(); n != 0 {
		t.Errorf("%d segment handles registered after the minted segment returned", n)
	}
	impl, err := f.server.NS.Resolve("SemImpl")
	if err != nil {
		t.Fatal(err)
	}
	saved := impl.Statics[impl.FieldByName("saved").Slot].R
	if saved == nil {
		t.Fatal("grab did not stash its Thread object")
	}
	env := &vmkit.Env{VM: f.k.VM, NS: f.server.NS, Thread: task.Thread}
	call := func(sig string, args ...vmkit.Value) *vmkit.Object {
		name, desc, _ := strings.Cut(sig, ":")
		_, th := saved.Class.MethodBySig(name, desc).Native(env, saved, args)
		return th
	}
	for name, th := range map[string]*vmkit.Object{
		"stop":        call("stop:()V"),
		"suspend":     call("suspend:()V"),
		"resume":      call("resume:()V"),
		"setPriority": call("setPriority:(I)V", vmkit.IntVal(9)),
		"getPriority": call("getPriority:()I"),
	} {
		if th == nil {
			t.Errorf("%s through a stale Thread object succeeded", name)
			continue
		}
		if msg := vmkit.ThrowableMessage(th); th.Class.Name != vmkit.ClassIllegalStateEx ||
			!strings.HasPrefix(msg, "segment ") || !strings.HasSuffix(msg, " is gone") {
			t.Errorf("%s = %s %q, want %s \"segment … is gone\"", name, th.Class.Name, msg, vmkit.ClassIllegalStateEx)
		}
	}
	if w := task.Thread.Attention().Load(); w != 0 {
		t.Errorf("attention word = %#x: a stale handle raised it", w)
	}
}

// ended reports whether err is what a client of a terminated domain sees.
func ended(err error) bool {
	return errors.Is(err, ErrDomainTerminated) || thrownClass(err) == classTerminatedEx ||
		(err != nil && strings.Contains(err.Error(), classTerminatedEx))
}

// TestTerminateDuringCrossings: eight carriers loop VM and native calls
// into one server domain and the domain is terminated under them. Run it
// under -race.
func TestTerminateDuringCrossings(t *testing.T) {
	const carriers = 8
	f := newSPFixture(t)
	vmCap := f.k.Repository().Lookup("work")
	natCap, err := f.k.CreateNativeCapability(f.server, pinger{})
	if err != nil {
		t.Fatal(err)
	}

	// One carrier runs the catch-everything loop in the server's own base
	// segment. Nothing else charges the server yet: once its account moves,
	// the loop is running.
	deadline := time.Now().Add(20 * time.Second)
	hostile := f.k.NewDetachedTask(f.server, "hostile")
	defer hostile.Close()
	hostileDone := make(chan callResult, 1)
	go func() {
		v, err := f.k.VM.CallStatic(hostile.Thread, f.server.NS, "SP.hostile:()I")
		hostileDone <- callResult{v, err}
	}()
	for f.server.Stats().Steps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hostile loop never started")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// over is set once Terminate has returned: a call started after that
	// must fail.
	var over atomic.Bool
	var calls atomic.Int64
	tasks := make([]*Task, carriers)
	var wg sync.WaitGroup
	for i := range tasks {
		tasks[i] = f.k.NewDetachedTask(f.client, "carrier")
		defer tasks[i].Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				late := over.Load()
				var err error
				if i%2 == 0 {
					_, err = vmCap.InvokeVM(tasks[i], "count", int64(200))
				} else {
					_, err = natCap.InvokeFrom(tasks[i], "Ping")
				}
				calls.Add(1)
				switch {
				case err == nil && late:
					t.Errorf("carrier %d completed a call started after Terminate returned", i)
					return
				case err == nil:
				case ended(err):
					return
				default:
					t.Errorf("carrier %d: %v, want the domain's end", i, err)
					return
				}
			}
		}()
	}

	// Another is parked on a suspended segment of the server.
	parked := f.k.NewDetachedTask(f.client, "parked")
	defer parked.Close()
	var parkedGID atomic.Int64
	parkedDone := make(chan error, 1)
	go func() {
		parkedGID.Store(threads.GoroutineID())
		_, err := vmCap.InvokeVM(parked, "mintSpin", int64(1<<40))
		parkedDone <- err
	}()
	var h threads.Handle
	for ok := false; !ok; h, ok = f.handleIn(f.server) {
		if time.Now().After(deadline) {
			t.Fatal("mintSpin never registered its segment")
		}
		runtime.Gosched()
	}
	if !h.Suspend() {
		t.Fatal("live handle refused")
	}
	for stacks := make([]byte, 1<<18); !goroutineParked(stacks, parkedGID.Load()); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("carrier never parked on its suspended segment")
		}
	}

	for calls.Load() < 4*carriers {
		if time.Now().After(deadline) {
			t.Fatal("the carriers never got going")
		}
		time.Sleep(100 * time.Microsecond)
	}

	f.server.Terminate("under load")
	over.Store(true)

	wg.Wait()
	select {
	case err := <-parkedDone:
		if !ended(err) {
			t.Errorf("parked carrier woke with %v, want the domain's end", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the carrier parked in the dead domain never woke")
	}
	select {
	case r := <-hostileDone:
		if r.err != nil || r.v.I != 0 {
			t.Errorf("hostile = %d, %v: iterations completed after the first DomainTerminatedException", r.v.I, r.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("hostile loop neither stopped nor gave up")
	}

	// A task born in the dead domain is stopped at its first poll.
	late := f.k.NewDetachedTask(f.server, "late")
	defer late.Close()
	if err := late.Chain.Poll(); !errors.Is(err, ErrDomainTerminated) || !errors.Is(err, threads.ErrSegmentStopped) {
		t.Errorf("first poll of a task created in the dead domain = %v", err)
	}
	if _, err := late.CallStatic("SP.forever:()I"); thrownClass(err) != classTerminatedEx {
		t.Errorf("bytecode on a task created in the dead domain = %v, want %s", err, classTerminatedEx)
	}

	// The chains have unwound: at most one slow poll clears a kick, and the
	// clients' words are down again.
	for i, task := range append(tasks, parked) {
		if d := task.Chain.Depth(); d != 1 {
			t.Errorf("carrier %d: chain depth %d after the last return", i, d)
		}
		if err := task.Chain.Poll(); err != nil {
			t.Errorf("carrier %d: base segment poll = %v", i, err)
		}
		if w := task.Thread.Attention().Load(); w != 0 {
			t.Errorf("carrier %d: attention word = %#x with nothing pending", i, w)
		}
	}
	registered := 0
	f.k.segs.Range(func(_, _ any) bool { registered++; return true })
	if registered != 0 {
		t.Errorf("%d segment handles still registered", registered)
	}
}

// TestDomainGaugesFollowTheAccount: which domain is paying is in the
// kernel's snapshot while the domain lives; once it is terminated its
// gauges are gone and its frozen account is one line of the event log.
func TestDomainGaugesFollowTheAccount(t *testing.T) {
	f := newSPFixture(t)
	task := f.k.NewDetachedTask(f.client, "client")
	defer task.Close()
	natCap, err := f.k.CreateNativeCapability(f.server, pinger{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.k.Repository().Lookup("work").InvokeVM(task, "count", int64(10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := natCap.InvokeFrom(task, "Ping"); err != nil {
		t.Fatal(err)
	}
	checkGauges := func(when string, d *Domain, present bool) {
		t.Helper()
		gauges := f.k.Telemetry().Snapshot().Gauges
		s := d.Stats()
		for name, want := range map[string]int64{
			"alloc_bytes": s.AllocBytes, "steps": s.Steps, "copy_bytes": s.CopyBytes,
			"class_bytes": s.ClassBytes, "cross_calls": s.CrossCalls, "revoked": s.Revoked,
		} {
			got, ok := gauges["domain."+d.Name+"."+name]
			if ok != present || present && got != want {
				t.Errorf("%s: gauge domain.%s.%s = %d (present %v), Stats says %d", when, d.Name, name, got, ok, want)
			}
		}
	}
	checkGauges("live", f.server, true)
	f.server.Terminate("post-mortem")
	checkGauges("live", f.client, true)
	checkGauges("terminated", f.server, false)

	if c := f.client.Stats(); c.CrossCalls != 4 || c.CopyBytes == 0 {
		t.Errorf("client account after 3 VM + 1 native calls: %+v", c)
	}
	s := f.server.Stats()
	if s.Steps == 0 || s.Revoked != 2 {
		t.Errorf("server account: %+v; want its steps and its 2 revoked gates", s)
	}
	var postMortem []string
	for _, e := range f.k.Telemetry().Events() {
		if strings.HasPrefix(e.Msg, "domain server ended") {
			postMortem = append(postMortem, e.Msg)
		}
	}
	want := fmt.Sprintf("steps=%d", s.Steps)
	if len(postMortem) != 1 || !strings.Contains(postMortem[0], "post-mortem") || !strings.Contains(postMortem[0], want) {
		t.Errorf("event log post-mortem %q; want one line with the reason and %s", postMortem, want)
	}
}
