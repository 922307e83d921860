package core

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"jkernel/internal/raceflag"
)

// Everything the kernel makes has an end: a terminated domain's name is
// free, a revoked gate is no longer its owner's, and a domain's idle tasks
// close with it.

func TestTerminatedDomainNameIsFree(t *testing.T) {
	k := MustNew(Options{})
	base := k.TableSizes()
	d, err := k.NewDomain(DomainConfig{Name: "servlet-foo"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewDomain(DomainConfig{Name: "servlet-foo"}); err == nil {
		t.Fatal("a live domain's name was taken twice")
	}
	d.Terminate("re-upload")
	if got := k.TableSizes(); got != base {
		t.Errorf("tables after Terminate: %+v, want %+v", got, base)
	}
	again, err := k.NewDomain(DomainConfig{Name: "servlet-foo"})
	if err != nil {
		t.Fatalf("NewDomain after Terminate: %v", err)
	}
	if k.DomainByName("servlet-foo") != again {
		t.Error("DomainByName does not find the new domain")
	}
	// The old domain's end does not take the name from its successor.
	d.Terminate("again")
	if k.DomainByName("servlet-foo") != again {
		t.Error("a second Terminate of the old domain released the new one's name")
	}
	if _, ok := k.Telemetry().Snapshot().Gauges["domain.servlet-foo.steps"]; !ok {
		t.Error("the new domain has no gauges")
	}
}

func TestNewDomainNameRace(t *testing.T) {
	k := MustNew(Options{})
	const n = 16
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		won   []*Domain
	)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if d, err := k.NewDomain(DomainConfig{Name: "contested"}); err == nil {
				mu.Lock()
				won = append(won, d)
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(won) != 1 {
		t.Fatalf("%d of %d concurrent NewDomain calls for one name succeeded, want 1", len(won), n)
	}
	if k.DomainByName("contested") != won[0] {
		t.Error("DomainByName does not find the winner")
	}
	if got := k.TableSizes().Domains; got != 1 {
		t.Errorf("%d names held, want 1", got)
	}
}

func TestRevokedGateLeavesItsOwner(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{Name: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := k.CreateNativeCapability(d, pinger{})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := k.CreateNativeCapability(d, pinger{})
	if err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(gone.Gate())
	gone.Revoke()
	gone.Revoke() // counted once
	d.mu.Lock()
	_, still := d.created[gone.Gate()]
	n := len(d.created)
	d.mu.Unlock()
	if still || n != 1 {
		t.Errorf("after one revocation the owner holds %d gates (the revoked one: %v), want 1", n, still)
	}
	gone = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a revoked gate nothing names survived a collection")
	}
	d.Terminate("done")
	if !keep.Revoked() {
		t.Error("Terminate did not revoke the live gate")
	}
	if got := d.Stats().Revoked; got != 2 {
		t.Errorf("Revoked = %d, want 2: one revocation each, however often asked", got)
	}
}

func TestDomainTaskPool(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	base := k.TableSizes().Tasks

	a, b := d.GetTask(), d.GetTask()
	if a == b {
		t.Fatal("two tasks in use at once are one task")
	}
	d.PutTask(a)
	d.PutTask(b)
	if got := k.TableSizes().Tasks; got != base+2 {
		t.Errorf("%d tasks open, want the peak in use (%d)", got-base, 2)
	}
	if c := d.GetTask(); c != b {
		t.Error("GetTask did not hand back an idle task")
	} else {
		d.PutTask(c)
	}
	if !raceflag.Enabled {
		if n := testing.AllocsPerRun(100, func() { d.PutTask(d.GetTask()) }); n != 0 {
			t.Errorf("GetTask + PutTask allocates %v times", n)
		}
	}
	// A GC empties a sync.Pool; the idle list keeps every task open, so
	// none is left to leak.
	runtime.GC()
	runtime.GC()
	for range 4 {
		d.PutTask(d.GetTask())
	}
	if got := k.TableSizes().Tasks; got != base+2 {
		t.Errorf("after a collection %d tasks open, want 2", got-base)
	}

	busy := d.GetTask()
	d.Terminate("done")
	if got := k.TableSizes().Tasks; got != base+1 {
		t.Errorf("after Terminate %d tasks open, want only the busy one", got-base)
	}
	d.PutTask(busy)
	if !busy.closed.Load() || k.TableSizes().Tasks != base {
		t.Error("a task returned after Terminate was kept")
	}
}

// Carriers cycling tasks while the domain terminates: whichever side of
// the end a return lands on, the task is closed, by Terminate or by
// PutTask, and none is left open.
func TestDomainTaskPoolRacesTerminate(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	base := k.TableSizes().Tasks
	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			for range 500 {
				d.PutTask(d.GetTask())
			}
		}()
	}
	for range 8 {
		<-started
	}
	d.Terminate("mid-traffic")
	wg.Wait()
	if got := k.TableSizes().Tasks; got != base {
		t.Errorf("%d tasks left open after Terminate under traffic", got-base)
	}
}

// innerTasker is a native callee that enters a domain of its own on the
// goroutine it runs on, as a servlet calling onward does, and ends that
// task before it returns.
type innerTasker struct {
	k *Kernel
	d *Domain
}

func (s *innerTasker) Work() error {
	t := s.k.NewTask(s.d, "inner")
	defer t.Close()
	return nil
}

// A task made and closed by a callee on its ambient caller's goroutine
// ends itself, not its caller's registration: the caller's next ambient
// Invoke still finds its task.
func TestNestedTaskKeepsCallersRegistration(t *testing.T) {
	k := MustNew(Options{})
	app, err := k.NewDomain(DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := k.NewDomain(DomainConfig{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateNativeCapability(svc, &innerTasker{k: k, d: svc})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(app, "caller")
	defer task.Close()
	for i := 0; i < 2; i++ {
		if _, err := cap.Invoke("Work"); err != nil {
			t.Fatalf("ambient call %d: %v", i, err)
		}
	}
	if got := k.currentTask(); got != task {
		t.Fatalf("the caller's goroutine resolves to task %v, want its own", got)
	}
}
