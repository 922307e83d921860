package core

import (
	"strings"
	"testing"
	"time"

	"jkernel/internal/vmkit"
)

// Semantics the allocation-free LRMI must not bend: recycled segments and
// stale Thread handles, termination mid-call, nested crossings on one
// carrier's arena, and a gate whose only way in is its stub.

const semIface = `
.class Sem interface implements jk/kernel/Remote
.method grab ()I
.end
.method poke ()I
.end
.method stopAndReturn ()I
.end
.method ping ()I
.end
.method spin ()I
.end
.method relay (LSem;)I
.end
.method take (LItem;)I
.end
`

const semItem = ".class Item implements jk/io/FastCopy\n.field n I\n"

const semImpl = `
.class SemImpl implements Sem
.field static saved Ljk/lang/Thread;
.method grab ()I
  ; stash the handle on this call's segment, then return: the handle is
  ; stale from here on
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  putstatic SemImpl.saved:Ljk/lang/Thread;
  iconst 1
  retv
.end
.method poke ()I
  ; running on the recycled segment: every operation through the stale
  ; handle must throw IllegalState and leave this call alone
  iconst 0
  store 1
t1:
  getstatic SemImpl.saved:Ljk/lang/Thread;
  invokevirtual jk/lang/Thread.stop:()V
  jmp next
e1:
h1:
  pop
  load 1
  iconst 10
  iadd
  store 1
next:
t2:
  getstatic SemImpl.saved:Ljk/lang/Thread;
  invokevirtual jk/lang/Thread.suspend:()V
  jmp out
e2:
h2:
  pop
  load 1
  iconst 20
  iadd
  store 1
out:
  ; a backward branch: were this segment stopped or suspended, the
  ; safepoint here would say so
  iconst 3
  store 0
spin:
  load 0
  ifz done
  load 0
  iconst 1
  isub
  store 0
  jmp spin
done:
  load 1
  retv
  .catch jk/lang/IllegalStateException from t1 to e1 using h1
  .catch jk/lang/IllegalStateException from t2 to e2 using h2
.end
.method stopAndReturn ()I
  ; stop this segment and leave before any safepoint sees it: the Seg
  ; goes back to the free list with the stop still recorded
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  invokevirtual jk/lang/Thread.stop:()V
  iconst 1
  retv
.end
.method ping ()I
  iconst 1
  retv
.end
.method spin ()I
loop:
  jmp loop
.end
.method relay (LSem;)I
  load 1
  invokeinterface Sem.ping:()I
  iconst 100
  iadd
  retv
.end
.method take (LItem;)I
  load 1
  getfield Item.n:I
  retv
.end
`

const semClient = `
.class SemClient
.method static svc ()LSem;
  sconst "sem"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Sem
  retv
.end
.method static stale ()I
  invokestatic SemClient.svc:()LSem;
  invokeinterface Sem.grab:()I
  invokestatic SemClient.svc:()LSem;
  invokeinterface Sem.poke:()I
  iadd
  retv
.end
.method static afterStopped ()I
  invokestatic SemClient.svc:()LSem;
  invokeinterface Sem.stopAndReturn:()I
  invokestatic SemClient.svc:()LSem;
  invokeinterface Sem.ping:()I
  iadd
  retv
.end
.method static spinCaught ()I
try:
  invokestatic SemClient.svc:()LSem;
  invokeinterface Sem.spin:()I
  retv
end:
dead:
  pop
  ; the callee's segment was stopped, not this one: loop through a few
  ; safepoints and return normally
  iconst 5
  store 0
again:
  load 0
  ifz done
  load 0
  iconst 1
  isub
  store 0
  jmp again
done:
  iconst 7
  retv
  .catch jk/kernel/DomainTerminatedException from try to end using dead
.end
.method static nested ()I
  invokestatic SemClient.svc:()LSem;
  sconst "sem2"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Sem
  invokeinterface Sem.relay:(LSem;)I
  retv
.end
`

type semFixture struct {
	k              *Kernel
	server, client *Domain
	cap            *Capability
}

// newSemFixture builds a server exporting SemImpl as "sem" (and a second
// server exporting another as "sem2") plus a client with extra classes.
func newSemFixture(t *testing.T, clientClasses map[string]string) *semFixture {
	t.Helper()
	k := MustNew(Options{})
	classes := map[string][]byte{
		"Sem": mustAsm(t, semIface), "Item": mustAsm(t, semItem), "SemImpl": mustAsm(t, semImpl),
	}
	server, err := k.NewDomain(DomainConfig{Name: "server", Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(server, "Sem", "Item")
	if err != nil {
		t.Fatal(err)
	}
	server2, err := k.NewDomain(DomainConfig{Name: "server2", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"SemImpl": classes["SemImpl"]}})
	if err != nil {
		t.Fatal(err)
	}
	cc := map[string][]byte{"SemClient": mustAsm(t, semClient)}
	for name, src := range clientClasses {
		cc[name] = mustAsm(t, src)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client", Shared: []*SharedClass{sc}, Classes: cc})
	if err != nil {
		t.Fatal(err)
	}
	f := &semFixture{k: k, server: server, client: client}
	for name, d := range map[string]*Domain{"sem": server, "sem2": server2} {
		target, err := d.NewInstance("SemImpl")
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
		if d == server {
			f.cap = cap
		}
	}
	return f
}

func (f *semFixture) handles() int {
	n := 0
	f.k.segs.Range(func(_, _ any) bool { n++; return true })
	return n
}

func TestStaleThreadHandleCannotReachRecycledSegment(t *testing.T) {
	f := newSemFixture(t, nil)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	v, err := task.CallStatic("SemClient.stale:()I")
	if err != nil {
		t.Fatalf("stale: %v", err)
	}
	// grab()=1, then poke() caught IllegalState from stop (10) and from
	// suspend (20) and ran to completion.
	if v.I != 31 {
		t.Errorf("stale = %d, want 31 (both stale-handle operations refused, callee ran on)", v.I)
	}
	if n := f.handles(); n != 0 {
		t.Errorf("%d segment handles still registered after the calls returned", n)
	}
	if err := task.Chain.Poll(); err != nil {
		t.Errorf("caller segment disturbed: %v", err)
	}
}

func TestRecycledSegmentDoesNotStartStopped(t *testing.T) {
	f := newSemFixture(t, nil)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	v, err := task.CallStatic("SemClient.afterStopped:()I")
	if err != nil {
		t.Fatalf("call into the domain after a stopped segment was recycled: %v", err)
	}
	if v.I != 2 {
		t.Errorf("afterStopped = %d, want 2", v.I)
	}
}

func TestTerminateMidCallStopsOnlyTheCalleeSegment(t *testing.T) {
	f := newSemFixture(t, nil)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	done := make(chan struct{})
	var v vmkit.Value
	var callErr error
	steps := f.server.Stats().Steps
	go func() {
		defer close(done)
		v, callErr = f.k.VM.CallStatic(task.Thread, f.client.NS, "SemClient.spinCaught:()I")
	}()
	// Wait for the carrier to be inside the server, then kill the server.
	awaitSteps(t, f.server, steps, 5*time.Second)
	f.server.Terminate("test")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("terminated callee kept spinning")
	}
	if callErr != nil || v.I != 7 {
		t.Fatalf("spinCaught = %v, %v; want 7 (callee died, caller ran on)", v, callErr)
	}
	// The carrier's recycled Seg serves the next crossing, into a live
	// domain, unstopped.
	v, err := f.k.VM.CallStatic(task.Thread, f.client.NS, "SemClient.nested:()I")
	if err == nil || !strings.Contains(err.Error(), "DomainTerminated") {
		t.Fatalf("call into the dead server = %v, %v; want DomainTerminatedException", v, err)
	}
	cap2 := f.k.Repository().Lookup("sem2")
	if out, err := cap2.InvokeVM(task, "ping"); err != nil || out.(int64) != 1 {
		t.Fatalf("ping on the surviving server = %v, %v", out, err)
	}
}

// awaitSteps waits until d's account shows more than steps interpreter
// steps: a carrier running d's code publishes them every flush window, so
// another goroutine learns the carrier is inside d without reading its
// chain, which is the carrier's alone.
func awaitSteps(t *testing.T, d *Domain, steps int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for d.Stats().Steps <= steps {
		if time.Now().After(deadline) {
			t.Fatalf("no steps published by domain %s's code", d.Name)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestNestedLRMIOnOneCarrier crosses native → VM → native → VM: the
// client's stub enters server 1, whose relay calls server 2 through
// another stub, all on one thread's arena and one segment chain.
func TestNestedLRMIOnOneCarrier(t *testing.T) {
	f := newSemFixture(t, nil)
	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	for i := 0; i < 3; i++ {
		v, err := task.CallStatic("SemClient.nested:()I")
		if err != nil || v.I != 101 {
			t.Fatalf("nested = %v, %v; want 101", v, err)
		}
	}
	if d := task.Chain.Depth(); d != 1 {
		t.Errorf("chain depth %d after return", d)
	}
	if got := f.client.Stats().CrossCalls; got != 3 {
		t.Errorf("client made %d cross calls, want 3", got)
	}
}

// semEntryName is where a static entry into the gate for take(LItem;)I
// would live. The kernel defines no class there: a stub's methods are the
// gate's natives, and nothing else leads into the gate.
const semEntryName = "jk/kernel/Enter$L$I"

// semDirect calls such an entry with the stub, take's method index (6, in
// signature order) and the raw argument.
const semDirect = `
.class Direct
.method static right ()I
  sconst "sem"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  iconst 6
  new Item
  dup
  iconst 42
  putfield Item.n:I
  invokestatic jk/kernel/Enter$L$I.call:(Ljk/kernel/Capability;ILjk/lang/Object;)I
  retv
.end
`

// TestNoGateEntryBesideTheStub: bytecode that names a static entry into
// the gate does not link, and a Go caller's argument of the wrong class is
// still a ClassCastException that the callee never sees.
func TestNoGateEntryBesideTheStub(t *testing.T) {
	f := newSemFixture(t, nil)
	_, err := f.client.DefineClass(mustAsm(t, semDirect))
	if err == nil || !strings.Contains(err.Error(), semEntryName) {
		t.Errorf("a class calling %s linked: %v, want a link error naming it", semEntryName, err)
	}

	task := f.k.NewTask(f.client, "client")
	defer task.Close()
	steps := f.server.Stats().Steps
	_, err = f.cap.InvokeVM(task, "take", "not an Item")
	if te, ok := err.(*ThrownVMError); !ok || te.Throwable.Class.Name != vmkit.ClassCastEx {
		t.Errorf("take(String) through InvokeVM: got %v, want ClassCastException", err)
	}
	if got := f.server.Stats().Steps; got != steps {
		t.Errorf("the callee ran %d steps for a wrong-class argument", got-steps)
	}
}

// A class a domain supplies under semEntryName. Were it an entry a stub
// called, it would run the server's code on the caller's segment with
// the caller's uncopied object.
const semFakeEntry = `
.class jk/kernel/Enter$L$I
.field static stolen Ljk/lang/Object;
.method static call (Ljk/kernel/Capability;ILjk/lang/Object;)I
  load 2
  putstatic jk/kernel/Enter$L$I.stolen:Ljk/lang/Object;
  iconst 99
  retv
.end
`

const semTakeClient = `
.class TakeClient
.method static run ()I
  sconst "sem"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Sem
  new Item
  dup
  iconst 42
  putfield Item.n:I
  invokeinterface Sem.take:(LItem;)I
  retv
.end
`

// TestDomainClassUnderAnEntryNameIsItsOwn: a name under jk/kernel/Enter$
// is an ordinary name. The server ships a class there, and gets it as a
// class of its own; the stub it then creates does not call it, and take
// reaches the real callee through the gate.
func TestDomainClassUnderAnEntryNameIsItsOwn(t *testing.T) {
	k := MustNew(Options{})
	server, err := k.NewDomain(DomainConfig{
		Name: "server",
		Classes: map[string][]byte{
			"Sem": mustAsm(t, semIface), "Item": mustAsm(t, semItem), "SemImpl": mustAsm(t, semImpl),
			semEntryName: mustAsm(t, semFakeEntry),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fake, err := server.NS.Resolve(semEntryName)
	if err != nil || fake.NS != server.NS {
		t.Fatalf("the server's own %s = %v, %v; want its class", semEntryName, fake, err)
	}

	sc, err := k.ShareClasses(server, "Sem", "Item")
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"TakeClient": mustAsm(t, semTakeClient)}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := server.NewInstance("SemImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("sem", cap); err != nil {
		t.Fatal(err)
	}

	task := k.NewTask(client, "client")
	defer task.Close()
	v, err := task.CallStatic("TakeClient.run:()I")
	if err != nil || v.I != 42 {
		t.Fatalf("take through the stub = %v, %v; want 42 from the real callee", v, err)
	}
	if got := client.Stats().CrossCalls; got != 1 {
		t.Errorf("CrossCalls = %d, want 1: the call did not go through the gate", got)
	}
	if stolen := fake.Statics[fake.FieldByName("stolen").Slot]; stolen.R != nil {
		t.Error("the server's class received the caller's argument")
	}
}

const semKeepIface = `
.class Keeper interface implements jk/kernel/Remote
.method keep (LItem;)I
.end
`

const semKeepImpl = `
.class KeeperImpl implements Keeper
.method keep (LItem;)I
  iconst 2
  retv
.end
`

// An object of a same-named class the callee does not share is reported by
// the copy as unshared (RemoteException), not by the gate as a bad cast.
func TestUnsharedArgumentClassIsRemoteException(t *testing.T) {
	k := MustNew(Options{})
	server, err := k.NewDomain(DomainConfig{Name: "server", Classes: map[string][]byte{
		"Keeper": mustAsm(t, semKeepIface), "KeeperImpl": mustAsm(t, semKeepImpl), "Item": mustAsm(t, semItem),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The client has an Item of its own: same name, not the server's class.
	client, err := k.NewDomain(DomainConfig{Name: "client", Classes: map[string][]byte{"Item": mustAsm(t, semItem)}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := server.NewInstance("KeeperImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(client, "client")
	defer task.Close()
	item, err := client.NewInstance("Item")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cap.InvokeVM(task, "keep", item)
	if te, ok := err.(*ThrownVMError); !ok || te.Throwable.Class.Name != classRemoteEx {
		t.Errorf("an unshared Item: got %v, want RemoteException", err)
	}
}
