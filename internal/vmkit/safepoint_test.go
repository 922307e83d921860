package vmkit

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// hookDeath installs the hook the segment layer's stop amounts to: once
// the word is raised, the next safepoint lowers it and throws ThreadDeath.
// Install it before the thread runs; raise the word to stop it.
func hookDeath(vm *VM, th *Thread) {
	death := vm.Throwf(ClassThreadDeath, "die")
	th.SafepointHook = func(th *Thread) *Object {
		th.Attention().Store(0)
		return death
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
.method static walk (I)I
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
	hookDeath(vm, th)
	done := make(chan error, 1)
	go func() {
		_, err := vm.CallStatic(th, ns, "Tree.walk:(I)I", IntVal(40))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	th.Attention().Store(1)
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

// TestVMDefinesNoKernelClass: the J-Kernel's classes are the kernel
// layer's to define. A bare VM has no jk/kernel/* class and no
// jk/lang/Thread, so bytecode there has no Thread.stop to link against.
func TestVMDefinesNoKernelClass(t *testing.T) {
	vm := MustNew(ProfileA)
	for _, name := range []string{"jk/kernel/Capability", "jk/lang/Thread"} {
		if vm.SystemClass(name) != nil {
			t.Errorf("a bare VM defines %s", name)
		}
	}
	for _, c := range vm.Bootstrap().Classes() {
		if strings.HasPrefix(c.Name, "jk/kernel/") {
			t.Errorf("a bare VM defines %s", c.Name)
		}
	}
	b, err := AssembleBytes(`
.class Stopper
.method static stopSelf ()V
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  invokevirtual jk/lang/Thread.stop:()V
  ret
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	ns := vm.NewNamespace("bare", MapResolver(map[string][]byte{"Stopper": b}, vm.BootResolver()))
	if _, err := ns.Resolve("Stopper"); err == nil || !strings.Contains(err.Error(), "resolve jk/lang/Thread") {
		t.Fatalf("linking a class that calls jk/lang/Thread.stop on a bare VM: %v, want jk/lang/Thread unresolved", err)
	}
}

// TestSafepointStaysInlined: the interpreter polls at method entry and on
// backward branches, and a poll that is a call costs every iteration of
// every loop. The compiler must inline (*Thread).safepoint at each of
// interp.go's polls, counted from the source.
func TestSafepointStaysInlined(t *testing.T) {
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gotool); err != nil {
		t.Skipf("no go tool: %v", err)
	}
	src, err := os.ReadFile("interp.go")
	if err != nil {
		t.Fatal(err)
	}
	polls := strings.Count(string(src), ".safepoint()")
	out, err := exec.Command(gotool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "can inline (*Thread).safepoint") {
		t.Error("(*Thread).safepoint is over the inlining budget")
	}
	inlined := 0
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "interp.go:") && strings.Contains(line, "inlining call to (*Thread).safepoint") {
			inlined++
		}
	}
	if polls == 0 || inlined != polls {
		t.Errorf("interp.go polls %d times; the compiler inlines (*Thread).safepoint at %d", polls, inlined)
	}
}
