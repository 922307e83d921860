package vmkit

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jkernel/internal/account"
	"jkernel/internal/raceflag"
)

// assertArenaIdle checks what every return and unwind must restore: no
// live window, depth zero, and no slot still holding a value (a stale
// reference would pin a VM object for the thread's lifetime).
func assertArenaIdle(t *testing.T, th *Thread) {
	t.Helper()
	if th.top != 0 || th.callDepth != 0 {
		t.Errorf("arena not idle: top=%d callDepth=%d", th.top, th.callDepth)
	}
	for i, v := range th.arena {
		if v != (Value{}) {
			t.Fatalf("arena slot %d still holds %v", i, v)
		}
	}
}

const callsSrc = `
.class Tgt implements Ifc
.method nop ()V
  ret
.end
.method inop ()V
  ret
.end
.method static regular (LTgt;I)V
loop:
  load 1
  ifz done
  load 0
  invokevirtual Tgt.nop:()V
  load 1
  iconst 1
  isub
  store 1
  jmp loop
done:
  ret
.end
.method static iface (LIfc;I)V
loop:
  load 1
  ifz done
  load 0
  invokeinterface Ifc.inop:()V
  load 1
  iconst 1
  isub
  store 1
  jmp loop
done:
  ret
.end
`

// TestAllocsBytecodeCalls pins a regular and an interface bytecode call at
// zero allocations on the product VM and under both paper profiles
// (profile A's interface row keeps its lock, key build and scan — none of
// them allocates).
func TestAllocsBytecodeCalls(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, p := range []Profile{{}, ProfileA, ProfileB} {
		vm := MustNew(p)
		classes := map[string][]byte{}
		for _, src := range []string{".class Ifc interface\n.method inop ()V\n.end\n", callsSrc} {
			b, err := AssembleBytes(src)
			if err != nil {
				t.Fatal(err)
			}
			def, _ := DecodeClass(b)
			classes[def.Name] = b
		}
		ns := vm.NewNamespace("test", MapResolver(classes, vm.BootResolver()))
		cls, err := ns.Resolve("Tgt")
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := ns.NewInstance(cls)
		th := vm.NewThread("t")
		const n = 200
		args := []Value{RefVal(obj), IntVal(n)}
		for _, name := range []string{"regular:(LTgt;I)V", "iface:(LIfc;I)V"} {
			mname, desc, _ := strings.Cut(name, ":")
			m := cls.MethodBySig(mname, desc)
			got := testing.AllocsPerRun(20, func() {
				if _, err := vm.Call(th, m, args); err != nil {
					t.Fatal(err)
				}
			}) / n
			if got > 0 {
				t.Errorf("profile %+v %s: %.2f allocs/call, want 0", p, mname, got)
			}
		}
		assertArenaIdle(t, th)
		vm.Detach(th)
	}
}

const lockLoopSrc = `
.class Locker
.method static pairs (Ljk/lang/Object;I)V
loop:
  load 1
  ifz done
  load 0
  monitorenter
  load 0
  monitorexit
  load 1
  iconst 1
  isub
  store 1
  jmp loop
done:
  ret
.end
`

// TestCrossingOnTheProductVMTakesNoVMLock pins the zero Profile's share of
// a crossing: 1 000 invokeinterface calls and 1 000 monitor pairs return
// while the paper profiles' VM-wide locks and the thread table are held
// for writing elsewhere.
func TestCrossingOnTheProductVMTakesNoVMLock(t *testing.T) {
	vm, ns := newTestNS(t, ".class Ifc interface\n.method inop ()V\n.end\n", callsSrc, lockLoopSrc)
	tgt, err := ns.Resolve("Tgt")
	if err != nil {
		t.Fatal(err)
	}
	locker, err := ns.Resolve("Locker")
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := ns.NewInstance(tgt)
	th := vm.NewThread("t")
	defer vm.Detach(th)
	iface := tgt.MethodBySig("iface", "(LIfc;I)V")
	pairs := locker.MethodBySig("pairs", "(Ljk/lang/Object;I)V")

	vm.ifaceRegMu.Lock()
	vm.lockStatsMu.Lock()
	vm.threadsMu.Lock()
	defer vm.ifaceRegMu.Unlock()
	defer vm.lockStatsMu.Unlock()
	defer vm.threadsMu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := vm.Call(th, iface, []Value{RefVal(obj), IntVal(1000)})
		if err == nil {
			_, err = vm.Call(th, pairs, []Value{RefVal(obj), IntVal(1000)})
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("1000 interface calls and monitor pairs did not return with the VM's locks held: the product VM takes one")
	}
}

func TestArenaOverflowThenReuse(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Deep
.method static down (I)I
  load 0
  iconst 1
  iadd
  invokestatic Deep.down:(I)I
  retv
.end
.method static ok (I)I
  load 0
  iconst 1
  iadd
  retv
.end
`)
	th := vm.NewThread("deep")
	defer vm.Detach(th)
	_, err := vm.CallStatic(th, ns, "Deep.down:(I)I", IntVal(0))
	if err == nil || !strings.Contains(err.Error(), "call stack overflow") {
		t.Fatalf("runaway recursion: got %v, want the overflow error", err)
	}
	assertArenaIdle(t, th)
	// Each frame is 3 slots: the depth bound, not the recursion, sized it.
	if max := (maxCallDepth + 1) * 3; len(th.arena) > 2*max+256 {
		t.Errorf("arena grew to %d slots for %d frames of 3", len(th.arena), maxCallDepth)
	}
	v, err := vm.CallStatic(th, ns, "Deep.ok:(I)I", IntVal(41))
	if err != nil || v.I != 42 {
		t.Fatalf("call after overflow = %v, %v; want 42", v, err)
	}
	assertArenaIdle(t, th)
}

// storesNaming returns code that copies local src into each of the n
// locals from first on, so that a method's frame holds them.
func storesNaming(src, first, n int) string {
	var b strings.Builder
	for i := first; i < first+n; i++ {
		fmt.Fprintf(&b, "  load %d\n  store %d\n", src, i)
	}
	return b.String()
}

// TestArenaCeiling: a recursion whose frames name 16 384 locals runs into
// the stack's byte ceiling long before maxCallDepth. It ends in the same
// overflow error, having allocated less than twice the ceiling, all of it
// charged to the thread's account, and the thread then runs another
// method, which grows a first arena again.
func TestArenaCeiling(t *testing.T) {
	const locals = 1 << 14
	vm, ns := newTestNS(t, `
.class Wide
.field static deepest I
.method static down (I)I
`+storesNaming(0, 1, locals-1)+`
  load 0
  putstatic Wide.deepest:I
  load 0
  iconst 1
  iadd
  invokestatic Wide.down:(I)I
  retv
.end
.method static ok (I)I
  load 0
  iconst 1
  iadd
  retv
.end
`)
	cls, err := ns.Resolve("Wide") // loading and verifying are not the call's
	if err != nil {
		t.Fatal(err)
	}
	frame := cls.MethodBySig("down", "(I)I").frame
	if frame < locals {
		t.Fatalf("down's frame is %d slots, want the %d locals it names", frame, locals)
	}
	th := vm.NewThread("wide")
	defer vm.Detach(th)
	th.Account = new(account.Account)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = vm.CallStatic(th, ns, "Wide.down:(I)I", IntVal(0))
	runtime.ReadMemStats(&after)
	charged := uint64(th.Account.Snapshot().AllocBytes)
	if err == nil || !strings.Contains(err.Error(), "call stack overflow") {
		t.Fatalf("wide recursion: got %v, want the overflow error", err)
	}
	deepest := cls.Statics[cls.FieldByName("deepest").Slot].I
	t.Logf("wide recursion ended at depth %d, charged %d bytes", deepest, charged)
	if deepest+1 >= maxCallDepth || int(deepest+2)*frame*valueBytes <= maxArenaBytes {
		t.Errorf("wide recursion ended at depth %d: not at the %d-byte ceiling", deepest, maxArenaBytes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; !raceflag.Enabled && got > 2*maxArenaBytes {
		t.Errorf("wide recursion allocated %d bytes, over twice the %d-byte stack", got, maxArenaBytes)
	}
	// The arenas it grew through end in one at the ceiling.
	if last := uint64(maxArenaBytes / valueBytes * valueBytes); charged < last || charged > 2*maxArenaBytes {
		t.Errorf("wide recursion charged %d bytes, want from %d to twice the %d-byte stack", charged, last, maxArenaBytes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; !raceflag.Enabled && got < charged {
		t.Errorf("wide recursion charged %d bytes, more than the %d it allocated", charged, got)
	}
	assertArenaIdle(t, th)
	v, err := vm.CallStatic(th, ns, "Wide.ok:(I)I", IntVal(41))
	if err != nil || v.I != 42 {
		t.Fatalf("call after overflow = %v, %v; want 42", v, err)
	}
	if got, want := uint64(th.Account.Snapshot().AllocBytes)-charged, uint64(minArenaBytes/valueBytes*valueBytes); got != want {
		t.Errorf("the call after the released arena charged %d bytes, want a first arena's %d", got, want)
	}
	assertArenaIdle(t, th)
}

func TestArenaUnwindThreeFrames(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Unw
.method static c (Ljk/lang/Object;I)I
  load 0
  store 2
  new jk/lang/RuntimeException
  throw
.end
.method static b (Ljk/lang/Object;I)I
  load 0
  store 2
  iconst 7
  load 0
  load 1
  invokestatic Unw.c:(Ljk/lang/Object;I)I
  iadd
  retv
.end
.method static a (Ljk/lang/Object;I)I
  iconst 9
  load 0
  load 1
  invokestatic Unw.b:(Ljk/lang/Object;I)I
  iadd
  retv
.end
.method static caught (Ljk/lang/Object;I)I
  iconst 5
  store 2
try:
  load 0
  load 1
  invokestatic Unw.a:(Ljk/lang/Object;I)I
  retv
end:
handler:
  pop
  ; the catching frame's own locals survived the unwind below it
  load 2
  load 1
  iadd
  retv
  .catch jk/lang/RuntimeException from try to end using handler
.end
`)
	cls, err := ns.Resolve("Unw")
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := ns.NewInstance(cls)
	th := vm.NewThread("unw")
	defer vm.Detach(th)

	_, err = vm.CallStatic(th, ns, "Unw.a:(Ljk/lang/Object;I)I", RefVal(obj), IntVal(1))
	if te, ok := err.(*ThrownError); !ok || te.Throwable.Class.Name != ClassRuntimeEx {
		t.Fatalf("uncaught unwind: got %v, want RuntimeException", err)
	}
	assertArenaIdle(t, th)

	v, err := vm.CallStatic(th, ns, "Unw.caught:(Ljk/lang/Object;I)I", RefVal(obj), IntVal(30))
	if err != nil || v.I != 35 {
		t.Fatalf("caught = %v, %v; want 35", v, err)
	}
	assertArenaIdle(t, th)
}

// TestArenaNativeReentry nests native → VM → native → VM on one carrier,
// with frames big enough that the arena grows (and moves) while the outer
// natives still hold their argument windows.
func TestArenaNativeReentry(t *testing.T) {
	src := `
.class Re
.method static native hop (Ljk/lang/Object;I)I
.end
.method static down (Ljk/lang/Object;I)I
` + storesNaming(1, 2, 300) + `
  load 1
  ifz bottom
  load 0
  load 1
  iconst 1
  isub
  invokestatic Re.hop:(Ljk/lang/Object;I)I
  iconst 1
  iadd
  retv
bottom:
  ; a native of another namespace runs (and leaves) under the hops
  load 0
  invokevirtual jk/lang/Object.hashCode:()I
  pop
  iconst 100
  retv
.end
`
	vm := MustNew(ProfileA)
	var down *Method
	var hopNS *Namespace
	vm.RegisterNative("Re.hop:(Ljk/lang/Object;I)I", func(env *Env, _ *Object, args []Value) (Value, *Object) {
		if env.NS != hopNS {
			t.Errorf("hop entered with env.NS = %v", env.NS)
		}
		obj, n := args[0].R, args[1].I
		v, th := env.VM.Invoke(env.Thread, down, []Value{args[0], args[1]})
		// Whatever happened to the arena underneath, this window still
		// reads what it was called with, and env is this native's again.
		if args[0].R != obj || args[1].I != n {
			t.Errorf("hop(%d): args window changed across re-entry", n)
		}
		if env.NS != hopNS {
			t.Errorf("hop(%d): env.NS not restored after re-entry", n)
		}
		return v, th
	})
	b, err := AssembleBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	ns := vm.NewNamespace("test", MapResolver(map[string][]byte{"Re": b}, vm.BootResolver()))
	hopNS = ns
	cls, err := ns.Resolve("Re")
	if err != nil {
		t.Fatal(err)
	}
	down = cls.MethodBySig("down", "(Ljk/lang/Object;I)I")
	obj, _ := ns.NewInstance(cls)
	th := vm.NewThread("re")
	defer vm.Detach(th)
	v, err := vm.CallStatic(th, ns, "Re.down:(Ljk/lang/Object;I)I", RefVal(obj), IntVal(6))
	if err != nil || v.I != 106 {
		t.Fatalf("down(6) = %v, %v; want 106", v, err)
	}
	if len(th.arena) < 6*300 {
		t.Errorf("arena is %d slots: the nesting did not grow it", len(th.arena))
	}
	assertArenaIdle(t, th)
}

func TestArenaSynchronizedCallee(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Sync
.method synchronized held ()I
  iconst 3
  retv
.end
.method synchronized boom ()I
  new jk/lang/RuntimeException
  throw
.end
.method static run (LSync;)I
try:
  load 0
  invokevirtual Sync.boom:()I
  retv
end:
handler:
  pop
  load 0
  invokevirtual Sync.held:()I
  retv
  .catch jk/lang/RuntimeException from try to end using handler
.end
`)
	cls, err := ns.Resolve("Sync")
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := ns.NewInstance(cls)
	th := vm.NewThread("sync")
	defer vm.Detach(th)
	v, err := vm.CallStatic(th, ns, "Sync.run:(LSync;)I", RefVal(obj))
	if err != nil || v.I != 3 {
		t.Fatalf("run = %v, %v; want 3", v, err)
	}
	if obj.MonitorOwner() != nil {
		t.Error("monitor still held after a synchronized callee threw and another returned")
	}
	assertArenaIdle(t, th)
}
