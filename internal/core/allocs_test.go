package core

import (
	"math"
	"runtime"
	"testing"

	"jkernel/internal/raceflag"
	"jkernel/internal/vmkit"
)

// Allocation ceilings for the crossing paths, pinned at what the typed
// stubs, the frame arena and the recycled segment switch reach. A
// regression here shows up in tier-1 without running the benchmark.

const allocSvcIface = `
.class Svc interface implements jk/kernel/Remote
.method nop ()V
.end
.method add3 (III)I
.end
`

const allocSvcImpl = `
.class SvcImpl implements Svc
.method nop ()V
  ret
.end
.method add3 (III)I
  load 1
  load 2
  iadd
  load 3
  iadd
  retv
.end
`

// AllocBench.null(n) and .add(n) make n LRMIs through the generated stub;
// sum4 crosses nothing.
const allocClient = `
.class AllocBench
.field static svc LSvc;
.method static sum4 (IIII)I
  load 0
  load 1
  iadd
  load 2
  iadd
  load 3
  iadd
  retv
.end
.method static setup ()V
  sconst "svc"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Svc
  putstatic AllocBench.svc:LSvc;
  ret
.end
.method static null (I)V
loop:
  load 0
  ifz done
  getstatic AllocBench.svc:LSvc;
  invokeinterface Svc.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static add (I)I
  iconst 0
  store 1
loop:
  load 0
  ifz done
  getstatic AllocBench.svc:LSvc;
  iconst 1000
  iconst 2000
  load 0
  invokeinterface Svc.add3:(III)I
  store 1
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  load 1
  retv
.end
`

type allocFixture struct {
	k      *Kernel
	server *Domain
	client *Domain
	task   *Task
}

func newAllocFixture(t *testing.T) *allocFixture {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := MustNew(Options{})
	server, err := k.NewDomain(DomainConfig{Name: "server", Classes: map[string][]byte{
		"Svc": mustAsm(t, allocSvcIface), "SvcImpl": mustAsm(t, allocSvcImpl),
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(server, "Svc")
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"AllocBench": mustAsm(t, allocClient)}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := server.NewInstance("SvcImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("svc", cap); err != nil {
		t.Fatal(err)
	}
	f := &allocFixture{k: k, server: server, client: client, task: k.NewDetachedTask(client, "alloc")}
	t.Cleanup(f.task.Close)
	if _, err := f.task.CallStatic("AllocBench.setup:()V"); err != nil {
		t.Fatal(err)
	}
	return f
}

// perCall reports allocations per LRMI of AllocBench.<method>, which
// makes n of them per run.
func (f *allocFixture) perCall(t *testing.T, method, desc string) float64 {
	t.Helper()
	cls, err := f.client.NS.Resolve("AllocBench")
	if err != nil {
		t.Fatal(err)
	}
	m := cls.MethodBySig(method, desc)
	const n = 200
	args := []vmkit.Value{vmkit.IntVal(n)}
	return testing.AllocsPerRun(20, func() {
		if _, err := f.k.VM.Call(f.task.Thread, m, args); err != nil {
			t.Fatal(err)
		}
	}) / n
}

func TestAllocsVMNullLRMI(t *testing.T) {
	f := newAllocFixture(t)
	if got := f.perCall(t, "null", "(I)V"); got > 0 {
		t.Errorf("VM null LRMI through a generated stub: %.2f allocs/call, want 0", got)
	}
}

func TestAllocsVM3IntLRMI(t *testing.T) {
	f := newAllocFixture(t)
	if got := f.perCall(t, "add", "(I)I"); got > 0 {
		t.Errorf("VM 3-int LRMI through a generated stub: %.2f allocs/call, want 0", got)
	}
}

// Task.CallStatic resolves its reference in place: the descriptor is
// checked, not split into a parameter list (3 allocations for (IIII)I and
// 1 for (I)V while it was).
func TestAllocsTaskCallStatic(t *testing.T) {
	f := newAllocFixture(t)
	for _, c := range []struct {
		ref  string
		args []vmkit.Value
	}{
		{"AllocBench.null:(I)V", []vmkit.Value{vmkit.IntVal(1)}},
		{"AllocBench.sum4:(IIII)I", []vmkit.Value{vmkit.IntVal(1), vmkit.IntVal(2), vmkit.IntVal(3), vmkit.IntVal(4)}},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := f.task.CallStatic(c.ref, c.args...); err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("Task.CallStatic(%q): %.2f allocs/call, want 0", c.ref, got)
		}
	}
}

type allocNop struct{}

func (allocNop) Nop() error                    { return nil }
func (allocNop) Mul(a, b int64) (int64, error) { return a * b, nil }

// The null LRMI, func() error, calls its bound method value directly.
func TestAllocsNativeNullLRMI(t *testing.T) {
	f := newAllocFixture(t)
	cap, err := f.k.CreateNativeCapability(f.server, allocNop{})
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if _, err := cap.InvokeFrom(f.task, "Nop"); err != nil {
			t.Fatal(err)
		}
	}
	// The one left is reflect's: calling the target's method value
	// (reflect.methodReceiver), 8 B. The crossing itself allocates nothing.
	if got := testing.AllocsPerRun(200, call); got > 1 {
		t.Errorf("native null LRMI via InvokeFrom: %.2f allocs/call, want at most 1", got)
	}
	if got := bytesPerRun(200, call); got > 8 {
		t.Errorf("native null LRMI via InvokeFrom: %d B/call, want at most 8", got)
	}
}

// Every other native method goes through reflect with the receiver first:
// its call, the int64 result's box, the result vector and the vector's
// one slot.
func TestAllocsNativeInt64LRMI(t *testing.T) {
	f := newAllocFixture(t)
	cap, err := f.k.CreateNativeCapability(f.server, allocNop{})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := cap.InvokeFrom(f.task, "Mul", int64(6), int64(7)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("native func(int64, int64) (int64, error) via InvokeFrom: %.2f allocs/call, want at most 4", got)
	}
}

// bytesPerRun reports the bytes one call of fn allocates, rounded down as
// testing.AllocsPerRun rounds: the least of three measurements at one P,
// since a background allocation can only add to one.
func bytesPerRun(runs uint64, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	least := uint64(math.MaxUint64)
	var m runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&m)
		least = min(least, (m.TotalAlloc-before)/runs)
	}
	return least
}

// argMsgS and argMsgF are lrmi_copy's native argument: a 1 KiB struct,
// registered for serialization and left to fast copy.
type argMsgS struct {
	Seq  int64
	Data []byte
}

type argMsgF struct {
	Seq  int64
	Data []byte
}

type argSvc struct{}

func (argSvc) SumS(m argMsgS) (int64, error) { return m.Seq + int64(len(m.Data)), nil }
func (argSvc) SumF(m argMsgF) (int64, error) { return m.Seq + int64(len(m.Data)), nil }

// A local native LRMI with one struct argument: the argument vector stays
// on the caller's stack, and a serialized copy streams through pooled
// scratch.
//
// Each measures 6: the copied struct's slot and its bytes (2), the slot
// going to reflect's Call as it is; reflect's call, its result vector and
// the slots of the method's two results (3); the results slice (1). They
// measured 7 while the copy came back boxed in an any (a third allocation
// for the struct), 11 by serialization and 8 by fast copy while the
// caller's argument vector escaped to the heap and each serialized copy
// grew a fresh stream.
func TestAllocsNativeArgLRMI(t *testing.T) {
	f := newAllocFixture(t)
	f.k.RegisterSerializable("core.argMsgS", argMsgS{})
	cap, err := f.k.CreateNativeCapability(f.server, argSvc{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	for _, c := range []struct {
		method  string
		arg     any
		ceiling float64
	}{
		{"SumS", argMsgS{Seq: 1, Data: data}, 6},
		{"SumF", argMsgF{Seq: 1, Data: data}, 6},
	} {
		got := testing.AllocsPerRun(200, func() {
			out, err := cap.InvokeFrom(f.task, c.method, c.arg)
			if err != nil || out[0] != int64(1+len(data)) {
				t.Fatalf("%s: %v %v", c.method, out, err)
			}
		})
		t.Logf("%s: %.2f allocs/call", c.method, got)
		if got > c.ceiling {
			t.Errorf("native LRMI %s with a 1 KiB struct: %.2f allocs/call, want at most %.0f", c.method, got, c.ceiling)
		}
	}
}

// nopProxy is a transport that answers every call at once, with nothing.
type nopProxy struct{}

func (nopProxy) InvokeProxy(ProxyCall) ([]any, int64, uint64, error) { return nil, 0, 0, nil }
func (nopProxy) CancelProxy(uint64)                                  {}
func (nopProxy) ProxyMethods() []string                              { return nil }

// A call through a proxy gate with one argument: the one allocation is the
// vector the transport gets, copied at the proxy's boundary, where before
// the caller's own vector escaped to the heap to be handed over.
func TestAllocsProxyArgLRMI(t *testing.T) {
	f := newAllocFixture(t)
	cap, err := f.k.CreateProxyCapability(f.server, nopProxy{})
	if err != nil {
		t.Fatal(err)
	}
	var arg any = &argMsgF{Seq: 1}
	got := testing.AllocsPerRun(200, func() {
		if _, err := cap.InvokeFrom(f.task, "Sum", arg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocs/call", got)
	if got > 1 {
		t.Errorf("proxy LRMI with one argument: %.2f allocs/call, want at most 1", got)
	}
}
