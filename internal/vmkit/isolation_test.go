package vmkit

import (
	"errors"
	"strings"
	"testing"
)

// thrownBy returns the class and message of the throwable err carries.
func thrownBy(t *testing.T, err error) (class, msg string) {
	t.Helper()
	var te *ThrownError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want a thrown VM exception", err)
	}
	return te.Throwable.Class.Name, ThrowableMessage(te.Throwable)
}

// A length past MaxArrayBytes ends in jk/lang/Error, before any Go
// allocation is attempted: 2^62 bytes would panic in makeslice, and 2^33
// ints (64 GiB) would end the process.
func TestNewArrCeiling(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Big
.method static bytes (I)I
  load 0
  newarr "[B"
  arraylength
  retv
.end
.method static ints (I)I
  load 0
  newarr "[I"
  arraylength
  retv
.end
.method static refs (I)I
  load 0
  newarr "[Ljk/lang/Object;"
  arraylength
  retv
.end
`)
	th := vm.NewThread("big")
	defer vm.Detach(th)
	for _, c := range []struct {
		method, desc string
		max          int64
	}{
		{"bytes", "[B", MaxArrayBytes},
		{"ints", "[I", MaxArrayBytes / 8},
		{"refs", "[Ljk/lang/Object;", MaxArrayBytes / int64(valueBytes)},
	} {
		for _, n := range []int64{c.max + 1, 1 << 33, 1 << 62} {
			_, err := vm.CallStatic(th, ns, "Big."+c.method+":(I)I", IntVal(n))
			if class, msg := thrownBy(t, err); class != ClassError || !strings.Contains(msg, "exceeds") {
				t.Errorf("%s(%d): %s %q, want %s", c.method, n, class, msg, ClassError)
			}
			assertArenaIdle(t, th)
			if _, err := ns.NewArray(c.desc, int(n)); err == nil {
				t.Errorf("NewArray(%s, %d) succeeded", c.desc, n)
			}
		}
		if v, err := vm.CallStatic(th, ns, "Big."+c.method+":(I)I", IntVal(3)); err != nil || v.I != 3 {
			t.Errorf("%s(3) after the refusals = %v, %v", c.method, v, err)
		}
	}
}

// A Go panic beneath the VM's entry — here a native's, under a recursion,
// below a native that re-entered the VM — reaches bytecode as jk/lang/Error
// at the innermost entry, and leaves the carrier's arena idle.
func TestPanicBeneathEntryIsThrown(t *testing.T) {
	src := `
.class Boom
.method static native crash (I)I
.end
.method static native hop (I)I
.end
.method static deep (I)I
  load 0
  ifz bottom
  load 0
  iconst 1
  isub
  invokestatic Boom.deep:(I)I
  retv
bottom:
  iconst 0
  invokestatic Boom.crash:(I)I
  retv
.end
.method static caught (I)I
try:
  load 0
  invokestatic Boom.hop:(I)I
  retv
end:
handler:
  pop
  iconst -1
  retv
  .catch jk/lang/Error from try to end using handler
.end
`
	vm := MustNew(Profile{})
	var deep *Method
	var ns *Namespace
	vm.RegisterNative("Boom.crash:(I)I", func(*Env, *Object, []Value) (Value, *Object) {
		panic("native bug")
	})
	vm.RegisterNative("Boom.hop:(I)I", func(env *Env, _ *Object, args []Value) (Value, *Object) {
		v, th := env.VM.Invoke(env.Thread, deep, []Value{args[0]})
		if env.NS != ns {
			t.Errorf("hop: env.NS not restored after the panic")
		}
		return v, th
	})
	b, err := AssembleBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	ns = vm.NewNamespace("test", MapResolver(map[string][]byte{"Boom": b}, vm.BootResolver()))
	cls, err := ns.Resolve("Boom")
	if err != nil {
		t.Fatal(err)
	}
	deep = cls.MethodBySig("deep", "(I)I")
	th := vm.NewThread("boom")
	defer vm.Detach(th)

	_, err = vm.CallStatic(th, ns, "Boom.deep:(I)I", IntVal(100))
	if class, msg := thrownBy(t, err); class != ClassError || !strings.Contains(msg, "native bug") {
		t.Errorf("deep: %s %q, want %s naming the panic", class, msg, ClassError)
	}
	assertArenaIdle(t, th)
	if v, err := vm.CallStatic(th, ns, "Boom.caught:(I)I", IntVal(100)); err != nil || v.I != -1 {
		t.Errorf("caught = %v, %v; want -1", v, err)
	}
	assertArenaIdle(t, th)
}

// A and C refer to each other, so C verifies against A's shell while A is
// still linking. A is then rejected, and C must go with it: a call into C
// ends in a link error that names A's verify error, never in A's code.
func TestRejectedClassTakesItsCycleWithIt(t *testing.T) {
	vm, ns := newTestNS(t, `
.class P
.field private static secret I
`, `
.class A
.method static broken ()I
  getstatic P.secret:I
  retv
.end
.method static viaC ()I
  invokestatic C.go:()I
  retv
.end
`, `
.class C
.method static go ()I
  invokestatic A.broken:()I
  retv
.end
`)
	p, err := ns.Resolve("P")
	if err != nil {
		t.Fatal(err)
	}
	p.Statics[p.FieldByName("secret").Slot] = IntVal(42)
	const verifyErr = "private field P.secret not accessible from A"
	if _, err := ns.Resolve("A"); err == nil || !strings.Contains(err.Error(), verifyErr) {
		t.Fatalf("Resolve(A) = %v, want the verify error %q", err, verifyErr)
	}
	if c := ns.Lookup("C"); c != nil {
		t.Errorf("C stayed published after A, which it verified against, was rejected")
	}
	err = callStaticErr(t, vm, ns, "C.go:()I")
	if err == nil || !strings.Contains(err.Error(), "verify A") || !strings.Contains(err.Error(), verifyErr) {
		t.Fatalf("C.go = %v, want a link error naming A's verify error", err)
	}
}
