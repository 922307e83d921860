package vmkit

import (
	"strings"
	"testing"
)

// newTestNS builds a product VM (the zero Profile) and a user namespace
// that sees the bootstrap classes plus the given assembled sources.
func newTestNS(t *testing.T, sources ...string) (*VM, *Namespace) {
	t.Helper()
	vm := MustNew(Profile{})
	classes := map[string][]byte{}
	for _, src := range sources {
		b, err := AssembleBytes(src)
		if err != nil {
			t.Fatalf("assemble: %v\nsource:\n%s", err, src)
		}
		def, err := DecodeClass(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		classes[def.Name] = b
	}
	ns := vm.NewNamespace("test", MapResolver(classes, vm.BootResolver()))
	return vm, ns
}

func callStatic(t *testing.T, vm *VM, ns *Namespace, ref string, args ...Value) Value {
	t.Helper()
	th := vm.NewThread("test")
	defer vm.Detach(th)
	v, err := vm.CallStatic(th, ns, ref, args...)
	if err != nil {
		t.Fatalf("CallStatic %s: %v", ref, err)
	}
	return v
}

func callStaticErr(t *testing.T, vm *VM, ns *Namespace, ref string, args ...Value) error {
	t.Helper()
	th := vm.NewThread("test")
	defer vm.Detach(th)
	_, err := vm.CallStatic(th, ns, ref, args...)
	return err
}

func TestArithmeticAndControlFlow(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Calc
.method static fib (I)I
  ; iterative fibonacci: a=0 b=1, n times: a,b = b,a+b
  iconst 0
  store 1
  iconst 1
  store 2
loop:
  load 0
  ifz done
  load 2
  load 1
  load 2
  iadd
  store 2
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
.method static mix (II)I
  load 0
  load 1
  iand
  load 0
  load 1
  ior
  ixor
  retv
.end
`)
	if got := callStatic(t, vm, ns, "Calc.fib:(I)I", IntVal(10)); got.I != 55 {
		t.Errorf("fib(10) = %d, want 55", got.I)
	}
	if got := callStatic(t, vm, ns, "Calc.fib:(I)I", IntVal(0)); got.I != 0 {
		t.Errorf("fib(0) = %d, want 0", got.I)
	}
	// a&b ^ (a|b) == a^b
	if got := callStatic(t, vm, ns, "Calc.mix:(II)I", IntVal(0b1100), IntVal(0b1010)); got.I != 0b0110 {
		t.Errorf("mix = %b, want 110", got.I)
	}
}

func TestObjectsFieldsAndVirtualDispatch(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Shape
.field name Ljk/lang/String;
.method area ()I
  iconst 0
  retv
.end
`, `
.class Square super Shape
.field side I
.method area ()I
  load 0
  getfield Square.side:I
  load 0
  getfield Square.side:I
  imul
  retv
.end
.method static make (I)LSquare;
  new Square
  dup
  load 0
  putfield Square.side:I
  retv
.end
.method static areaOf (LShape;)I
  load 0
  invokevirtual Shape.area:()I
  retv
.end
`)
	sq := callStatic(t, vm, ns, "Square.make:(I)LSquare;", IntVal(7))
	if sq.R == nil || sq.R.Class.Name != "Square" {
		t.Fatalf("make(7) returned %v", sq)
	}
	// Virtual dispatch through the Shape-typed parameter must hit
	// Square.area.
	if got := callStatic(t, vm, ns, "Square.areaOf:(LShape;)I", sq); got.I != 49 {
		t.Errorf("areaOf(square(7)) = %d, want 49", got.I)
	}
}

func TestInterfaceDispatchBothProfiles(t *testing.T) {
	src1 := `
.class Speaker interface
.method speak ()I
.end
`
	src2 := `
.class Dog implements Speaker
.method speak ()I
  iconst 42
  retv
.end
.method static test (LSpeaker;)I
  load 0
  invokeinterface Speaker.speak:()I
  retv
.end
.method static makeAndTest ()I
  new Dog
  invokestatic Dog.test:(LSpeaker;)I
  retv
.end
`
	for _, p := range []Profile{{}, ProfileA, ProfileB} {
		vm := MustNew(p)
		classes := map[string][]byte{}
		for _, src := range []string{src1, src2} {
			b, err := AssembleBytes(src)
			if err != nil {
				t.Fatal(err)
			}
			def, _ := DecodeClass(b)
			classes[def.Name] = b
		}
		ns := vm.NewNamespace("test", MapResolver(classes, vm.BootResolver()))
		th := vm.NewThread("t")
		v, err := vm.CallStatic(th, ns, "Dog.makeAndTest:()I")
		vm.Detach(th)
		if err != nil {
			t.Fatalf("profile %+v: %v", p, err)
		}
		if v.I != 42 {
			t.Errorf("profile %+v: got %d, want 42", p, v.I)
		}
	}
}

func TestExceptionsThrowCatchUnwind(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Thrower
.method static boom ()I
  new jk/lang/RuntimeException
  throw
.end
.method static catchIt ()I
try:
  invokestatic Thrower.boom:()I
  retv
end:
handler:
  pop
  iconst 99
  retv
  .catch jk/lang/RuntimeException from try to end using handler
.end
.method static missIt ()I
try:
  invokestatic Thrower.boom:()I
  retv
end:
handler:
  pop
  iconst 1
  retv
  .catch jk/lang/Error from try to end using handler
.end
.method static divZero (I)I
try:
  iconst 100
  load 0
  idiv
  retv
end:
handler:
  pop
  iconst -1
  retv
  .catch jk/lang/ArithmeticException from try to end using handler
.end
`)
	if got := callStatic(t, vm, ns, "Thrower.catchIt:()I"); got.I != 99 {
		t.Errorf("catchIt = %d, want 99", got.I)
	}
	// Handler of unrelated type must not catch; error surfaces to Go.
	err := callStaticErr(t, vm, ns, "Thrower.missIt:()I")
	if err == nil {
		t.Fatal("missIt: expected uncaught exception")
	}
	te, ok := err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassRuntimeEx {
		t.Errorf("missIt: got %v, want RuntimeException", err)
	}
	if got := callStatic(t, vm, ns, "Thrower.divZero:(I)I", IntVal(4)); got.I != 25 {
		t.Errorf("divZero(4) = %d, want 25", got.I)
	}
	if got := callStatic(t, vm, ns, "Thrower.divZero:(I)I", IntVal(0)); got.I != -1 {
		t.Errorf("divZero(0) = %d, want -1 (caught)", got.I)
	}
}

func TestNullPointerAndCastChecks(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Deref
.method static poke (LDeref;)I
  load 0
  getfield Deref.x:I
  retv
.end
.field x I
.method static badCast (Ljk/lang/Object;)Ljk/lang/String;
  load 0
  cast jk/lang/String
  retv
.end
`)
	err := callStaticErr(t, vm, ns, "Deref.poke:(LDeref;)I", Null())
	te, ok := err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassNullPointerEx {
		t.Errorf("poke(null): got %v, want NullPointerException", err)
	}
	obj, err2 := ns.NewInstance(ns.Lookup("Deref"))
	if err2 != nil {
		t.Fatal(err2)
	}
	err = callStaticErr(t, vm, ns, "Deref.badCast:(Ljk/lang/Object;)Ljk/lang/String;", RefVal(obj))
	te, ok = err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassCastEx {
		t.Errorf("badCast: got %v, want ClassCastException", err)
	}
	// null casts succeed
	v := callStatic(t, vm, ns, "Deref.badCast:(Ljk/lang/Object;)Ljk/lang/String;", Null())
	if v != Null() {
		t.Errorf("badCast(null) = %v, want null", v)
	}
}

func TestArraysAndBounds(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Arr
.method static sum ([I)I
  iconst 0
  store 1
  iconst 0
  store 2
loop:
  load 2
  load 0
  arraylength
  if_ge done
  load 1
  load 0
  load 2
  aload
  iadd
  store 1
  load 2
  iconst 1
  iadd
  store 2
  jmp loop
done:
  load 1
  retv
.end
.method static oob ([B)I
  load 0
  iconst 100
  aload
  retv
.end
.method static makeBytes (I)[B
  load 0
  newarr "[B"
  retv
.end
`)
	arr, err := ns.NewArray("[I", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr.Len() {
		arr.SetWord(i, int64(i+1))
	}
	if got := callStatic(t, vm, ns, "Arr.sum:([I)I", RefVal(arr)); got.I != 15 {
		t.Errorf("sum = %d, want 15", got.I)
	}
	b := callStatic(t, vm, ns, "Arr.makeBytes:(I)[B", IntVal(8))
	if b.R == nil || len(b.R.Bytes) != 8 {
		t.Errorf("makeBytes(8) = %v", b)
	}
	err = callStaticErr(t, vm, ns, "Arr.oob:([B)I", b)
	te, ok := err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassIndexEx {
		t.Errorf("oob: got %v, want IndexOutOfBoundsException", err)
	}
	err = callStaticErr(t, vm, ns, "Arr.makeBytes:(I)[B", IntVal(-1))
	te, ok = err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassNegArraySizeEx {
		t.Errorf("makeBytes(-1): got %v, want NegativeArraySizeException", err)
	}
}

func TestStringsAndNatives(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Str
.method static greet (Ljk/lang/String;)Ljk/lang/String;
  sconst "hello, "
  load 0
  invokevirtual jk/lang/String.concat:(Ljk/lang/String;)Ljk/lang/String;
  retv
.end
.method static literalLen ()I
  sconst "abcde"
  invokevirtual jk/lang/String.length:()I
  retv
.end
.method static internSame ()I
  sconst "x1"
  sconst "x1"
  if_acmpeq same
  iconst 0
  retv
same:
  iconst 1
  retv
.end
`)
	name, err := ns.NewString("world")
	if err != nil {
		t.Fatal(err)
	}
	got := callStatic(t, vm, ns, "Str.greet:(Ljk/lang/String;)Ljk/lang/String;", RefVal(name))
	if text := StringText(got.R); text != "hello, world" {
		t.Errorf("greet = %q", text)
	}
	if got := callStatic(t, vm, ns, "Str.literalLen:()I"); got.I != 5 {
		t.Errorf("literalLen = %d", got.I)
	}
	if got := callStatic(t, vm, ns, "Str.internSame:()I"); got.I != 1 {
		t.Errorf("interned literals not identical")
	}
}

func TestVerifierRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"stack underflow", `
.class Bad
.method static f ()I
  iadd
  retv
.end
`, "underflow"},
		{"type confusion int as ref", `
.class Bad
.method static f ()I
  iconst 5
  getfield Bad.x:I
  retv
.end
.field x I
`, "expected ref"},
		{"forged pointer via load", `
.class Bad
.method static f ()Ljk/lang/Object;
  iconst 1234
  store 0
  load 0
  retv
.end
`, "expected ref"},
		{"uninitialized local", `
.class Bad
.method static f ()I
  load 0
  retv
.end
`, "uninitialized"},
		{"bad branch target", `
.class Bad
.method static f ()I
  iconst 0
  ifz missing
  iconst 1
  retv
.end
`, "undefined label"},
		{"fall off end", `
.class Bad
.method static f ()I
  iconst 1
.end
`, "invalid pc"},
		{"void mismatch", `
.class Bad
.method static f ()V
  iconst 1
  retv
.end
`, "retv in void"},
		{"private field foreign access", `
.class Bad
.method static f (Ljk/lang/String;)[B
  load 0
  getfield jk/lang/String.bytes:[B
  retv
.end
`, "private field"},
		{"join states past the slot bound", `
.class Bad
.method static f ()V
  iconst 0
  store 60
  jmp a
a:
  jmp b
b:
  ret
.end
`, "join states take 183 slots, past the bound of 144"},
		{"negative local index", `
.class Bad
.method static f ()I
  iconst 1
  store -1
  iconst 0
  retv
.end
`, "local -1 is outside"},
		{"merge height mismatch", `
.class Bad
.method static f (I)I
  load 0
  ifz b
  iconst 1
  iconst 2
  jmp join
b:
  iconst 1
join:
  retv
.end
`, "height mismatch"},
		{"local changes kind across a loop back edge", `
.class Bad
.method static f ()I
  iconst 0
  store 0
loop:
  load 0
  ifz done
  aconst_null
  store 0
  jmp loop
done:
  iconst 0
  retv
.end
`, "uninitialized"},
		{"handler sees a local a covered instruction overwrites", `
.class Bad
.method static f ()I
  iconst 1
  store 0
try:
  aconst_null
  store 0
  iconst 0
  retv
end:
handler:
  pop
  load 0
  retv
  .catch jk/lang/Throwable from try to end using handler
.end
`, "uninitialized"},
		{"fall-through into a handler with an empty stack", `
.class Bad
.method static f ()I
try:
  iconst 1
  pop
end:
handler:
  pop
  iconst 0
  retv
  .catch jk/lang/Throwable from try to end using handler
.end
`, "height mismatch"},
		{"fall-through into a handler with an int on the stack", `
.class Bad
.method static f ()I
try:
  iconst 1
end:
handler:
  pop
  iconst 0
  retv
  .catch jk/lang/Throwable from try to end using handler
.end
`, "irreconcilable stack types"},
		{"reachable branch past the code", `
.class Bad
.method static f (I)I
  load 0
  ifz out
  iconst 1
  retv
out:
.end
`, "invalid pc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vm := MustNew(ProfileA)
			b, err := AssembleBytes(tc.src)
			if err == nil {
				ns := vm.NewNamespace("test", vm.BootResolver())
				_, err = ns.DefineClass(b)
			}
			if err == nil {
				t.Fatalf("expected verification error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestVerifierAcceptances(t *testing.T) {
	cases := []struct{ name, src string }{
		{"counted loop", `
.class Good
.method static f (I)I
  iconst 0
  store 1
loop:
  load 0
  ifz done
  load 1
  load 0
  iadd
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
`},
		{"loop widens a local to a common superclass", `
.class Good
.method static f (I)Ljk/lang/Object;
  aconst_null
  store 1
loop:
  load 0
  ifz done
  sconst "s"
  store 1
  new jk/lang/Object
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
`},
		{"handler reads a local its try block keeps", `
.class Good
.method static f (Ljk/lang/Object;)I
  iconst 7
  store 1
try:
  load 0
  monitorenter
  load 0
  monitorexit
  iconst 1
  store 1
end:
  load 1
  retv
handler:
  pop
  load 1
  retv
  .catch jk/lang/Throwable from try to end using handler
.end
`},
		{"handler loops back into its try block", `
.class Good
.method static f (I)I
try:
  load 0
  ifz done
  iconst 1
  load 0
  idiv
  pop
  iconst 0
  store 0
  jmp try
done:
  iconst 0
  retv
end:
handler:
  pop
  iconst 0
  store 0
  jmp try
  .catch jk/lang/ArithmeticException from try to end using handler
.end
`},
		{"unreachable branch past the code", `
.class Good
.method static f ()I
  iconst 1
  retv
  jmp out
out:
.end
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vm := MustNew(ProfileA)
			b, err := AssembleBytes(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.NewNamespace("test", vm.BootResolver()).DefineClass(b); err != nil {
				t.Errorf("rejected: %v", err)
			}
		})
	}
}

func TestClassFileRoundTrip(t *testing.T) {
	src := `
.class RT super jk/lang/Throwable implements jk/io/FastCopy
.field a I
.field private b D
.field static private c Ljk/lang/String;
.method static f (ID[B)Ljk/lang/String;
  sconst "x"
  retv
.end
.method synchronized g ()V
try:
  ret
end:
h:
  pop
  ret
  .catch jk/lang/Exception from try to end using h
.end
`
	def, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeClass(def)
	dec, err := DecodeClass(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2 := EncodeClass(dec)
	if string(enc) != string(enc2) {
		t.Error("encode-decode-encode is not stable")
	}
	// Disassemble and reassemble must produce the same encoding.
	re, err := Assemble(Disassemble(dec))
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, Disassemble(dec))
	}
	if string(EncodeClass(re)) != string(enc) {
		t.Error("disassemble/assemble round trip changed the class")
	}
	// A frame the source declares is read and dropped.
	declared, err := Assemble(strings.Replace(src, "(ID[B)Ljk/lang/String;", "(ID[B)Ljk/lang/String; stack 4 locals 2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(EncodeClass(declared)) != string(enc) {
		t.Error("a declared stack and locals changed the class")
	}
}

func TestDecodeRejectsCorruptData(t *testing.T) {
	src := `
.class C
.method static f ()I
  iconst 7
  retv
.end
`
	good, err := AssembleBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeClass(nil); err == nil {
		t.Error("nil data accepted")
	}
	if _, err := DecodeClass(good[:len(good)-3]); err == nil {
		t.Error("truncated data accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := DecodeClass(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// The format that declared a frame is not misread as this one.
	copy(bad, "JKC1")
	if _, err := DecodeClass(bad); err == nil || !strings.Contains(err.Error(), "bad class magic") {
		t.Errorf("JKC1 class: got %v, want a bad magic", err)
	}
}

func TestNamespaceIsolationSameClassName(t *testing.T) {
	// Two namespaces each define a class named "Secret"; the classes are
	// distinct and casting across them fails.
	vm := MustNew(ProfileA)
	src := `
.class Secret
.field x I
.method static make ()LSecret;
  new Secret
  retv
.end
`
	b, err := AssembleBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	ns1 := vm.NewNamespace("d1", MapResolver(map[string][]byte{"Secret": b}, vm.BootResolver()))
	ns2 := vm.NewNamespace("d2", MapResolver(map[string][]byte{"Secret": b}, vm.BootResolver()))
	c1, err := ns1.Resolve("Secret")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ns2.Resolve("Secret")
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("same *Class bound in both namespaces; expected distinct classes")
	}
	o1, _ := ns1.NewInstance(c1)
	if o1.Class.AssignableTo(c2) {
		t.Error("instance of d1.Secret assignable to d2.Secret")
	}
}

func TestMonitorsRecursiveAndOwnerChecked(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Mon
.method static locked (Ljk/lang/Object;)I
  load 0
  monitorenter
  load 0
  monitorenter
  load 0
  monitorexit
  load 0
  monitorexit
  iconst 1
  retv
.end
.method static badExit (Ljk/lang/Object;)I
  load 0
  monitorexit
  iconst 1
  retv
.end
`)
	monClass, err := ns.Resolve("Mon")
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := ns.NewInstance(monClass)
	if got := callStatic(t, vm, ns, "Mon.locked:(Ljk/lang/Object;)I", RefVal(obj)); got.I != 1 {
		t.Errorf("locked = %d", got.I)
	}
	if obj.MonitorOwner() != nil {
		t.Error("monitor still owned after balanced exit")
	}
	err = callStaticErr(t, vm, ns, "Mon.badExit:(Ljk/lang/Object;)I", RefVal(obj))
	te, ok := err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassIllegalStateEx {
		t.Errorf("badExit: got %v, want IllegalStateException", err)
	}
}

func TestThreadStopInjectsAtSafepoint(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Spin
.method static forever ()I
loop:
  jmp loop
.end
`)
	th := vm.NewThread("spinner")
	defer vm.Detach(th)
	hookDeath(vm, th)
	done := make(chan error, 1)
	go func() {
		_, err := vm.CallStatic(th, ns, "Spin.forever:()I")
		done <- err
	}()
	th.Attention().Store(1)
	err := <-done
	te, ok := err.(*ThrownError)
	if !ok || te.Throwable.Class.Name != ClassThreadDeath {
		t.Fatalf("got %v, want ThreadDeath", err)
	}
}

func TestSystemOutputPerNamespace(t *testing.T) {
	vm := MustNew(ProfileA)
	src := InterposedClassSource(ClassSystem)
	b, err := AssembleBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	ns := vm.NewNamespace("d", MapResolver(map[string][]byte{ClassSystem: b}, vm.BootResolver()))
	ns.Output = &buf
	user := `
.class Hello
.method static main ()V
  sconst "hi there"
  invokestatic jk/lang/System.println:(Ljk/lang/String;)V
  ret
.end
`
	ub, err := AssembleBytes(user)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.DefineClass(ub); err != nil {
		t.Fatal(err)
	}
	th := vm.NewThread("main")
	defer vm.Detach(th)
	if _, err := vm.CallStatic(th, ns, "Hello.main:()V"); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "hi there\n" {
		t.Errorf("output = %q", got)
	}
}

// InstanceFields lists a class's instance fields, a shadowed one
// included, in slot order; statics are not among them.
func TestInstanceFieldsInSlotOrder(t *testing.T) {
	_, ns := newTestNS(t,
		".class Base\n.field a I\n.field static s I\n.field x D\n",
		".class Sub super Base\n.field z [B\n.field x I\n.field b LBase;\n")
	sub, err := ns.Resolve("Sub")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, f := range sub.InstanceFields() {
		if f.Slot != i || f.Static {
			t.Errorf("InstanceFields()[%d] is %s, slot %d", i, f.Name, f.Slot)
		}
		got = append(got, f.Owner.Name+"."+f.Name+":"+f.Desc)
	}
	want := "[Base.a:I Base.x:D Sub.z:[B Sub.x:I Sub.b:LBase;]"
	if "["+strings.Join(got, " ")+"]" != want || len(got) != sub.NumInstanceSlots() {
		t.Errorf("InstanceFields = %v, want %s", got, want)
	}
}
