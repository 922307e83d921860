package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"jkernel/internal/vmkit"
)

// mustAsm assembles source to class bytes.
func mustAsm(t *testing.T, src string) []byte {
	t.Helper()
	b, err := vmkit.AssembleBytes(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	return b
}

const readFileIface = `
.class ReadFile interface implements jk/kernel/Remote
.method readByte (I)I
.end
.method readBytes (I)[B
.end
.method fill ([B)V
.end
.method echo (Ljk/kernel/Capability;)Ljk/kernel/Capability;
.end
.method reject (Ljk/lang/Object;)I
.end
`

const readFileImpl = `
.class ReadFileImpl implements ReadFile
.field base I
.method readByte (I)I
  load 0
  getfield ReadFileImpl.base:I
  load 1
  iadd
  retv
.end
.method readBytes (I)[B
  load 1
  newarr "[B"
  retv
.end
.method fill ([B)V
  load 1
  iconst 0
  iconst 9
  astore
  ret
.end
.method echo (Ljk/kernel/Capability;)Ljk/kernel/Capability;
  load 1
  retv
.end
.method reject (Ljk/lang/Object;)I
  iconst 1
  retv
.end
`

const clientSrc = `
.class Client
.method static run ()I
  sconst "files"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast ReadFile
  store 0
  load 0
  iconst 3
  invokeinterface ReadFile.readByte:(I)I
  retv
.end
.method static callCaught ()I
try:
  invokestatic Client.run:()I
  retv
end:
revoked:
  pop
  iconst -1
  retv
terminated:
  pop
  iconst -2
  retv
  .catch jk/kernel/RevokedException from try to end using revoked
  .catch jk/kernel/DomainTerminatedException from try to end using terminated
.end
.method static copySemantics ()I
  ; arr = [1]; cap.fill(arr); return arr[0]  (must stay 1: callee got a copy)
  iconst 1
  newarr "[B"
  store 0
  load 0
  iconst 0
  iconst 1
  astore
  sconst "files"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast ReadFile
  load 0
  invokeinterface ReadFile.fill:([B)V
  load 0
  iconst 0
  aload
  retv
.end
.method static capIdentity ()I
  ; echo(cap) must return the identical stub reference
  sconst "files"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  store 0
  load 0
  cast ReadFile
  load 0
  invokeinterface ReadFile.echo:(Ljk/kernel/Capability;)Ljk/kernel/Capability;
  load 0
  if_acmpeq same
  iconst 0
  retv
same:
  iconst 1
  retv
.end
.method static passLocalObject ()I
  ; passing a non-copyable object must raise RemoteException
try:
  sconst "files"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast ReadFile
  new Client
  invokeinterface ReadFile.reject:(Ljk/lang/Object;)I
  retv
end:
handler:
  pop
  iconst 42
  retv
  .catch jk/kernel/RemoteException from try to end using handler
.end
`

// newTwoDomains builds the standard fixture: d1 serves a ReadFile
// capability named "files"; d2 runs Client against it.
func newTwoDomains(t *testing.T) (*Kernel, *Domain, *Domain, *Capability) {
	t.Helper()
	k := MustNew(Options{})
	d1, err := k.NewDomain(DomainConfig{
		Name: "server",
		Classes: map[string][]byte{
			"ReadFile":     mustAsm(t, readFileIface),
			"ReadFileImpl": mustAsm(t, readFileImpl),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(d1, "ReadFile")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := k.NewDomain(DomainConfig{
		Name:    "client",
		Classes: map[string][]byte{"Client": mustAsm(t, clientSrc)},
		Shared:  []*SharedClass{sc},
	})
	if err != nil {
		t.Fatal(err)
	}

	task := k.NewTask(d1, "setup")
	defer task.Close()
	implClass, err := d1.NS.Resolve("ReadFileImpl")
	if err != nil {
		t.Fatal(err)
	}
	target, err := d1.NS.NewInstance(implClass)
	if err != nil {
		t.Fatal(err)
	}
	target.Fields[implClass.FieldByName("base").Slot] = vmkit.IntVal(100)
	cap, err := k.CreateVMCapability(d1, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("files", cap); err != nil {
		t.Fatal(err)
	}
	return k, d1, d2, cap
}

func clientCall(t *testing.T, k *Kernel, d *Domain, method string) (vmkit.Value, error) {
	t.Helper()
	task := k.NewTask(d, "client")
	defer task.Close()
	return task.CallStatic("Client." + method + ":()I")
}

func TestCrossDomainCallThroughGeneratedStub(t *testing.T) {
	k, _, d2, _ := newTwoDomains(t)
	v, err := clientCall(t, k, d2, "run")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v.I != 103 { // base 100 + arg 3
		t.Errorf("run = %d, want 103", v.I)
	}
}

const hostKindsSrc = `
.class Kinds
.method static i (I)I
  load 0
  retv
.end
.method static d (D)D
  load 0
  retv
.end
.method static o (Ljk/lang/Object;)I
  load 0
  ifnull isnull
  iconst 1
  retv
isnull:
  iconst 0
  retv
.end
`

// TestHostArgumentKinds: a slot carries no kind tag, so the boundaries
// that take arguments from Go check each on the half of its slot the
// parameter's kind leaves empty. Task.CallStatic refuses a reference for
// an I or D parameter and an integer for a reference one, and runs every
// right-kind argument, null included; an integer 0 for a reference is
// null, which no verified caller can tell apart. A stub's native, which
// VM.Invoke reaches without that check, throws ClassCastException for a
// reference in an I slot.
func TestHostArgumentKinds(t *testing.T) {
	k, _, client, cap := newTwoDomains(t)
	if _, err := client.DefineClass(mustAsm(t, hostKindsSrc)); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(client, "kinds")
	defer task.Close()
	s, err := client.NS.NewString("s")
	if err != nil {
		t.Fatal(err)
	}
	const o = "Kinds.o:(Ljk/lang/Object;)I"
	for _, c := range []struct {
		ref     string
		arg     vmkit.Value
		refused bool
		want    int64
	}{
		{"Kinds.i:(I)I", vmkit.RefVal(s), true, 0},
		{"Kinds.d:(D)D", vmkit.RefVal(s), true, 0},
		{o, vmkit.IntVal(5), true, 0},
		{"Kinds.i:(I)I", vmkit.IntVal(5), false, 5},
		{"Kinds.d:(D)D", vmkit.FloatVal(2.5), false, vmkit.FloatVal(2.5).I},
		{o, vmkit.RefVal(s), false, 1},
		{o, vmkit.Null(), false, 0},
		{o, vmkit.IntVal(0), false, 0},
	} {
		v, err := task.CallStatic(c.ref, c.arg)
		switch {
		case c.refused && (err == nil || !strings.Contains(err.Error(), "wrong kind")):
			t.Errorf("%s(%+v) = %+v, %v; want the wrong-kind error", c.ref, c.arg, v, err)
		case !c.refused && (err != nil || v != vmkit.IntVal(c.want)):
			t.Errorf("%s(%+v) = %+v, %v; want %d", c.ref, c.arg, v, err, c.want)
		}
	}

	m := cap.Stub.Class.MethodBySig("readByte", "(I)I")
	recv := vmkit.RefVal(cap.Stub)
	if _, thrown := k.VM.Invoke(task.Thread, m, []vmkit.Value{recv, vmkit.RefVal(s)}); thrown == nil || thrown.Class.Name != vmkit.ClassCastEx {
		t.Errorf("readByte(a reference) through the stub threw %v, want %s", thrown, vmkit.ClassCastEx)
	}
	if v, thrown := k.VM.Invoke(task.Thread, m, []vmkit.Value{recv, vmkit.IntVal(3)}); thrown != nil || v.I != 103 {
		t.Errorf("readByte(3) through the stub = %d, %v; want 103", v.I, thrown)
	}
}

func TestArgumentsAreCopiedNotShared(t *testing.T) {
	k, _, d2, _ := newTwoDomains(t)
	v, err := clientCall(t, k, d2, "copySemantics")
	if err != nil {
		t.Fatalf("copySemantics: %v", err)
	}
	if v.I != 1 {
		t.Errorf("caller's array was mutated by callee (got %d, want 1): copy semantics broken", v.I)
	}
}

func TestCapabilityPassesByReference(t *testing.T) {
	k, _, d2, _ := newTwoDomains(t)
	v, err := clientCall(t, k, d2, "capIdentity")
	if err != nil {
		t.Fatalf("capIdentity: %v", err)
	}
	if v.I != 1 {
		t.Error("capability lost identity across domains; must pass by reference")
	}
}

func TestNonCopyableObjectRejected(t *testing.T) {
	k, _, d2, _ := newTwoDomains(t)
	v, err := clientCall(t, k, d2, "passLocalObject")
	if err != nil {
		t.Fatalf("passLocalObject: %v", err)
	}
	if v.I != 42 {
		t.Errorf("expected RemoteException path (42), got %d", v.I)
	}
}

func TestRevocationThrowsAndPropagates(t *testing.T) {
	k, _, d2, cap := newTwoDomains(t)
	if cap.Revoked() {
		t.Fatal("fresh capability reports revoked")
	}
	cap.Revoke()
	if !cap.Revoked() {
		t.Fatal("revoked capability reports live")
	}
	v, err := clientCall(t, k, d2, "callCaught")
	if err != nil {
		t.Fatalf("callCaught: %v", err)
	}
	if v.I != -1 {
		t.Errorf("expected RevokedException path (-1), got %d", v.I)
	}
}

func TestDomainTerminationRevokesAllCapabilities(t *testing.T) {
	k, d1, d2, cap := newTwoDomains(t)
	d1.Terminate("test shutdown")
	if !d1.Terminated() {
		t.Fatal("domain not terminated")
	}
	if !cap.Revoked() {
		t.Fatal("termination did not revoke created capability")
	}
	v, err := clientCall(t, k, d2, "callCaught")
	if err != nil {
		t.Fatalf("callCaught: %v", err)
	}
	if v.I != -2 {
		t.Errorf("expected DomainTerminatedException path (-2), got %d", v.I)
	}
	// A dead domain cannot load classes or create capabilities.
	if _, err := d1.DefineClass(mustAsm(t, ".class Late\n.method static f ()I\n iconst 1\n retv\n.end\n")); err == nil {
		t.Error("terminated domain accepted new classes")
	}
	if _, err := k.CreateVMCapability(d1, cap.Stub); err == nil {
		t.Error("terminated domain created a capability")
	}
}

func TestStubClassIsVerifiedBytecode(t *testing.T) {
	_, d1, _, cap := newTwoDomains(t)
	if cap.Stub == nil {
		t.Fatal("VM capability has no stub")
	}
	stubClass := cap.Stub.Class
	if !strings.HasPrefix(stubClass.Name, "jk/stub/ReadFileImpl$") {
		t.Errorf("stub class name = %s", stubClass.Name)
	}
	if stubClass.NS != d1.NS {
		t.Error("stub defined outside creating domain's namespace")
	}
	// The stub extends Capability and implements the remote interface.
	capClass := d1.K.VM.SystemClass(classCapability)
	if !stubClass.AssignableTo(capClass) {
		t.Error("stub does not extend Capability")
	}
	rf, _ := d1.NS.Resolve("ReadFile")
	if !stubClass.AssignableTo(rf) {
		t.Error("stub does not implement remote interface")
	}
}

func TestCreateRequiresRemoteInterface(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{
		Name: "d",
		Classes: map[string][]byte{
			"Plain": mustAsm(t, ".class Plain\n.method f ()I\n iconst 1\n retv\n.end\n"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := d.NS.Resolve("Plain")
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := d.NS.NewInstance(pc)
	if _, err := k.CreateVMCapability(d, obj); err != ErrNotRemote {
		t.Errorf("got %v, want ErrNotRemote", err)
	}
}

const serializableSrc = `
.class Msg implements jk/io/Serializable
.field value I
.field text Ljk/lang/String;
.field next LMsg;
`

const serialIface = `
.class Sink interface implements jk/kernel/Remote
.method consume (LMsg;)I
.end
`

const serialImpl = `
.class SinkImpl implements Sink
.method consume (LMsg;)I
  ; mutate the received copy, return value + text length
  load 1
  iconst 999
  putfield Msg.value:I
  load 1
  getfield Msg.text:Ljk/lang/String;
  invokevirtual jk/lang/String.length:()I
  retv
.end
`

const serialClient = `
.class SClient
.method static run ()I
  new Msg
  store 0
  load 0
  iconst 7
  putfield Msg.value:I
  load 0
  sconst "hello"
  putfield Msg.text:Ljk/lang/String;
  sconst "sink"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Sink
  load 0
  invokeinterface Sink.consume:(LMsg;)I
  ; callee mutated its copy to 999; ours must still be 7.
  load 0
  getfield Msg.value:I
  iadd
  retv
.end
`

func TestSerializablePathCopiesGraphs(t *testing.T) {
	k := MustNew(Options{})
	d1, err := k.NewDomain(DomainConfig{
		Name: "server",
		Classes: map[string][]byte{
			"Msg":      mustAsm(t, serializableSrc),
			"Sink":     mustAsm(t, serialIface),
			"SinkImpl": mustAsm(t, serialImpl),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(d1, "Sink", "Msg")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := k.NewDomain(DomainConfig{
		Name:    "client",
		Classes: map[string][]byte{"SClient": mustAsm(t, serialClient)},
		Shared:  []*SharedClass{sc},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := k.NewTask(d1, "setup")
	implClass, _ := d1.NS.Resolve("SinkImpl")
	target, _ := d1.NS.NewInstance(implClass)
	cap, err := k.CreateVMCapability(d1, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("sink", cap); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	task := k.NewTask(d2, "client")
	defer task.Close()
	v, err := task.CallStatic("SClient.run:()I")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// consume returns len("hello")=5, plus our unmutated 7.
	if v.I != 12 {
		t.Errorf("run = %d, want 12 (callee mutation leaked?)", v.I)
	}
}

func TestShareClassesRejectsStatics(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{
		Name: "d",
		Classes: map[string][]byte{
			"HasStatic": mustAsm(t, ".class HasStatic implements jk/kernel/Remote interface\n"),
			"Evil":      mustAsm(t, ".class Evil\n.field static leak I\n"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.ShareClasses(d, "Evil"); err == nil || !strings.Contains(err.Error(), "static field") {
		t.Errorf("static field not rejected: %v", err)
	}
}

func TestShareClassesClosureIncludesReferences(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{
		Name: "d",
		Classes: map[string][]byte{
			"Outer": mustAsm(t, ".class Outer\n.field in LInner;\n"),
			"Inner": mustAsm(t, ".class Inner\n.field x I\n"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(d, "Outer")
	if err != nil {
		t.Fatal(err)
	}
	names := sc.Names()
	if len(names) != 2 || names[0] != "Inner" || names[1] != "Outer" {
		t.Errorf("closure = %v, want [Inner Outer]", names)
	}
}

func TestAccountingChargesCrossCalls(t *testing.T) {
	k, d1, d2, _ := newTwoDomains(t)
	if _, err := clientCall(t, k, d2, "run"); err != nil {
		t.Fatal(err)
	}
	s2 := k.Meter.Snapshot(d2.ID)
	if s2.CrossCalls == 0 {
		t.Error("cross call not accounted to caller")
	}
	if s2.Steps == 0 {
		t.Error("interpreter steps not accounted")
	}
	s1 := k.Meter.Snapshot(d1.ID)
	if s1.ClassBytes == 0 {
		t.Error("class metadata not accounted to loading domain")
	}
}

// --- native-target capabilities ----------------------------------------

type calcService struct {
	calls int
}

func (c *calcService) Add(a, b int64) (int64, error) {
	c.calls++
	return a + b, nil
}

func (c *calcService) Scramble(data []byte) ([]byte, error) {
	for i := range data {
		data[i] ^= 0xff
	}
	return data, nil
}

func (c *calcService) Boom() error {
	panic("kaboom")
}

func (c *calcService) Echo(cap *Capability) (*Capability, error) {
	return cap, nil
}

func newNativePair(t *testing.T) (*Kernel, *Domain, *Domain, *Capability, *calcService) {
	t.Helper()
	k := MustNew(Options{})
	d1, err := k.NewDomain(DomainConfig{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := k.NewDomain(DomainConfig{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	svc := &calcService{}
	cap, err := k.CreateNativeCapability(d1, svc)
	if err != nil {
		t.Fatal(err)
	}
	return k, d1, d2, cap, svc
}

func TestNativeInvoke(t *testing.T) {
	k, _, d2, cap, svc := newNativePair(t)
	task := k.NewTask(d2, "t")
	defer task.Close()
	res, err := cap.Invoke("Add", int64(2), int64(40))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if len(res) != 1 || res[0].(int64) != 42 {
		t.Errorf("Add = %v", res)
	}
	if svc.calls != 1 {
		t.Errorf("calls = %d", svc.calls)
	}
	if _, err := cap.Invoke("NoSuch"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestNativeArgumentsCopied(t *testing.T) {
	k, _, d2, cap, _ := newNativePair(t)
	task := k.NewTask(d2, "t")
	defer task.Close()
	mine := []byte{1, 2, 3}
	res, err := cap.Invoke("Scramble", mine)
	if err != nil {
		t.Fatal(err)
	}
	if mine[0] != 1 {
		t.Error("callee mutated the caller's buffer: arguments must copy")
	}
	out := res[0].([]byte)
	if out[0] != 0xfe {
		t.Errorf("result = %v", out)
	}
	// The result is also a copy of the callee's buffer.
	out[0] = 7
	res2, _ := cap.Invoke("Scramble", mine)
	if res2[0].([]byte)[0] == 7 {
		t.Error("result aliases callee memory")
	}
}

// wireSink is a transport's result encoder: it sees the results as the
// callee returned them and reports a stream length.
type wireSink struct {
	got []any
	n   int64
}

func (w *wireSink) EncodeResults(results []any) int64 {
	w.got = results
	return w.n
}

// ServeWire is the transport's entry, InvokeFrom without the copies: the
// callee gets the very arguments the transport decoded, the encoder the
// very results the callee returned, and the crossing is charged the two
// stream lengths. Errors are copied out as ever, and encode nothing.
func TestServeWireHandsOverWithoutCopying(t *testing.T) {
	k, d1, d2, cap, _ := newNativePair(t)
	task := k.NewDetachedTask(d2, "transport")
	before := d2.Stats()

	decoded := []byte{1, 2, 3}
	sink := &wireSink{n: 40}
	if err := cap.ServeWire(task, "Scramble", []any{decoded}, 100, sink); err != nil {
		t.Fatal(err)
	}
	if decoded[0] != 0xfe {
		t.Error("the callee worked on a copy of the decoded argument")
	}
	if out, _ := sink.got[0].([]byte); len(out) != 3 || &out[0] != &decoded[0] {
		t.Errorf("the encoder was handed %v, not the callee's own result", sink.got)
	}
	after := d2.Stats()
	if after.CrossCalls-before.CrossCalls != 1 || after.CopyBytes-before.CopyBytes != 140 {
		t.Errorf("charged %d crossings and %d bytes, want 1 and 100+40",
			after.CrossCalls-before.CrossCalls, after.CopyBytes-before.CopyBytes)
	}

	// Every other method takes the same path: here a capability argument,
	// which crosses by reference.
	other, err := k.CreateNativeCapability(d1, &calcService{})
	if err != nil {
		t.Fatal(err)
	}
	sink = &wireSink{}
	if err := cap.ServeWire(task, "Echo", []any{other}, 8, sink); err != nil || sink.got[0] != any(other) {
		t.Errorf("Echo through ServeWire: %v, %v", sink.got, err)
	}

	sink = &wireSink{}
	err = cap.ServeWire(task, "Boom", nil, 0, sink)
	if re, ok := err.(*RemoteError); !ok || !strings.Contains(re.Msg, "kaboom") || sink.got != nil {
		t.Errorf("a panicking callee: err %v, encoded %v", err, sink.got)
	}
	if err := cap.ServeWire(task, "NoSuch", nil, 0, sink); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("unknown method: %v", err)
	}
}

func TestNativePanicIsolated(t *testing.T) {
	k, _, d2, cap, _ := newNativePair(t)
	task := k.NewTask(d2, "t")
	defer task.Close()
	_, err := cap.Invoke("Boom")
	re, ok := err.(*RemoteError)
	if !ok || !strings.Contains(re.Msg, "kaboom") {
		t.Fatalf("panic not isolated as RemoteError: %v", err)
	}
	// The kernel survives; later calls work.
	if _, err := cap.Invoke("Add", int64(1), int64(1)); err != nil {
		t.Errorf("kernel did not survive callee panic: %v", err)
	}
}

func TestNativeCapabilityPassByRef(t *testing.T) {
	k, d1, d2, cap, _ := newNativePair(t)
	other, err := k.CreateNativeCapability(d1, &calcService{})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(d2, "t")
	defer task.Close()
	res, err := cap.Invoke("Echo", other)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(*Capability) != other {
		t.Error("capability identity lost through native LRMI")
	}
}

func TestNativeRevocationAndTermination(t *testing.T) {
	k, d1, d2, cap, _ := newNativePair(t)
	task := k.NewTask(d2, "t")
	defer task.Close()
	cap.Revoke()
	if _, err := cap.Invoke("Add", int64(1), int64(1)); err != ErrRevoked {
		t.Errorf("got %v, want ErrRevoked", err)
	}
	cap2, _ := k.CreateNativeCapability(d1, &calcService{})
	d1.Terminate("bye")
	if _, err := cap2.Invoke("Add", int64(1), int64(1)); err != ErrDomainTerminated {
		t.Errorf("got %v, want ErrDomainTerminated", err)
	}
}

func TestNativeBindTypedStub(t *testing.T) {
	k, _, d2, cap, _ := newNativePair(t)
	task := k.NewTask(d2, "t")
	defer task.Close()
	var stub struct {
		Add      func(a, b int64) (int64, error)
		Scramble func([]byte) ([]byte, error)
	}
	if err := cap.Bind(&stub); err != nil {
		t.Fatal(err)
	}
	sum, err := stub.Add(20, 22)
	if err != nil || sum != 42 {
		t.Errorf("Add = %d, %v", sum, err)
	}
	out, err := stub.Scramble([]byte{0})
	if err != nil || out[0] != 0xff {
		t.Errorf("Scramble = %v, %v", out, err)
	}
}

func TestInvokeWithoutTaskFails(t *testing.T) {
	k, _, _, cap, _ := newNativePair(t)
	_ = k
	done := make(chan error, 1)
	go func() {
		_, err := cap.Invoke("Add", int64(1), int64(1))
		done <- err
	}()
	if err := <-done; err != ErrNotEntered {
		t.Errorf("got %v, want ErrNotEntered", err)
	}
}

// --- thread segments across LRMI ----------------------------------------

const threadedImpl = `
.class StopperImpl implements Stopper
.method selfStop ()I
  ; stop the *current segment* (the callee side), then keep running: the
  ; stop fires at the next safepoint inside the callee.
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  invokevirtual jk/lang/Thread.stop:()V
loop:
  jmp loop
.end
.method ping ()I
  iconst 1
  retv
.end
`

const threadedIface = `
.class Stopper interface implements jk/kernel/Remote
.method selfStop ()I
.end
.method ping ()I
.end
`

const threadedClient = `
.class TClient
.method static run ()I
try:
  sconst "stopper"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Stopper
  invokeinterface Stopper.selfStop:()I
  retv
end:
died:
  pop
  ; callee killed itself; caller continues and can still call ping
  sconst "stopper"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Stopper
  invokeinterface Stopper.ping:()I
  retv
  .catch jk/lang/ThreadDeath from try to end using died
.end
`

func TestCalleeSelfStopDoesNotKillCaller(t *testing.T) {
	k := MustNew(Options{})
	d1, err := k.NewDomain(DomainConfig{
		Name: "server",
		Classes: map[string][]byte{
			"Stopper":     mustAsm(t, threadedIface),
			"StopperImpl": mustAsm(t, threadedImpl),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(d1, "Stopper")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := k.NewDomain(DomainConfig{
		Name:    "client",
		Classes: map[string][]byte{"TClient": mustAsm(t, threadedClient)},
		Shared:  []*SharedClass{sc},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := k.NewTask(d1, "setup")
	implClass, _ := d1.NS.Resolve("StopperImpl")
	target, _ := d1.NS.NewInstance(implClass)
	cap, err := k.CreateVMCapability(d1, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("stopper", cap); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	task := k.NewTask(d2, "client")
	defer task.Close()
	done := make(chan struct{})
	var v vmkit.Value
	var callErr error
	go func() {
		defer close(done)
		v, callErr = k.VM.CallStatic(task.Thread, d2.NS, "TClient.run:()I")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("caller blocked: callee self-stop killed the carrier")
	}
	if callErr != nil {
		t.Fatalf("run: %v", callErr)
	}
	if v.I != 1 {
		t.Errorf("run = %d, want 1 (caller survived and pinged)", v.I)
	}
}

func TestSuspendedCallerSegmentParksOnReturn(t *testing.T) {
	k, _, d2, _ := newTwoDomains(t)
	task := k.NewTask(d2, "client")
	defer task.Close()

	done := make(chan error, 1)
	// Handles are minted on the carrier, which is this goroutine until
	// the call below starts.
	base := task.Chain.Current().Handle()
	go func() {
		// Suspend our own base segment, then call: the callee runs, and on
		// return the carrier parks until resumed.
		base.Suspend()
		_, err := k.VM.CallStatic(task.Thread, d2.NS, "Client.run:()I")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("call returned while caller segment suspended: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	base.Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("after resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("carrier never resumed")
	}
}
