package core

import (
	"errors"
	"strings"
	"testing"

	"jkernel/internal/vmkit"
)

// A hostile callee ends in an exception, never in a crash of its caller:
// a newarr past vmkit.MaxArrayBytes and a Go panic beneath the callee both
// reach the caller as jk/lang/Error, through a bytecode LRMI and through
// InvokeVM, and the carrier serves its next call.

const hostileIface = `
.class Hostile interface implements jk/kernel/Remote
.method giant ()[B
.end
.method ints (I)I
.end
.method boom ()I
.end
.method ok ()I
.end
`

const hostileImpl = `
.class HostileImpl implements Hostile
.method giant ()[B
  iconst 4611686018427387904
  newarr "[B"
  retv
.end
.method ints (I)I
  load 1
  newarr "[I"
  arraylength
  retv
.end
.method native boom ()I
.end
.method ok ()I
  iconst 7
  retv
.end
`

const hostileClient = `
.class Client
.method static hostile ()LHostile;
  sconst "hostile"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Hostile
  retv
.end
.method static giant ()I
  invokestatic Client.hostile:()LHostile;
  invokeinterface Hostile.giant:()[B
  arraylength
  retv
.end
.method static boom ()I
  invokestatic Client.hostile:()LHostile;
  invokeinterface Hostile.boom:()I
  retv
.end
.method static caught ()I
try:
  invokestatic Client.boom:()I
  retv
end:
handler:
  pop
  iconst -1
  retv
  .catch jk/lang/Error from try to end using handler
.end
.method static ok ()I
  invokestatic Client.hostile:()LHostile;
  invokeinterface Hostile.ok:()I
  retv
.end
`

// newHostile returns a kernel whose "hostile" capability is a HostileImpl
// whose native boom panics, the capability, and the client domain.
func newHostile(t *testing.T) (*Kernel, *Capability, *Domain) {
	t.Helper()
	k := MustNew(Options{})
	k.VM.RegisterNative("HostileImpl.boom:()I", func(*vmkit.Env, *vmkit.Object, []vmkit.Value) (vmkit.Value, *vmkit.Object) {
		panic("native bug")
	})
	server, err := k.NewDomain(DomainConfig{Name: "hostile", Classes: map[string][]byte{
		"Hostile": mustAsm(t, hostileIface), "HostileImpl": mustAsm(t, hostileImpl)}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(server, "Hostile")
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client",
		Classes: map[string][]byte{"Client": mustAsm(t, hostileClient)}, Shared: []*SharedClass{sc}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := server.NewInstance("HostileImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("hostile", cap); err != nil {
		t.Fatal(err)
	}
	return k, cap, client
}

// wantError checks that err carries a jk/lang/Error whose message names
// what.
func wantError(t *testing.T, call string, err error, what string) {
	t.Helper()
	var th *vmkit.Object
	var vmErr *vmkit.ThrownError
	var copyErr *ThrownVMError
	switch {
	case errors.As(err, &vmErr):
		th = vmErr.Throwable
	case errors.As(err, &copyErr):
		th = copyErr.Throwable
	default:
		t.Fatalf("%s: got %v, want a thrown %s", call, err, vmkit.ClassError)
	}
	if msg := vmkit.ThrowableMessage(th); th.Class.Name != vmkit.ClassError || !strings.Contains(msg, what) {
		t.Errorf("%s: %s %q, want %s naming %q", call, th.Class.Name, msg, vmkit.ClassError, what)
	}
}

func TestHostileCalleeEndsInAnException(t *testing.T) {
	k, cap, client := newHostile(t)
	baseline := k.TableSizes()
	task := k.NewDetachedTask(client, "caller")

	// Through InvokeVM: the three-instruction newarr, a 2^33-int newarr
	// (64 GiB), and the panicking native.
	_, err := cap.InvokeVM(task, "giant")
	wantError(t, "InvokeVM giant", err, "exceeds")
	_, err = cap.InvokeVM(task, "ints", 1<<33)
	wantError(t, "InvokeVM ints", err, "exceeds")
	_, err = cap.InvokeVM(task, "boom")
	wantError(t, "InvokeVM boom", err, "native bug")
	if v, err := cap.InvokeVM(task, "ok"); err != nil || v != int64(7) {
		t.Errorf("InvokeVM ok after the faults = %v, %v", v, err)
	}

	// Through a bytecode LRMI on the same task.
	_, err = task.CallStatic("Client.giant:()I")
	wantError(t, "LRMI giant", err, "exceeds")
	_, err = task.CallStatic("Client.boom:()I")
	wantError(t, "LRMI boom", err, "native bug")
	if v, err := task.CallStatic("Client.caught:()I"); err != nil || v.I != -1 {
		t.Errorf("caught = %v, %v; want -1", v, err)
	}
	if v, err := task.CallStatic("Client.ok:()I"); err != nil || v.I != 7 {
		t.Errorf("LRMI ok after the faults = %v, %v", v, err)
	}
	if d := task.current(); d != client {
		t.Errorf("the task is left in domain %v, want the client", d)
	}
	task.Close()
	if got := k.TableSizes(); got != baseline {
		t.Errorf("tables %+v after the faults, baseline %+v", got, baseline)
	}
}

// A domain cannot shadow a bootstrap class. Its own jk/lang/String, which
// lacks the bytes field the VM's strings are built on, is never consulted:
// a class with a string literal links against the bootstrap String.
func TestDomainCannotShadowBootstrapClass(t *testing.T) {
	k := MustNew(Options{})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("a domain's own %s panicked the host: %v", vmkit.ClassString, r)
		}
	}()
	d, err := k.NewDomain(DomainConfig{Name: "shadow", Classes: map[string][]byte{
		vmkit.ClassString: mustAsm(t, ".class jk/lang/String\n.field n I\n"),
		"Lit":             mustAsm(t, ".class Lit\n.method static f ()Ljk/lang/String;\n  sconst \"hi\"\n  retv\n.end\n"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NS.Resolve("Lit"); err != nil {
		t.Fatal(err)
	}
	if got, boot := d.NS.Lookup(vmkit.ClassString), k.VM.SystemClass(vmkit.ClassString); got != boot {
		t.Errorf("the domain binds its own %s, not the bootstrap's", vmkit.ClassString)
	}
}
