package core

import (
	"fmt"
	"strings"
	"testing"

	"jkernel/internal/vmkit"
)

// A capability is an instance of the stub class the kernel generated for
// its gate, and nothing else is: neither a user class extending
// jk/kernel/Capability nor a subclass of a stub class.

const forgedSrc = `
.class Forged super jk/kernel/Capability implements ReadFile
`

const forgerSrc = `
.class Forger
.method static passForged ()I
  ; echo(forged): a capability comes back as the same reference (1); an
  ; object of a class the callee does not share does not cross (42)
try:
  new Forged
  store 0
  sconst "files"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
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
end:
handler:
  pop
  iconst 42
  retv
  .catch jk/kernel/RemoteException from try to end using handler
.end
.method static bindForged ()V
  sconst "forged"
  new Forged
  invokestatic jk/kernel/Repository.bind:(Ljk/lang/String;Ljk/kernel/Capability;)V
  ret
.end
`

// newForger is newTwoDomains with Forged and Forger loaded into the client.
func newForger(t *testing.T) (*Kernel, *Domain) {
	t.Helper()
	k, _, client, _ := newTwoDomains(t)
	for _, src := range []string{forgedSrc, forgerSrc} {
		if _, err := client.DefineClass(mustAsm(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return k, client
}

func TestForgedCapabilityIsCopiedNotPassed(t *testing.T) {
	k, client := newForger(t)
	task := k.NewTask(client, "forger")
	defer task.Close()
	v, err := task.CallStatic("Forger.passForged:()I")
	if err != nil {
		t.Fatal(err)
	}
	switch v.I {
	case 1:
		t.Fatal("a user subclass of jk/kernel/Capability crossed by reference")
	case 42:
	default:
		t.Fatalf("passForged = %d, want the RemoteException path (42)", v.I)
	}
}

func TestForgedCapabilityCannotBeBound(t *testing.T) {
	k, client := newForger(t)
	task := k.NewTask(client, "forger")
	defer task.Close()
	_, err := task.CallStatic("Forger.bindForged:()V")
	if err == nil || !strings.Contains(err.Error(), "not a capability") {
		t.Fatalf("Repository.bind of a forged capability: %v, want \"not a capability\"", err)
	}
	if k.Repository().Lookup("forged") != nil {
		t.Fatal("the forged object was bound")
	}
}

func TestStubSubclassIsNotACapability(t *testing.T) {
	k, server, client, cap := newTwoDomains(t)
	sub, err := server.DefineClass(vmkit.EncodeClass(&vmkit.ClassDef{
		Name:  "SubStub",
		Super: cap.Stub.Class.Name,
	}))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := server.NS.NewInstance(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.AssignableTo(cap.Stub.Class) {
		t.Fatal("fixture: SubStub does not extend the stub class")
	}
	if _, err := k.CapabilityFromStub(obj); err == nil || !strings.Contains(err.Error(), "not a capability") {
		t.Errorf("CapabilityFromStub(subclass instance) = %v, want \"not a capability\"", err)
	}
	ctx := vmCopyCtx{k: k, dest: client}
	if _, th := ctx.copyValue(vmkit.RefVal(obj)); th == nil || th.Class.Name != classRemoteEx {
		t.Errorf("copying a stub subclass instance into %s threw %v, want RemoteException", client.Name, th)
	}
	// The stub itself still passes by reference.
	if got, th := ctx.copyValue(vmkit.RefVal(cap.Stub)); th != nil || got.R != cap.Stub {
		t.Errorf("the stub did not pass by reference: %v", th)
	}
}

// subStubSrc extends a stub class, whose name fills its %s, and calls, on
// an object of its own, the readByte it inherits from the stub.
const subStubSrc = `
.class SubStub super %s
.method static call ()I
  new SubStub
  iconst 3
  invokeinterface ReadFile.readByte:(I)I
  retv
.end
`

// TestStubSubclassCannotCallTheGate: the method SubStub inherits is the
// gate's native, and it refuses a receiver whose own class is not the
// stub class. The client's call throws before any crossing: no cross call
// is booked and the callee runs no step.
func TestStubSubclassCannotCallTheGate(t *testing.T) {
	k, server, client, cap := newTwoDomains(t)
	if _, err := server.DefineClass(mustAsm(t, fmt.Sprintf(subStubSrc, cap.Stub.Class.Name))); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(client, "client")
	defer task.Close()
	calls, steps := client.Stats().CrossCalls, server.Stats().Steps
	_, err := k.VM.CallStatic(task.Thread, server.NS, "SubStub.call:()I")
	if thrownClass(err) != vmkit.ClassIllegalStateEx || !strings.Contains(err.Error(), "not a capability") {
		t.Fatalf("readByte on a SubStub: %v, want IllegalStateException \"not a capability\"", err)
	}
	if got := client.Stats().CrossCalls; got != calls {
		t.Errorf("CrossCalls %d → %d: the subclass reached the gate", calls, got)
	}
	if got := server.Stats().Steps; got != steps {
		t.Errorf("the callee ran %d steps", got-steps)
	}
}

// TestStubNativesArePerClass: a stub's natives belong to its class, so
// creating and revoking capabilities leaves the VM's native table as it
// was. A revoked stub still throws the revocation fault, and a stub of a
// terminated domain the termination fault.
func TestStubNativesArePerClass(t *testing.T) {
	k, server, client, cap := newTwoDomains(t)
	natives := k.VM.NativeCount()
	target := cap.g.vmTarget.Load()
	for i := 0; i < 1000; i++ {
		c, err := k.CreateVMCapability(server, target)
		if err != nil {
			t.Fatal(err)
		}
		c.Revoke()
	}
	if got := k.VM.NativeCount(); got != natives {
		t.Errorf("the VM's native table holds %d entries after 1 000 capabilities, %d before", got, natives)
	}

	cap.Revoke()
	if v, err := clientCall(t, k, client, "callCaught"); err != nil || v.I != -1 {
		t.Errorf("call through a revoked stub = %v, %v; want RevokedException (-1)", v.I, err)
	}

	k, server, client, _ = newTwoDomains(t)
	server.Terminate("test")
	if v, err := clientCall(t, k, client, "callCaught"); err != nil || v.I != -2 {
		t.Errorf("call through a terminated domain's stub = %v, %v; want DomainTerminatedException (-2)", v.I, err)
	}
}

const kernelNativesSrc = `
.class KN
.method static cap ()Ljk/kernel/Capability;
  sconst "kn"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  retv
.end
.method static isRevoked ()I
  invokestatic KN.cap:()Ljk/kernel/Capability;
  invokevirtual jk/kernel/Capability.isRevoked:()I
  retv
.end
.method static revoke ()V
  invokestatic KN.cap:()Ljk/kernel/Capability;
  invokevirtual jk/kernel/Capability.revoke:()V
  ret
.end
.method static priority ()I
  invokestatic jk/lang/Thread.currentThread:()Ljk/lang/Thread;
  dup
  iconst 7
  invokevirtual jk/lang/Thread.setPriority:(I)V
  dup
  invokevirtual jk/lang/Thread.yield:()V
  invokevirtual jk/lang/Thread.getPriority:()I
  retv
.end
`

// TestKernelNativesFromBytecode calls the kernel's jk/kernel/Capability
// and jk/lang/Thread natives from bytecode: only the creating domain
// revokes, isRevoked follows, and a priority set on the running segment
// reads back.
func TestKernelNativesFromBytecode(t *testing.T) {
	k := MustNew(Options{})
	kn := mustAsm(t, kernelNativesSrc)
	owner, err := k.NewDomain(DomainConfig{Name: "owner", Classes: map[string][]byte{
		"KN":     kn,
		"KNSvc":  mustAsm(t, ".class KNSvc interface implements jk/kernel/Remote\n.method ping ()I\n.end\n"),
		"KNImpl": mustAsm(t, ".class KNImpl implements KNSvc\n.method ping ()I\n  iconst 1\n  retv\n.end\n"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := k.NewDomain(DomainConfig{Name: "other", Classes: map[string][]byte{"KN": kn}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := owner.NewInstance("KNImpl")
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.CreateVMCapability(owner, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("kn", c); err != nil {
		t.Fatal(err)
	}
	ot, xt := k.NewDetachedTask(owner, "owner"), k.NewDetachedTask(other, "other")
	defer ot.Close()
	defer xt.Close()

	if v, err := xt.CallStatic("KN.isRevoked:()I"); err != nil || v.I != 0 {
		t.Fatalf("isRevoked before any revoke = %v, %v; want 0", v.I, err)
	}
	_, err = xt.CallStatic("KN.revoke:()V")
	if thrownClass(err) != vmkit.ClassIllegalStateEx || !strings.Contains(err.Error(), "only the creating domain may revoke") {
		t.Fatalf("revoke from another domain: %v, want IllegalStateException", err)
	}
	if c.Revoked() {
		t.Fatal("another domain's revoke revoked the capability")
	}
	if _, err := ot.CallStatic("KN.revoke:()V"); err != nil {
		t.Fatalf("revoke from the creating domain: %v", err)
	}
	if v, err := xt.CallStatic("KN.isRevoked:()I"); err != nil || v.I != 1 || !c.Revoked() {
		t.Fatalf("isRevoked after the owner's revoke = %v, %v; want 1", v.I, err)
	}
	if v, err := ot.CallStatic("KN.priority:()I"); err != nil || v.I != 7 {
		t.Fatalf("priority read back = %v, %v; want 7", v.I, err)
	}
}
