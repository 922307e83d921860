package core

import (
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
.method static passForged ()I stack 8 locals 1
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
.method static bindForged ()V stack 4 locals 0
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
	obj, err := vmkit.NewInstance(sub)
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
	if _, th := ctx.copyValue(vmkit.RefVal(obj)); th == nil || th.Class.Name != vmkit.ClassRemoteEx {
		t.Errorf("copying a stub subclass instance into %s threw %v, want RemoteException", client.Name, th)
	}
	// The stub itself still passes by reference.
	if got, th := ctx.copyValue(vmkit.RefVal(cap.Stub)); th != nil || got.R != cap.Stub {
		t.Errorf("the stub did not pass by reference: %v", th)
	}
}
