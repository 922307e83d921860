package jkernel

import (
	"errors"
	"strings"
	"testing"
)

// These tests exercise the public facade end to end, the way a downstream
// user would: native capabilities, VM domains with bytecode, repository,
// revocation, termination, and mutual suspicion between three domains.

type ledger struct {
	entries map[string]int64
}

func (l *ledger) Deposit(account string, amount int64) (int64, error) {
	if amount <= 0 {
		return 0, errors.New("non-positive deposit")
	}
	l.entries[account] += amount
	return l.entries[account], nil
}

func (l *ledger) Balance(account string) (int64, error) {
	return l.entries[account], nil
}

func TestPublicAPINativeFlow(t *testing.T) {
	k := New(Options{})
	bank, err := k.NewDomain(DomainConfig{Name: "bank"})
	if err != nil {
		t.Fatal(err)
	}
	teller, err := k.NewDomain(DomainConfig{Name: "teller"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateNativeCapability(bank, &ledger{entries: map[string]int64{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("ledger", cap); err != nil {
		t.Fatal(err)
	}

	task := k.NewTask(teller, "teller")
	defer task.Close()

	got := k.Repository().Lookup("ledger")
	if got == nil {
		t.Fatal("repository lost the capability")
	}
	var stub struct {
		Deposit func(string, int64) (int64, error)
		Balance func(string) (int64, error)
	}
	if err := got.Bind(&stub); err != nil {
		t.Fatal(err)
	}
	if bal, err := stub.Deposit("alice", 100); err != nil || bal != 100 {
		t.Fatalf("deposit: %d, %v", bal, err)
	}
	if _, err := stub.Deposit("alice", -5); err == nil {
		t.Fatal("error result lost")
	}
	if bal, _ := stub.Balance("alice"); bal != 100 {
		t.Fatalf("balance: %d", bal)
	}

	bank.Terminate("audit")
	if _, err := stub.Balance("alice"); err != ErrDomainTerminated {
		t.Fatalf("after termination: %v", err)
	}
}

func TestPublicAPIVMFlow(t *testing.T) {
	k := New(Options{})
	iface := MustAssemble(`
.class Counter interface implements jk/kernel/Remote
.method bump (I)I
.end
`)
	impl := MustAssemble(`
.class CounterImpl implements Counter
.field total I
.method bump (I)I
  load 0
  load 0
  getfield CounterImpl.total:I
  load 1
  iadd
  putfield CounterImpl.total:I
  load 0
  getfield CounterImpl.total:I
  retv
.end
`)
	host, err := k.NewDomain(DomainConfig{
		Name:    "host",
		Classes: map[string][]byte{"Counter": iface, "CounterImpl": impl},
	})
	if err != nil {
		t.Fatal(err)
	}
	user, err := k.NewDomain(DomainConfig{Name: "user"})
	if err != nil {
		t.Fatal(err)
	}
	target, err := host.NewInstance("CounterImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(host, target)
	if err != nil {
		t.Fatal(err)
	}

	task := k.NewTask(user, "user")
	defer task.Close()
	for want := int64(5); want <= 15; want += 5 {
		got, err := cap.InvokeVM(task, "bump", 5)
		if err != nil {
			t.Fatal(err)
		}
		if got.(int64) != want {
			t.Fatalf("bump = %v, want %d", got, want)
		}
	}
	// The callee's state lives in its own domain; stats show the charges.
	if host.Stats().ClassBytes == 0 {
		t.Error("host accounting empty")
	}
	cap.Revoke()
	if _, err := cap.InvokeVM(task, "bump", 1); err == nil {
		t.Fatal("revoked capability still callable")
	}
}

func TestPublicAPIRejectsBadBytecode(t *testing.T) {
	k := New(Options{})
	// Forged pointer: returns an int as an object reference.
	bad, err := Assemble(`
.class Forge
.method static f ()Ljk/lang/Object;
  iconst 1234
  retv
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.NewDomain(DomainConfig{Name: "evil", Classes: map[string][]byte{"Forge": bad}})
	if err != nil {
		t.Fatal(err) // lazy loading: domain creation is fine
	}
	d := k.DomainByName("evil")
	if _, err := d.NS.Resolve("Forge"); err == nil || !strings.Contains(err.Error(), "verify") {
		t.Fatalf("verifier did not reject forged pointer: %v", err)
	}
}

// Mutual suspicion: two client domains hold capabilities onto one server;
// revoking one leaves the other working, and neither can reach the other.
func TestMutualSuspicion(t *testing.T) {
	k := New(Options{})
	server, _ := k.NewDomain(DomainConfig{Name: "server"})
	c1, _ := k.NewDomain(DomainConfig{Name: "client1"})
	c2, _ := k.NewDomain(DomainConfig{Name: "client2"})

	led := &ledger{entries: map[string]int64{}}
	cap1, err := k.CreateNativeCapability(server, led)
	if err != nil {
		t.Fatal(err)
	}
	cap2, err := k.CreateNativeCapability(server, led)
	if err != nil {
		t.Fatal(err)
	}

	t1 := k.NewTask(c1, "t1")
	if _, err := cap1.InvokeFrom(t1, "Deposit", "x", int64(1)); err != nil {
		t.Fatal(err)
	}
	t1.Close()

	cap1.Revoke()

	t2 := k.NewTask(c2, "t2")
	defer t2.Close()
	if _, err := cap2.InvokeFrom(t2, "Deposit", "x", int64(1)); err != nil {
		t.Fatalf("sibling capability harmed by revocation: %v", err)
	}
	if _, err := cap1.InvokeFrom(t2, "Balance", "x"); err != ErrRevoked {
		t.Fatalf("revoked capability alive: %v", err)
	}
}
