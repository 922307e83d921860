package core

import (
	"testing"

	"jkernel/internal/account"
	"jkernel/internal/vmkit"
)

// The charge fixture: c serves Hop and defines Box; b serves Hop too, and
// its relay calls c's; a's Client calls b. Every hop allocates: an array of
// its own (charged to the domain whose code runs) and, in b, a Box (charged
// to c, whose namespace defines the class).
const (
	chargeHop = `
.class Hop interface implements jk/kernel/Remote
.method leaf (I)I
.end
.method relay (I)I
.end
`
	chargeBox  = ".class Box\n.field v I\n"
	chargeHopC = `
.class HopC implements Hop
.method leaf (I)I
  iconst 24
  newarr "[B"
  pop
  load 1
  iconst 1
  iadd
  retv
.end
.method relay (I)I
  load 1
  retv
.end
`
	chargeHopB = `
.class HopB implements Hop
.method leaf (I)I
  new Box
  pop
  iconst 16
  newarr "[B"
  pop
  load 1
  iconst 1
  iadd
  retv
.end
.method relay (I)I
  sconst "c"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Hop
  load 1
  invokeinterface Hop.leaf:(I)I
  iconst 8
  newarr "[I"
  pop
  retv
.end
`
	chargeClient = `
.class Client
.field static hop LHop;
.method static setup ()V
  sconst "b"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Hop
  putstatic Client.hop:LHop;
  ret
.end
.method static direct (I)V
loop:
  load 0
  ifz done
  getstatic Client.hop:LHop;
  load 0
  invokeinterface Hop.leaf:(I)I
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static chain (I)V
loop:
  load 0
  ifz done
  getstatic Client.hop:LHop;
  load 0
  invokeinterface Hop.relay:(I)I
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static sys (I)V
loop:
  load 0
  ifz done
  new jk/lang/StringBuilder
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
`
)

// serveHop gives d a capability on a fresh instance of its class impl and
// binds it under name.
func serveHop(t *testing.T, k *Kernel, d *Domain, impl, name string) {
	t.Helper()
	target, err := d.NewInstance(impl)
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.CreateVMCapability(d, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind(name, c); err != nil {
		t.Fatal(err)
	}
}

// TestVMLRMIChargesLandExactly runs VM LRMIs a→b and a→b→c whose callees
// allocate, and holds every domain's steps, allocation and class bytes to
// exact figures. A terminated domain takes no further charge, and an
// object of a system class is charged to the system account, id 0.
//
// A step is one bytecode instruction, charged to the domain whose code
// runs; a stub method is the gate's native and runs none. With n = 50:
//   - a: setup 5; direct and chain each 11 a turn + 3 to leave = 553;
//     1111 in all. sys adds 9n + 3 = 453 and direct 553 more: 2117.
//   - b: HopB.leaf 9 a call and HopB.relay 9 a call, n calls of each:
//     900. The second direct adds 9n: 1350.
//   - c: HopC.leaf 7 a call, n calls: 350, and nothing once terminated.
func TestVMLRMIChargesLandExactly(t *testing.T) {
	const n = 50
	k := MustNew(Options{})
	dc, err := k.NewDomain(DomainConfig{Name: "c", Classes: map[string][]byte{
		"Hop": mustAsm(t, chargeHop), "Box": mustAsm(t, chargeBox), "HopC": mustAsm(t, chargeHopC),
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(dc, "Hop", "Box")
	if err != nil {
		t.Fatal(err)
	}
	db, err := k.NewDomain(DomainConfig{Name: "b", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"HopB": mustAsm(t, chargeHopB)}})
	if err != nil {
		t.Fatal(err)
	}
	da, err := k.NewDomain(DomainConfig{Name: "a", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"Client": mustAsm(t, chargeClient)}})
	if err != nil {
		t.Fatal(err)
	}
	serveHop(t, k, dc, "HopC", "c")
	serveHop(t, k, db, "HopB", "b")

	task := k.NewTask(da, "client")
	defer task.Close()
	run := func(method string, args ...vmkit.Value) {
		t.Helper()
		if _, err := task.CallStatic("Client."+method, args...); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	type charges struct{ Steps, AllocBytes, ClassBytes int64 }
	of := func(s account.Stats) charges { return charges{s.Steps, s.AllocBytes, s.ClassBytes} }
	check := func(when string, want map[*Domain]charges) {
		t.Helper()
		for d, w := range want {
			if got := of(d.Stats()); got != w {
				t.Errorf("%s: domain %s charged %+v, want %+v", when, d.Name, got, w)
			}
		}
	}

	run("setup:()V")
	run("direct:(I)V", vmkit.IntVal(n))
	run("chain:(I)V", vmkit.IntVal(n))
	check("after a→b and a→b→c", map[*Domain]charges{
		da: {Steps: 1111, AllocBytes: 0, ClassBytes: 1696},
		db: {Steps: 900, AllocBytes: 5632, ClassBytes: 1936},
		dc: {Steps: 350, AllocBytes: 3632, ClassBytes: 2592},
	})

	sys := k.Meter.Snapshot(0).AllocBytes
	run("sys:(I)V", vmkit.IntVal(n))
	if got, want := k.Meter.Snapshot(0).AllocBytes-sys, int64(n*(16+16*2)); got != want {
		t.Errorf("system account charged %d for %d StringBuilders, want %d", got, n, want)
	}

	dc.Terminate("test")
	run("direct:(I)V", vmkit.IntVal(n))
	check("after c terminated", map[*Domain]charges{
		da: {Steps: 2117, AllocBytes: 0, ClassBytes: 1696},
		db: {Steps: 1350, AllocBytes: 7232, ClassBytes: 1936},
		dc: {Steps: 350, AllocBytes: 3632, ClassBytes: 2592},
	})
}
