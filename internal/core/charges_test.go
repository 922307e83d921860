package core

import (
	"sync"
	"testing"
	"unsafe"

	"jkernel/internal/account"
	"jkernel/internal/vmkit"
)

// What vmkit charges for an allocation is what its layout takes (vmkit's
// TestObjectLayout): a 72 B header, a Value's 16 B a slot, a primitive
// payload of up to 128 B in the header's block (a bucket of 16, 32, 64 or
// 128 B), and a string of up to 32 B one block with its [B. A thread's
// first arena is 8 KiB of Values.
const (
	header     = 72
	slot       = int64(unsafe.Sizeof(vmkit.Value{}))
	firstArena = 8 << 10 / slot * slot
)

// layoutBytes sums the charges of the objects reachable from root, not
// looking inside the capability stub capStub, which none of them pays for.
// A string's [B is in its string's charge.
func layoutBytes(root, capStub *vmkit.Object) int64 {
	payload := func(n int) int64 {
		for _, bucket := range []int{0, 16, 32, 64, 128} {
			if n <= bucket {
				return header + int64(bucket)
			}
		}
		return header + int64(n)
	}
	seen := map[*vmkit.Object]bool{}
	reach(root, capStub, seen)
	delete(seen, capStub)
	var sum int64
	for o := range seen {
		if o.Class.Name == vmkit.ClassString {
			arr := o.Fields[o.Class.FieldByName("bytes").Slot].R
			seen[arr] = false
			if n := len(arr.Bytes); n > 32 {
				sum += header + slot + payload(n)
			} else {
				sum += 2*header + slot + 32
			}
		}
	}
	for o, own := range seen {
		switch {
		case !own || o.Class.Name == vmkit.ClassString:
		case o.Bytes != nil:
			sum += payload(len(o.Bytes))
		default:
			sum += header + slot*int64(len(o.Fields))
		}
	}
	return sum
}

// The charge fixture: c serves Hop and defines Box; b serves Hop too, and
// its relay calls c's; a's Client calls b. Every hop allocates an array,
// and b's leaf a Box: each is charged to the domain whose code runs, Box
// included, though c's namespace defines it.
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
// object of a system class is charged to the domain that makes it.
//
// A step is one bytecode instruction, charged to the domain whose code
// runs; a stub method is the gate's native and runs none. With n = 50:
//   - a: setup 5; direct and chain each 11 a turn + 3 to leave = 553;
//     1111 in all. sys adds 9n + 3 = 453 and direct 553 more: 2117.
//   - b: HopB.leaf 9 a call and HopB.relay 9 a call, n calls of each:
//     900. The second direct adds 9n: 1350.
//   - c: HopC.leaf 7 a call, n calls: 350, and nothing once terminated.
//
// An allocation is charged to the domain it is made for, its bytes as
// vmkit lays them out (see layoutBytes); c's classes charge the domains
// that run them:
//   - a: its task's first arena, its interned "b"; sys's n StringBuilders.
//   - b: its served HopB and that capability's stub, its interned "c"; a
//     Box and a [B of 16 each leaf, a [I of 8 each relay.
//   - c: its served HopC and stub, and a [B of 24 each leaf.
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

	const (
		served  = 2 * header           // a served instance of no slots, its stub
		sconst  = 2*header + slot + 32 // an interned string of one letter
		box     = header + slot        // new Box
		bytes16 = header + 16          // newarr "[B" of 16
		bytes24 = header + 32          // of 24
		ints8   = header + 64          // newarr "[I" of 8
		builder = header + 2*slot      // new jk/lang/StringBuilder
	)
	run("setup:()V")
	run("direct:(I)V", vmkit.IntVal(n))
	run("chain:(I)V", vmkit.IntVal(n))
	allocA, allocB, allocC := int64(firstArena+sconst), int64(served+sconst+n*(box+bytes16)+n*ints8), int64(served+n*bytes24)
	check("after a→b and a→b→c", map[*Domain]charges{
		da: {Steps: 1111, AllocBytes: allocA, ClassBytes: 1696},
		db: {Steps: 900, AllocBytes: allocB, ClassBytes: 1936},
		dc: {Steps: 350, AllocBytes: allocC, ClassBytes: 2592},
	})

	sys := k.Meter.Snapshot(0).AllocBytes
	run("sys:(I)V", vmkit.IntVal(n))
	if got := k.Meter.Snapshot(0).AllocBytes - sys; got != 0 {
		t.Errorf("system account charged %d for a's %d StringBuilders, want 0", got, n)
	}
	allocA += n * builder

	dc.Terminate("test")
	run("direct:(I)V", vmkit.IntVal(n))
	check("after c terminated", map[*Domain]charges{
		da: {Steps: 2117, AllocBytes: allocA, ClassBytes: 1696},
		db: {Steps: 1350, AllocBytes: allocB + n*(box+bytes16), ClassBytes: 1936},
		dc: {Steps: 350, AllocBytes: allocC, ClassBytes: 2592},
	})
}

// chargeMaker is a class c shares: its make allocates an Object[4] holding
// a Box, an int[8], a StringBuilder and that builder's String.
const chargeMaker = `
.class Maker
.method static make ()[Ljk/lang/Object;
  iconst 4
  newarr "[Ljk/lang/Object;"
  store 0
  load 0
  iconst 0
  new Box
  astore
  load 0
  iconst 1
  iconst 8
  newarr "[I"
  astore
  new jk/lang/StringBuilder
  store 1
  load 1
  invokevirtual jk/lang/StringBuilder.init:()V
  load 1
  iconst 12345
  invokevirtual jk/lang/StringBuilder.appendInt:(I)Ljk/lang/StringBuilder;
  pop
  load 0
  iconst 2
  load 1
  astore
  load 0
  iconst 3
  load 1
  invokevirtual jk/lang/StringBuilder.toString:()Ljk/lang/String;
  astore
  load 0
  retv
.end
`

// TestAllocationPaysTheRunningDomain: a and b run c's shared Maker.make at
// once, each on a carrier of its own. Every object it makes — by new,
// newarr, and the natives of a system class — is owned by the domain that
// runs it, and that domain's account grows by exactly the layout of what
// it got, plus its carrier's first arena; c, whose namespace defines the
// classes, and the system account 0 pay nothing.
func TestAllocationPaysTheRunningDomain(t *testing.T) {
	const calls = 200
	k := MustNew(Options{})
	dc, err := k.NewDomain(DomainConfig{Name: "c", Classes: map[string][]byte{
		"Box": mustAsm(t, chargeBox), "Maker": mustAsm(t, chargeMaker),
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(dc, "Maker", "Box")
	if err != nil {
		t.Fatal(err)
	}
	runners := make([]*Domain, 2)
	for i, name := range []string{"a", "b"} {
		if runners[i], err = k.NewDomain(DomainConfig{Name: name, Shared: []*SharedClass{sc}}); err != nil {
			t.Fatal(err)
		}
	}
	alloc := func(id int64) int64 { return k.Meter.Snapshot(id).AllocBytes }
	sysBefore, cBefore := alloc(0), dc.Stats().AllocBytes

	var wg sync.WaitGroup
	for _, d := range runners {
		task := k.NewDetachedTask(d, "maker-"+d.Name)
		before := d.Stats().AllocBytes
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer task.Close()
			want := int64(firstArena)
			for range calls {
				v, err := task.CallStatic("Maker.make:()[Ljk/lang/Object;")
				if err != nil {
					t.Errorf("%s: %v", d.Name, err)
					return
				}
				seen := map[*vmkit.Object]bool{}
				reach(v.R, nil, seen)
				for o := range seen {
					if o.Owner != d.ID {
						t.Errorf("%s: a %s owned by %d, want %d", d.Name, o.Class.Name, o.Owner, d.ID)
						return
					}
				}
				want += layoutBytes(v.R, nil)
			}
			if got := d.Stats().AllocBytes - before; got != want {
				t.Errorf("%s charged %d B for %d calls, want %d", d.Name, got, calls, want)
			}
		}()
	}
	wg.Wait()
	if got := dc.Stats().AllocBytes - cBefore; got != 0 {
		t.Errorf("c, whose classes ran, charged %d B", got)
	}
	if got := alloc(0) - sysBefore; got != 0 {
		t.Errorf("the system account charged %d B", got)
	}
}
