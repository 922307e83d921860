package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"weak"

	"jkernel/internal/raceflag"
	"jkernel/internal/vmkit"
)

// A serialized object may hold reference arrays. Array classes are per
// namespace, so the destination's [LBox; is not the sender's; it holds
// the same elements when Box is the same class on both sides.
func TestSerializedRefArrayCrosses(t *testing.T) {
	for _, mode := range []string{vmkit.IfaceSerializable, vmkit.IfaceFastCopy} {
		t.Run(mode, func(t *testing.T) {
			k := MustNew(Options{})
			holder := fmt.Sprintf(".class Holder implements %s\n.field boxes [LBox;\n.field grid [[LBox;\n.field names [Ljk/lang/String;\n.field one LBox;\n.field ints [[I\n", mode)
			a, err := k.NewDomain(DomainConfig{Name: "a", Classes: map[string][]byte{
				"Holder": asmBytes(holder),
				"Box":    asmBytes(".class Box implements jk/io/Serializable\n.field v I\n"),
			}})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := k.ShareClasses(a, "Holder")
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.NewDomain(DomainConfig{Name: "b", Shared: []*SharedClass{sc}})
			if err != nil {
				t.Fatal(err)
			}
			box := func(v int64) *vmkit.Object {
				o, err := a.NewInstance("Box")
				if err != nil {
					t.Fatal(err)
				}
				setField(o, "v", vmkit.IntVal(v))
				return o
			}
			arr := func(desc string, elems ...*vmkit.Object) *vmkit.Object {
				o, err := a.NS.NewArray(desc, len(elems))
				if err != nil {
					t.Fatal(err)
				}
				copy(o.Refs, elems)
				return o
			}
			b1, b2 := box(1), box(2)
			name, err := a.NS.NewString("shared")
			if err != nil {
				t.Fatal(err)
			}
			h, err := a.NewInstance("Holder")
			if err != nil {
				t.Fatal(err)
			}
			boxes := arr("[LBox;", b1, b1, nil, b2)
			setField(h, "boxes", vmkit.RefVal(boxes))
			setField(h, "grid", vmkit.RefVal(arr("[[LBox;", boxes, arr("[LBox;", b2))))
			setField(h, "names", vmkit.RefVal(arr("[Ljk/lang/String;", name, name)))
			setField(h, "one", vmkit.RefVal(b1))
			ints, err := a.NS.NewArray("[I", 2)
			if err != nil {
				t.Fatal(err)
			}
			ints.Words[1] = 7
			setField(h, "ints", vmkit.RefVal(arr("[[I", ints)))

			out, _, err := k.CopyValueBetween(b, vmkit.RefVal(h))
			if err != nil {
				t.Fatalf("copy: %v", err)
			}
			get := func(o *vmkit.Object, field string) *vmkit.Object {
				return o.Fields[o.Class.FieldByName(field).Slot].R
			}
			c := out.R
			cb := get(c, "boxes")
			if cb == boxes || cb.Class.NS != b.NS || cb.Class.Name != "[LBox;" || len(cb.Refs) != 4 || cb.Refs[2] != nil {
				t.Fatalf("boxes copied as %+v", cb)
			}
			if cb.Refs[0] == b1 || cb.Refs[0].Class != b1.Class || cb.Refs[3].Fields[0].I != 2 {
				t.Fatal("the boxes' elements were not copied")
			}
			grid := get(c, "grid")
			if grid.Class.Name != "[[LBox;" || grid.Class.NS != b.NS || grid.Refs[1].Refs[0].Fields[0].I != 2 {
				t.Fatalf("grid copied as %+v", grid)
			}
			names := get(c, "names")
			if vmkit.StringText(names.Refs[0]) != "shared" || names.Refs[0] == name {
				t.Fatal("the names were not copied")
			}
			if ci := get(c, "ints"); ci.Refs[0].Words[1] != 7 || ci.Refs[0] == ints {
				t.Fatal("the [[I was not copied")
			}
			// Serialization keeps the graph's sharing; fast-copy duplicates.
			shared := cb.Refs[0] == cb.Refs[1] && cb.Refs[0] == get(c, "one") &&
				grid.Refs[0] == cb && names.Refs[0] == names.Refs[1] && grid.Refs[1].Refs[0] == cb.Refs[3]
			if want := mode == vmkit.IfaceSerializable; shared != want {
				t.Errorf("sharing kept: %v, want %v", shared, want)
			}
		})
	}
}

// A "[D" element and a D field keep their IEEE 754 bits across a domain
// boundary: NaN (with its payload), -0 and both infinities, stored by
// astore, cross by either copy mode and aload reads them back bit for bit.
func TestCopyDoubleArrayKeepsFloatBits(t *testing.T) {
	const darr = `
.class DArr
.method static put ([DID)V stack 6 locals 0
  load 0
  load 1
  load 2
  astore
  ret
.end
.method static get ([DI)D stack 4 locals 0
  load 0
  load 1
  aload
  retv
.end
`
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for _, mode := range []string{vmkit.IfaceSerializable, vmkit.IfaceFastCopy} {
		t.Run(mode, func(t *testing.T) {
			k := MustNew(Options{})
			a, err := k.NewDomain(DomainConfig{Name: "a", Classes: map[string][]byte{
				"Holder": asmBytes(fmt.Sprintf(".class Holder implements %s\n.field d [D\n.field f D\n", mode)),
				"DArr":   asmBytes(darr),
			}})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := k.ShareClasses(a, "Holder")
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.NewDomain(DomainConfig{Name: "b", Shared: []*SharedClass{sc},
				Classes: map[string][]byte{"DArr": asmBytes(darr)}})
			if err != nil {
				t.Fatal(err)
			}
			ta, tb := k.NewDetachedTask(a, "a"), k.NewDetachedTask(b, "b")
			t.Cleanup(ta.Close)
			t.Cleanup(tb.Close)

			arr, err := a.NS.NewArray("[D", len(specials))
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range specials {
				if _, err := ta.CallStatic("DArr.put:([DID)V", vmkit.RefVal(arr), vmkit.IntVal(int64(i)), vmkit.FloatVal(x)); err != nil {
					t.Fatal(err)
				}
			}
			h, err := a.NewInstance("Holder")
			if err != nil {
				t.Fatal(err)
			}
			setField(h, "d", vmkit.RefVal(arr))
			setField(h, "f", vmkit.FloatVal(specials[1]))

			out, _, err := k.CopyValueBetween(b, vmkit.RefVal(h))
			if err != nil {
				t.Fatalf("copy: %v", err)
			}
			c := out.R
			if f := c.Fields[c.Class.FieldByName("f").Slot]; f.K != vmkit.KFloat || uint64(f.I) != math.Float64bits(specials[1]) {
				t.Errorf("D field copied as %v (%#x)", f, f.I)
			}
			carr := c.Fields[c.Class.FieldByName("d").Slot].R
			if carr == arr || carr.Class.NS != b.NS {
				t.Fatal("the [D was not copied into b")
			}
			for i, x := range specials {
				got, err := tb.CallStatic("DArr.get:([DI)D", vmkit.RefVal(carr), vmkit.IntVal(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				if got.K != vmkit.KFloat || uint64(got.I) != math.Float64bits(x) {
					t.Errorf("[%d] %v copied as %v (%#x), want %#x", i, x, got, got.I, math.Float64bits(x))
				}
			}
		})
	}
}

// An array whose element class the destination binds to another class
// still cannot cross by serialization.
func TestSerializedRefArrayOfUnsharedClass(t *testing.T) {
	f := newOracleFixture(t)
	other := f.node(t, "Other")
	arr := f.array(t, "[LOther;", 1)
	arr.Refs[0] = other
	s := f.node(t, "S")
	s.Fields[s.Class.FieldByName("a").Slot] = vmkit.RefVal(arr)
	const want = "jkernel: jk/kernel/RemoteException: deserialize: class [LOther; binds differently in domain b"
	if _, _, err := f.k.CopyValueBetween(f.b, vmkit.RefVal(s)); err == nil || err.Error() != want {
		t.Errorf("got %v, want %q", err, want)
	}
}

// The serializer's pooled scratch names nothing once a copy returns: a
// domain whose objects were serialized, once terminated, is collected
// with its classes, and a kernel nothing else names is collected.
func TestSerialPoolPinsNothing(t *testing.T) {
	k := MustNew(Options{})
	serialize := func(k *Kernel) weak.Pointer[vmkit.Class] {
		f := &oracleFixture{k: k}
		var err error
		if f.a, err = k.NewDomain(DomainConfig{Name: "src", Classes: map[string][]byte{
			"S": oracleNode("S", vmkit.IfaceSerializable), "Cap": asmBytes(oracleCap),
		}}); err != nil {
			t.Fatal(err)
		}
		sc, err := k.ShareClasses(f.a, "S")
		if err != nil {
			t.Fatal(err)
		}
		if f.b, err = k.NewDomain(DomainConfig{Name: "dst", Shared: []*SharedClass{sc}}); err != nil {
			t.Fatal(err)
		}
		s := f.node(t, "S")
		arr := f.array(t, "[LS;", 2)
		arr.Refs[0], arr.Refs[1] = s, s
		setField(s, "a", vmkit.RefVal(arr))
		setField(s, "s", vmkit.RefVal(f.str(t, "text")))
		for range 4 {
			if _, _, err := k.CopyValueBetween(f.b, vmkit.RefVal(s)); err != nil {
				t.Fatal(err)
			}
		}
		f.a.Terminate("done")
		f.b.Terminate("done")
		return weak.Make(s.Class)
	}
	class := serialize(k)
	gone := func() weak.Pointer[Kernel] {
		k := MustNew(Options{DisableTelemetry: true})
		serialize(k)
		return weak.Make(k)
	}()
	// One collection moves the pool's entries to its victim cache, where
	// they are still reachable: whatever they name survives it.
	runtime.GC()
	if class.Value() != nil {
		t.Error("a terminated domain's class survived a collection: the serializer's pool pins it")
	}
	if gone.Value() != nil {
		t.Error("a kernel nothing names survived a collection: the serializer's pool pins it")
	}
	runtime.KeepAlive(k)
}

// Copies on eight goroutines at once share the pool and nothing else.
func TestSerialPoolConcurrentCopies(t *testing.T) {
	f := newOracleFixture(t)
	var graphs []oracleGraph
	for seed := range oracleSeeds {
		graphs = append(graphs, f.gen(t, seed))
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(graphs) {
				g := graphs[(w*7+i)%len(graphs)]
				out, _, err := f.k.CopyValueBetween(f.b, vmkit.RefVal(g.root))
				if err != nil {
					t.Errorf("%s: %v", g.kind, err)
					return
				}
				if err := f.checkCopy(g.kind, g.root, out.R); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// --- allocations ---------------------------------------------------------

// The Table 4 fixture: a server exporting sink methods taking a chain of
// MsgS (serialized) or MsgF (fast-copied) nodes, or a string.
const (
	copySvcIface = `
.class CopySvc interface implements jk/kernel/Remote
.method sink (LMsgS;)I
.end
.method sinkF (LMsgF;)I
.end
.method str (Ljk/lang/String;)I
.end
`
	copySvcImpl = `
.class CopySvcImpl implements CopySvc
.method sink (LMsgS;)I stack 2 locals 0
  iconst 1
  retv
.end
.method sinkF (LMsgF;)I stack 2 locals 0
  iconst 1
  retv
.end
.method str (Ljk/lang/String;)I stack 2 locals 0
  iconst 1
  retv
.end
`
	copyMsgS = ".class MsgS implements jk/io/Serializable\n.field payload [B\n.field next LMsgS;\n"
	copyMsgF = ".class MsgF implements jk/io/FastCopy\n.field payload [B\n.field next LMsgF;\n"
)

type copyFixture struct {
	k      *Kernel
	client *Domain
	task   *Task
	cap    *Capability
}

func newCopyFixture(t *testing.T) *copyFixture {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := MustNew(Options{})
	server, err := k.NewDomain(DomainConfig{Name: "server", Classes: map[string][]byte{
		"CopySvc": mustAsm(t, copySvcIface), "CopySvcImpl": mustAsm(t, copySvcImpl),
		"MsgS": mustAsm(t, copyMsgS), "MsgF": mustAsm(t, copyMsgF),
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(server, "CopySvc", "MsgS", "MsgF")
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client", Shared: []*SharedClass{sc}})
	if err != nil {
		t.Fatal(err)
	}
	target, err := server.NewInstance("CopySvcImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		t.Fatal(err)
	}
	f := &copyFixture{k: k, client: client, task: k.NewDetachedTask(client, "copy"), cap: cap}
	t.Cleanup(f.task.Close)
	return f
}

// perCall reports the allocations of one LRMI of method with arg.
func (f *copyFixture) perCall(t *testing.T, method string, arg *vmkit.Object) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		if _, err := f.cap.InvokeVM(f.task, method, arg); err != nil {
			t.Fatal(err)
		}
	})
}

// chain builds count nodes of class with size-byte payloads in the client.
func (f *copyFixture) chain(t *testing.T, class string, count, size int) *vmkit.Object {
	t.Helper()
	var head *vmkit.Object
	for range count {
		node, err := f.client.NewInstance(class)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := f.client.NS.NewArray("[B", size)
		if err != nil {
			t.Fatal(err)
		}
		for i := range payload.Bytes {
			payload.Bytes[i] = byte(i)
		}
		setField(node, "payload", vmkit.RefVal(payload))
		setField(node, "next", vmkit.RefVal(head))
		head = node
	}
	return head
}

// allocsVMCopy checks that a serialized argument of count nodes of size
// bytes allocates what its fast-copy does: the objects the callee gets,
// and nothing else. A node is two Go allocations, the node with its
// fields and the array with its bytes, while the payload fits the largest
// byte-array block (128 B), and three past it, when the bytes are their
// own.
func allocsVMCopy(t *testing.T, count, size int) {
	f := newCopyFixture(t)
	ser := f.perCall(t, "sink", f.chain(t, "MsgS", count, size))
	fast := f.perCall(t, "sinkF", f.chain(t, "MsgF", count, size))
	perNode := 2
	if size > 128 {
		perNode = 3
	}
	if want := float64(perNode * count); ser != want || fast != want {
		t.Errorf("%dx%d: serialized %.1f allocs/call, fast-copy %.1f, want %.0f each", count, size, ser, fast, want)
	}
}

func TestAllocsVMCopy1x10(t *testing.T)   { allocsVMCopy(t, 1, 10) }
func TestAllocsVMCopy1x100(t *testing.T)  { allocsVMCopy(t, 1, 100) }
func TestAllocsVMCopy10x10(t *testing.T)  { allocsVMCopy(t, 10, 10) }
func TestAllocsVMCopy1x1000(t *testing.T) { allocsVMCopy(t, 1, 1000) }

// A VM string argument allocates the one Go allocation a short VM string
// (at most 32 bytes) is: the string with its field, and its byte array
// with the bytes, in one block. It measured 2 when the string and its
// array were a block each.
func TestAllocsVMStringArgument(t *testing.T) {
	f := newCopyFixture(t)
	s, err := f.client.NS.NewString("a string argument of some length")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.perCall(t, "str", s); got != 1 {
		t.Errorf("VM string argument: %.1f allocs/call, want 1", got)
	}
}
