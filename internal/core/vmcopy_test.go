package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
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
				for i, e := range elems {
					o.Fields[i] = vmkit.RefVal(e)
				}
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
			ints.SetWord(1, 7)
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
			if cb == boxes || cb.Class.NS != b.NS || cb.Class.Name != "[LBox;" || cb.Len() != 4 || cb.Fields[2].R != nil {
				t.Fatalf("boxes copied as %+v", cb)
			}
			if cb.Fields[0].R == b1 || cb.Fields[0].R.Class != b1.Class || cb.Fields[3].R.Fields[0].I != 2 {
				t.Fatal("the boxes' elements were not copied")
			}
			grid := get(c, "grid")
			if grid.Class.Name != "[[LBox;" || grid.Class.NS != b.NS || grid.Fields[1].R.Fields[0].R.Fields[0].I != 2 {
				t.Fatalf("grid copied as %+v", grid)
			}
			names := get(c, "names")
			if vmkit.StringText(names.Fields[0].R) != "shared" || names.Fields[0].R == name {
				t.Fatal("the names were not copied")
			}
			if ci := get(c, "ints"); ci.Fields[0].R.Word(1) != 7 || ci.Fields[0].R == ints {
				t.Fatal("the [[I was not copied")
			}
			// Serialization keeps the graph's sharing; fast-copy duplicates.
			shared := cb.Fields[0].R == cb.Fields[1].R && cb.Fields[0].R == get(c, "one") &&
				grid.Fields[0].R == cb && names.Fields[0].R == names.Fields[1].R && grid.Fields[1].R.Fields[0].R == cb.Fields[3].R
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
.method static put ([DID)V
  load 0
  load 1
  load 2
  astore
  ret
.end
.method static get ([DI)D
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
			if f := c.Fields[c.Class.FieldByName("f").Slot]; f.R != nil || uint64(f.I) != math.Float64bits(specials[1]) {
				t.Errorf("D field copied as %v (%#x)", f.Float(), f.I)
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
				if got.R != nil || uint64(got.I) != math.Float64bits(x) {
					t.Errorf("[%d] %v copied as %v (%#x), want %#x", i, x, got.Float(), got.I, math.Float64bits(x))
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
	arr.Fields[0] = vmkit.RefVal(other)
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
		arr.Fields[0], arr.Fields[1] = vmkit.RefVal(s), vmkit.RefVal(s)
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
.method sink (LMsgS;)I
  iconst 1
  retv
.end
.method sinkF (LMsgF;)I
  iconst 1
  retv
.end
.method str (Ljk/lang/String;)I
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

// bytesPerCall reports the bytes one LRMI of method with arg allocates
// (bytesPerRun).
func (f *copyFixture) bytesPerCall(t *testing.T, method string, arg *vmkit.Object) float64 {
	t.Helper()
	return float64(bytesPerRun(200, func() {
		if _, err := f.cap.InvokeVM(f.task, method, arg); err != nil {
			t.Fatal(err)
		}
	}))
}

// nodeBytes is what one Table 4 node and its payload of the given size
// allocate, by Go's size classes (vmkit's TestObjectLayout): the node is a
// 72-byte header with its two 16-byte slots (104, in a block of 112); a
// payload of at most 128 bytes shares a block with its header (72 + 16 in
// the smallest, 96), a larger one is a header (80) and the bytes' own
// allocation. They were 128 + 96, 128 + 208 and 128 + 80 + 1024 with
// 24-byte slots, and 144 + 112, 144 + 224 and 144 + 96 + 1024 with a
// 96-byte header.
var nodeBytes = map[int]float64{10: 112 + 96, 100: 112 + 208, 1000: 112 + 80 + 1024}

// allocsVMCopy checks that a serialized argument of count nodes of size
// bytes allocates what its fast-copy does: the objects the callee gets,
// and nothing else. A node is two Go allocations, the node with its
// fields and the array with its bytes, while the payload fits the largest
// byte-array block (128 B), and three past it, when the bytes are their
// own. It pins the bytes too, nodeBytes a node.
func allocsVMCopy(t *testing.T, count, size int) {
	f := newCopyFixture(t)
	ser, fast := f.chain(t, "MsgS", count, size), f.chain(t, "MsgF", count, size)
	perNode := 2
	if size > 128 {
		perNode = 3
	}
	if want, sa, fa := float64(perNode*count), f.perCall(t, "sink", ser), f.perCall(t, "sinkF", fast); sa != want || fa != want {
		t.Errorf("%dx%d: serialized %.1f allocs/call, fast-copy %.1f, want %.0f each", count, size, sa, fa, want)
	}
	if raceflag.Enabled {
		return
	}
	if want, sb, fb := nodeBytes[size]*float64(count), f.bytesPerCall(t, "sink", ser), f.bytesPerCall(t, "sinkF", fast); sb != want || fb != want {
		t.Errorf("%dx%d: serialized %.1f B/call, fast-copy %.1f, want %.0f each", count, size, sb, fb, want)
	}
}

func TestAllocsVMCopy1x10(t *testing.T)   { allocsVMCopy(t, 1, 10) }
func TestAllocsVMCopy1x100(t *testing.T)  { allocsVMCopy(t, 1, 100) }
func TestAllocsVMCopy10x10(t *testing.T)  { allocsVMCopy(t, 10, 10) }
func TestAllocsVMCopy1x1000(t *testing.T) { allocsVMCopy(t, 1, 1000) }

// A VM string argument allocates the one Go allocation a short VM string
// (at most 32 bytes) is: the string with its field, and its byte array
// with the bytes, in one block of 192 bytes — two 72-byte headers, a
// 16-byte slot and 32 bytes. The block was 208 bytes with a 24-byte slot
// and 256 with a 96-byte header, and it measured 2 allocations when the
// string and its array were a block each.
func TestAllocsVMStringArgument(t *testing.T) {
	f := newCopyFixture(t)
	s, err := f.client.NS.NewString("a string argument of some length")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.perCall(t, "str", s); got != 1 {
		t.Errorf("VM string argument: %.1f allocs/call, want 1", got)
	}
	if raceflag.Enabled {
		return
	}
	if got := f.bytesPerCall(t, "str", s); got != 192 {
		t.Errorf("VM string argument: %.1f B/call, want 192", got)
	}
}

// --- the stream ----------------------------------------------------------

// encode serializes o as a serialized copy does. The encoder holds the
// stream and the side tables a decoder reads with it.
func (f *oracleFixture) encode(t testing.TB, o *vmkit.Object) *vmEncoder {
	t.Helper()
	e := &vmEncoder{k: f.k, handles: map[*vmkit.Object]uint64{}}
	if th := e.encodeObject(o); th != nil {
		t.Fatalf("encode: %s", vmkit.ThrowableMessage(th))
	}
	return e
}

// decode rebuilds the graph of stream buf, whose side tables are e's, in b.
func (f *oracleFixture) decode(e *vmEncoder, buf []byte) (*vmkit.Object, error) {
	d := &vmDecoder{k: f.k, dest: f.b, buf: buf, classes: e.classes, caps: e.caps}
	o, th := d.decodeObject()
	if th != nil {
		return nil, &ThrownVMError{Throwable: th}
	}
	return o, nil
}

// msgChain builds Table 4's argument in a: count MsgS nodes whose
// payloads hold size bytes 0, 1, 2, ...
func (f *oracleFixture) msgChain(t testing.TB, count, size int) *vmkit.Object {
	t.Helper()
	var head *vmkit.Object
	for range count {
		node := f.node(t, "MsgS")
		payload := f.array(t, "[B", size)
		for i := range payload.Bytes {
			payload.Bytes[i] = byte(i)
		}
		setField(node, "payload", vmkit.RefVal(payload))
		setField(node, "next", vmkit.RefVal(head))
		head = node
	}
	return head
}

// mixedGraph builds an S graph that meets every tag: ints and floats,
// [B, [I and [D, a string written once and then referred to, a
// reference array holding its own root, a node reached twice and two
// mentions of one capability.
func (f *oracleFixture) mixedGraph(t testing.TB) *vmkit.Object {
	t.Helper()
	root, leaf := f.node(t, "S"), f.node(t, "S")
	bs := f.array(t, "[B", 5)
	copy(bs.Bytes, []byte{0, 1, 63, 64, 255})
	ns := f.array(t, "[I", 4)
	for i, x := range []int64{0, -1, 1 << 40, math.MinInt64} {
		ns.SetWord(i, x)
	}
	ds := f.array(t, "[D", 3)
	for i, x := range []float64{math.Copysign(0, -1), math.Inf(1), 1.5} {
		ds.SetWord(i, int64(math.Float64bits(x)))
	}
	s := f.str(t, "héllo")
	arr := f.array(t, "[LS;", 3)
	arr.Fields[0], arr.Fields[2] = vmkit.RefVal(root), vmkit.RefVal(leaf)
	setField(root, "i", vmkit.IntVal(-5))
	setField(root, "f", vmkit.FloatVal(math.NaN()))
	setField(root, "b", vmkit.RefVal(bs))
	setField(root, "n", vmkit.RefVal(ns))
	setField(root, "d", vmkit.RefVal(ds))
	setField(root, "s", vmkit.RefVal(s))
	setField(root, "l", vmkit.RefVal(leaf))
	setField(root, "r", vmkit.RefVal(leaf))
	setField(root, "c", vmkit.RefVal(f.cap))
	setField(root, "a", vmkit.RefVal(arr))
	setField(leaf, "i", vmkit.IntVal(7))
	setField(leaf, "s", vmkit.RefVal(s))
	setField(leaf, "c", vmkit.RefVal(f.cap))
	return root
}

// pinnedGraph is a graph whose stream streamPins holds.
type pinnedGraph struct {
	name string
	root *vmkit.Object
}

func (f *oracleFixture) pinnedStreams(t testing.TB) []pinnedGraph {
	return []pinnedGraph{
		{"1x10", f.msgChain(t, 1, 10)},
		{"1x100", f.msgChain(t, 1, 100)},
		{"10x10", f.msgChain(t, 10, 10)},
		{"1x1000", f.msgChain(t, 1, 1000)},
		{"mixed", f.mixedGraph(t)},
	}
}

// streamPins are what the pinned graphs encoded to, and the fault each
// proper prefix of their streams decoded to, before the encoder and the
// decoder kept their cursor in locals. A fault is one letter: t
// "truncated stream", u "bad uvarint", v "bad varint", s "string overruns
// stream". faults holds every prefix's letter in order (the short
// streams), counts how many prefixes gave t, u, v and s.
var streamPins = map[string]struct {
	size   int
	sha256 string
	faults string
	counts [4]int
}{
	"1x10": {55, "6c3034491604f78c0393740a8a40a487b2ea2202a059547e226a30aaa3275618",
		"tuussssuusssssssussussssussssssututvtvtvtvtvtvtvtvtvtvt", [4]int{13, 9, 10, 23}},
	"1x100":  {271, "296cc01e312df47fe8e3e9d9ff58a90e60806a457f3d699f0104a0d69c851dfd", "", [4]int{103, 9, 136, 23}},
	"10x10":  {280, "89e35421d32f5cfb44e673748d73963577d3c65eaa14ef8d5e1cd902f0db6e0f", "", [4]int{121, 36, 100, 23}},
	"1x1000": {2780, "d2a9c78b430e0ee1a2ce795226227c12e91073b4b00250852d9c124091030f48", "", [4]int{1003, 10, 1744, 23}},
	"mixed": {194, "9ae877c97b29e83dd96021c1e3036afa1c1e45e708c8a604f896aaa84292e421",
		"tuusuusususususussusussusussusussssssssssssssssususssususssususssssusussssutvtuuuuuuuuututvtvtvtvvtvvt" +
			"uvvvvvvvvvvvvvvvvvvtuuuuuuuuuuuuuuuuuuuuuuuuuuuuutusssssstuutvtuttttutttuttututuussssuututtu",
		[4]int{29, 78, 27, 60}},
}

// The serialized copy writes the stream it always wrote: Table 4's four
// argument shapes and a graph that meets every tag encode to the pinned
// bytes, and decode to a copy of their source.
func TestSerialStreamPinned(t *testing.T) {
	f := newOracleFixture(t)
	for _, p := range f.pinnedStreams(t) {
		pin := streamPins[p.name]
		e := f.encode(t, p.root)
		if sum := sha256.Sum256(e.buf); len(e.buf) != pin.size || hex.EncodeToString(sum[:]) != pin.sha256 {
			t.Errorf("%s: %d bytes, sha256 %x; want %d, %s", p.name, len(e.buf), sum, pin.size, pin.sha256)
		}
		out, err := f.decode(e, e.buf)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := f.checkCopy("S", p.root, out); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

const deserializeFault = "jkernel: jk/kernel/RemoteException: deserialize: "

// faultLetters maps the faults of a cut stream to streamPins' letters; a
// stands for "array overruns stream".
var faultLetters = map[string]byte{
	"truncated stream": 't', "bad uvarint": 'u', "bad varint": 'v',
	"string overruns stream": 's', "array overruns stream": 'a',
}

// A cut or corrupt stream is a RemoteException with the text it always
// had. The one new text is "array overruns stream": an array whose length
// cannot fit what is left of the stream fails before it is allocated,
// where the stream used to run out inside its elements (t, u or v).
func TestSerialStreamFaults(t *testing.T) {
	f := newOracleFixture(t)
	for _, p := range f.pinnedStreams(t) {
		pin := streamPins[p.name]
		e := f.encode(t, p.root)
		got := make([]byte, len(e.buf))
		for n := range e.buf {
			_, err := f.decode(e, e.buf[:n:n])
			text, ok := "", false
			if err != nil {
				text, ok = strings.CutPrefix(err.Error(), deserializeFault)
			}
			if got[n] = faultLetters[text]; !ok || got[n] == 0 {
				t.Fatalf("%s cut at %d: got %v", p.name, n, err)
			}
			if pin.faults != "" && got[n] != pin.faults[n] && (got[n] != 'a' || !strings.Contains("tuv", pin.faults[n:n+1])) {
				t.Errorf("%s cut at %d: %q, was %q", p.name, n, got[n], pin.faults[n])
			}
		}
		count := func(c string) int { return bytes.Count(got, []byte(c)) }
		t4, u, v, s, a := count("t"), count("u"), count("v"), count("s"), count("a")
		if was := pin.counts; s != was[3] || t4 > was[0] || u > was[1] || v > was[2] || t4+u+v+a != was[0]+was[1]+was[2] || a == 0 {
			t.Errorf("%s: t %d, u %d, v %d, s %d, a %d; was %v", p.name, t4, u, v, s, a, was)
		}
	}

	e := f.encode(t, f.msgChain(t, 1, 10))
	at := bytes.Index(e.buf, []byte{vtagArrB, 10, vtagInt}) // the payload
	splice := func(from, to int, with ...byte) []byte {
		return append(append(bytes.Clone(e.buf[:from]), with...), e.buf[to:]...)
	}
	overlong := bytes.Repeat([]byte{0x80}, 10)
	ints := f.encode(t, f.mixedGraph(t))
	atI := bytes.Index(ints.buf, []byte{vtagArrI, 4}) // the [I
	for _, c := range []struct {
		name string
		e    *vmEncoder
		buf  []byte
		want string
	}{
		{"wrong element tag in [B", e, splice(at+2, at+3, vtagFloat), "expected element tag in byte array"},
		{"over-long varint in [B", e, splice(at+3, at+4, overlong...), "bad varint"},
		{"over-long [B length", e, splice(at+1, at+2, overlong...), "bad uvarint"},
		{"over-long varint in [I", ints, append(append(bytes.Clone(ints.buf[:atI+2]), overlong...), ints.buf[atI+3:]...), "bad varint"},
	} {
		if _, err := f.decode(c.e, c.buf); err == nil || err.Error() != deserializeFault+c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, deserializeFault+c.want)
		}
	}
}

// An array's length is bounded by the bytes left in the stream: a 5-byte
// stream that claims 1<<26 elements fails without allocating them.
func TestSerialStreamArrayOverrun(t *testing.T) {
	f := newOracleFixture(t)
	e := f.encode(t, f.mixedGraph(t))
	huge := binary.AppendUvarint(nil, 1<<26)
	// A [LS; of no elements ends in its length, 0.
	refs := f.encode(t, f.array(t, "[LS;", 0))
	for _, c := range []struct {
		e      *vmEncoder
		stream []byte
	}{
		{e, append([]byte{vtagArrB}, huge...)},
		{e, append([]byte{vtagArrI}, huge...)},
		{e, append([]byte{vtagArrD}, huge...)},
		{refs, binary.AppendUvarint(bytes.Clone(refs.buf[:len(refs.buf)-1]), 1<<24)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := f.decode(c.e, c.stream)
		runtime.ReadMemStats(&after)
		if want := deserializeFault + "array overruns stream"; err == nil || err.Error() != want {
			t.Errorf("%x: got %v, want %q", c.stream, err, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%x: the failed decode allocated %d B", c.stream, grew)
		}
	}
}
