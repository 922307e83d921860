package vmkit

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"jkernel/internal/account"
	"jkernel/internal/raceflag"
)

// The header every VM object carries, the slot every field, local and
// operand takes, and the Go allocation of each shape alloc.go builds, as
// runtime.MemStats.TotalAlloc counts it: what one object of that shape
// costs whoever allocates it, a copy into a callee included. Each shape
// is charged what its builder made, which the heap rounds up to its size
// class: charged ≤ allocated ≤ charged × 9/8 + 16.
func TestObjectLayout(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 72 {
		t.Errorf("Object is %d bytes, want 72", got)
	}
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("Value is %d bytes, want 16", got)
	}
	if raceflag.Enabled {
		t.Skip("allocation sizes are measured without -race")
	}
	_, ns := newTestNS(t, ".class Four\n.field a I\n.field b I\n.field c I\n.field d I\n")
	acct := new(account.Account)
	ns.Account = acct
	four, err := ns.Resolve("Four")
	if err != nil {
		t.Fatal(err)
	}
	ints, err := ns.arrayClass("[I", nil)
	if err != nil {
		t.Fatal(err)
	}
	doubles, err := ns.arrayClass("[D", nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := func(n int) func() *Object {
		return func() *Object { o, bytes := newInstanceObject(n); return own(o, nil, acct, bytes) }
	}
	bytes := func(n int) func() *Object {
		return func() *Object { o, bytes := newByteArrayObject(n); return own(o, nil, acct, bytes) }
	}
	array := func(c *Class, n int) func() *Object { return func() *Object { return ns.NewArrayOfClass(c, n) } }
	host := func(alloc func() (*Object, error)) func() *Object {
		return func() *Object {
			o, err := alloc()
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
	}
	for _, c := range []struct {
		shape          string
		alloc          func() *Object
		bytes, charged uint64
	}{
		{"header alone", func() *Object { return own(new(Object), nil, acct, headerBytes) }, 80, 72},
		{"instance, 0 slots", inst(0), 80, 72},
		{"instance, 1 slot", inst(1), 96, 72 + 16},
		{"instance, 2 slots", inst(2), 112, 72 + 32},
		{"instance, 3 slots", inst(3), 128, 72 + 48},
		{"instance, 4 slots", inst(4), 144, 72 + 64},
		{"instance, 5 slots, apart", inst(5), 80 + 80, 72 + 80},
		{"[B of 1-16", bytes(16), 96, 88},
		{"[B of 17-32", bytes(32), 112, 104},
		{"[B of 33-64", bytes(64), 144, 136},
		{"[B of 65-128", bytes(maxBlockBytes), 208, 200},
		{"[B of 129, apart", bytes(maxBlockBytes + 1), 80 + 144, 72 + 129},
		{"[B of 1000, apart", bytes(1000), 80 + 1024, 72 + 1000},
		{"string of <= 32 bytes", host(func() (*Object, error) { return ns.NewString("0123456789abcdef0123456789abcdef") }), 192, 72 + 16 + 72 + 32},
		{"[I of 2", array(ints, 2), 96, 88},
		{"[I of 16", array(ints, 16), 208, 200},
		{"[I of 17, apart", array(ints, 17), 80 + 144, 72 + 136},
		{"[D of 4", array(doubles, 4), 112, 104},
		{"[D of 16", array(doubles, 16), 208, 200},
		{"[D of 125, apart", array(doubles, 125), 80 + 1024, 72 + 1000},
		// The meter's shapes, through the namespace's own allocators.
		{"new of 4 int fields", host(func() (*Object, error) { return ns.NewInstance(four) }), 144, 72 + 64},
		{"[Ljk/lang/Object; of 1000", host(func() (*Object, error) { return ns.NewArray("[Ljk/lang/Object;", 1000) }), 80 + 16384, 72 + 16000},
		{"[B of 1000", host(func() (*Object, error) { return ns.NewArray("[B", 1000) }), 80 + 1024, 72 + 1000},
		{"string of 10 bytes", host(func() (*Object, error) { return ns.NewString("0123456789") }), 192, 72 + 16 + 72 + 32},
	} {
		before := acct.Snapshot().AllocBytes
		got := allocBytes(c.alloc)
		charged := uint64(acct.Snapshot().AllocBytes-before) / allocRuns
		t.Logf("%-26s %5d B allocated, %5d B charged", c.shape, got, charged)
		if got != c.bytes || charged != c.charged {
			t.Errorf("%s: %d B allocated, %d B charged; want %d, %d", c.shape, got, charged, c.bytes, c.charged)
		}
		if hi := charged*9/8 + 16; got < charged || got > hi {
			t.Errorf("%s: %d B allocated, outside the %d–%d B its charge allows", c.shape, got, charged, hi)
		}
	}
}

var layoutSink *Object

// allocRuns is how many times allocBytes calls alloc.
const allocRuns = 3 * 100

// allocBytes is the heap bytes one call of alloc allocates: the least of
// three measurements of 100 calls.
func allocBytes(alloc func() *Object) uint64 {
	const runs = allocRuns / 3
	least := uint64(math.MaxUint64)
	var m runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		for range runs {
			layoutSink = alloc()
		}
		runtime.ReadMemStats(&m)
		least = min(least, (m.TotalAlloc-before)/runs)
	}
	layoutSink = nil
	return least
}

// inBlock reports whether the payload starting at p directly follows o's
// header, in o's own allocation.
func inBlock(o *Object, p unsafe.Pointer) bool {
	return uintptr(p) == uintptr(unsafe.Pointer(o))+unsafe.Sizeof(*o)
}

// A co-located payload has cap == len, so an append moves it out of the
// block instead of writing into the bucket's spare bytes, and so into
// nothing another slice can see.
func TestColocatedPayloadsHaveNoSpareCapacity(t *testing.T) {
	for n := range 7 {
		o, _ := newInstanceObject(n)
		if len(o.Fields) != n || cap(o.Fields) != n {
			t.Errorf("%d slots: len %d cap %d", n, len(o.Fields), cap(o.Fields))
		}
		if want := n <= 4; n > 0 && inBlock(o, unsafe.Pointer(&o.Fields[0])) != want {
			t.Errorf("%d slots: in the header's block %v, want %v", n, !want, want)
		}
	}
	vm, ns := newTestNS(t)
	for _, n := range []int{0, 1, 10, 16, 17, 32, 33, 64, 65, 100, maxBlockBytes, maxBlockBytes + 1, 1000} {
		arr, err := ns.NewArray("[B", n)
		if err != nil {
			t.Fatal(err)
		}
		if arr.Bytes == nil || len(arr.Bytes) != n || cap(arr.Bytes) != n {
			t.Errorf("[B of %d: nil %v, len %d, cap %d", n, arr.Bytes == nil, len(arr.Bytes), cap(arr.Bytes))
		}
		if n == 0 {
			continue
		}
		if want := n <= maxBlockBytes; inBlock(arr, unsafe.Pointer(&arr.Bytes[0])) != want {
			t.Errorf("[B of %d: in the header's block %v, want %v", n, !want, want)
		}
		if grown := append(arr.Bytes, 0xff); &grown[0] == &arr.Bytes[0] {
			t.Errorf("[B of %d: append wrote in place", n)
		}
	}
	s, err := ns.NewString("text")
	if err != nil {
		t.Fatal(err)
	}
	b := s.Fields[s.Class.FieldByName("bytes").Slot].R
	for _, c := range []struct {
		what     string
		len, cap int
		in       bool
	}{
		{"String fields", len(s.Fields), cap(s.Fields), inBlock(s, unsafe.Pointer(&s.Fields[0]))},
		{"String bytes", len(b.Bytes), cap(b.Bytes), inBlock(b, unsafe.Pointer(&b.Bytes[0]))},
	} {
		if c.len != c.cap || !c.in {
			t.Errorf("%s: len %d cap %d, in the header's block %v", c.what, c.len, c.cap, c.in)
		}
	}
	th := vm.Throwf(ClassError, "boom")
	if len(th.Fields) != cap(th.Fields) || !inBlock(th, unsafe.Pointer(&th.Fields[0])) {
		t.Errorf("throwable fields: len %d cap %d", len(th.Fields), cap(th.Fields))
	}
}

// A co-located instance and a small array are collected once dropped; a
// slice of an array's bytes keeps the whole block, header included.
func TestColocatedObjectsAreCollected(t *testing.T) {
	_, ns := newTestNS(t)
	sc, err := ns.Resolve(ClassString)
	if err != nil {
		t.Fatal(err)
	}
	drop := func() (inst, arr, held weak.Pointer[Object], bytes []byte) {
		o, err := ns.NewInstance(sc)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ns.NewArray("[B", 24)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ns.NewArray("[B", 24)
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(o), weak.Make(a), weak.Make(h), h.Bytes
	}
	inst, arr, held, bytes := drop()
	runtime.GC()
	if inst.Value() != nil {
		t.Error("a dropped co-located instance survived a collection")
	}
	if arr.Value() != nil {
		t.Error("a dropped small array survived a collection")
	}
	if held.Value() == nil {
		t.Error("a small array whose bytes are still held was collected")
	}
	runtime.KeepAlive(bytes)
}

// A string of at most 32 bytes is one block — the instance, its one slot,
// the [B header and the bytes — and one allocation; a longer one is two.
// Both have cap == len, concat and substring build correct strings across
// the boundary, and a dropped short string is collected.
func TestColocatedString(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Str
.method static cat (Ljk/lang/String;Ljk/lang/String;)Ljk/lang/String;
  load 0
  load 1
  invokevirtual jk/lang/String.concat:(Ljk/lang/String;)Ljk/lang/String;
  retv
.end
.method static sub (Ljk/lang/String;II)Ljk/lang/String;
  load 0
  load 1
  load 2
  invokevirtual jk/lang/String.substring:(II)Ljk/lang/String;
  retv
.end
`)
	text := strings.Repeat("0123456789", 7)
	for _, n := range []int{0, 1, 16, 17, 32, 33, 70} {
		s, err := ns.NewString(text[:n])
		if err != nil {
			t.Fatal(err)
		}
		b := s.Fields[s.Class.FieldByName("bytes").Slot].R
		if len(s.Fields) != 1 || cap(s.Fields) != 1 || len(b.Bytes) != n || cap(b.Bytes) != n || StringText(s) != text[:n] {
			t.Errorf("string of %d: fields len %d cap %d, bytes len %d cap %d, text %q",
				n, len(s.Fields), cap(s.Fields), len(b.Bytes), cap(b.Bytes), StringText(s))
		}
		arrFollows := uintptr(unsafe.Pointer(b)) == uintptr(unsafe.Pointer(&s.Fields[0]))+unsafe.Sizeof(Value{})
		if want := n <= 32; arrFollows != want {
			t.Errorf("string of %d: [B in the string's block %v, want %v", n, arrFollows, want)
		}
		if !raceflag.Enabled {
			want := 2.0
			if n <= 32 {
				want = 1
			}
			if got := testing.AllocsPerRun(100, func() { ns.NewString(text[:n]) }); got != want {
				t.Errorf("NewString of %d bytes: %.1f allocs, want %.0f", n, got, want)
			}
		}
	}

	str := func(s string) Value {
		o, err := ns.NewString(s)
		if err != nil {
			t.Fatal(err)
		}
		return RefVal(o)
	}
	for _, c := range []struct{ a, b string }{{"", ""}, {"short", " and short"}, {text[:16], text[:16]}, {text[:30], text[:5]}, {text, "!"}} {
		got := callStatic(t, vm, ns, "Str.cat:(Ljk/lang/String;Ljk/lang/String;)Ljk/lang/String;", str(c.a), str(c.b))
		if StringText(got.R) != c.a+c.b {
			t.Errorf("%q.concat(%q) = %q", c.a, c.b, StringText(got.R))
		}
	}
	for _, c := range []struct{ from, to int }{{0, 0}, {3, 19}, {0, 32}, {1, 34}, {10, 70}} {
		got := callStatic(t, vm, ns, "Str.sub:(Ljk/lang/String;II)Ljk/lang/String;", str(text), IntVal(int64(c.from)), IntVal(int64(c.to)))
		if StringText(got.R) != text[c.from:c.to] {
			t.Errorf("substring(%d, %d) = %q", c.from, c.to, StringText(got.R))
		}
	}

	drop := func() weak.Pointer[Object] {
		s, err := ns.NewString("dropped")
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(s)
	}
	w := drop()
	runtime.GC()
	if w.Value() != nil {
		t.Error("a dropped short string survived a collection")
	}
}

// A "[D" element is its IEEE 754 bits: astore then aload hands back NaN
// (with its payload), -0 and both infinities bit for bit.
func TestDoubleArrayKeepsFloatBits(t *testing.T) {
	vm, ns := newTestNS(t, `
.class DArr
.method static roundtrip ([DID)D
  load 0
  load 1
  load 2
  astore
  load 0
  load 1
  aload
  retv
.end
`)
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	arr, err := ns.NewArray("[D", len(specials))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range specials {
		got := callStatic(t, vm, ns, "DArr.roundtrip:([DID)D", RefVal(arr), IntVal(int64(i)), FloatVal(x))
		bits := math.Float64bits(x)
		if got.R != nil || uint64(got.I) != bits || uint64(arr.Word(i)) != bits {
			t.Errorf("%v: aload gave %v (%#x), the array holds %#x, want %#x", x, got.Float(), got.I, arr.Word(i), bits)
		}
	}
}

// Sixteen VM threads race the first monitorenter on a fresh object: one
// monitor is installed and every thread locks that one. A plain counter
// the monitor guards is the race detector's witness.
func TestMonitorFirstEnterRace(t *testing.T) {
	vm, ns := newTestNS(t, ".class Lock\n")
	c, err := ns.Resolve("Lock")
	if err != nil {
		t.Fatal(err)
	}
	const threads = 16
	for range 50 {
		o, err := ns.NewInstance(c)
		if err != nil {
			t.Fatal(err)
		}
		var seen [threads]*monitor
		counter := 0
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range threads {
			th := vm.NewThread("racer")
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer vm.Detach(th)
				<-start
				o.monEnter(th)
				seen[i] = o.mon.Load()
				counter++
				if !o.monExit(th) {
					t.Error("monitorexit by the owner failed")
				}
			}()
		}
		close(start)
		wg.Wait()
		if counter != threads {
			t.Fatalf("%d of %d threads counted", counter, threads)
		}
		for i, m := range seen {
			if m == nil || m != seen[0] {
				t.Fatalf("thread %d locked monitor %p, thread 0 %p", i, m, seen[0])
			}
		}
		if o.mon.Load() != seen[0] || o.MonitorOwner() != nil {
			t.Fatal("the installed monitor changed or is still owned")
		}
	}
}

// The first hashCode and the first monitorenter of one fresh object race
// to install its side struct: one CAS wins, so the object ends with one
// monitor that every locker used, and one hash that every caller read.
func TestHashFirstEnterRace(t *testing.T) {
	vm, ns := newTestNS(t, ".class Lock\n")
	c, err := ns.Resolve("Lock")
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 8
	for range 50 {
		o, err := ns.NewInstance(c)
		if err != nil {
			t.Fatal(err)
		}
		var hashes [pairs]int64
		var seen [pairs]*monitor
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range pairs {
			th := vm.NewThread("locker")
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				hashes[i] = identityHash(o)
			}()
			go func() {
				defer wg.Done()
				defer vm.Detach(th)
				<-start
				o.monEnter(th)
				seen[i] = o.mon.Load()
				if !o.monExit(th) {
					t.Error("monitorexit by the owner failed")
				}
			}()
		}
		close(start)
		wg.Wait()
		for i := range pairs {
			if hashes[i] == 0 || hashes[i] != hashes[0] {
				t.Fatalf("hash %d read %d, hash 0 %d", i, hashes[i], hashes[0])
			}
			if seen[i] == nil || seen[i] != seen[0] {
				t.Fatalf("locker %d locked monitor %p, locker 0 %p", i, seen[i], seen[0])
			}
		}
		if o.mon.Load() != seen[0] || identityHash(o) != hashes[0] {
			t.Fatal("the side struct or the hash changed after the race")
		}
	}
}

// MonitorOwner reads a monitor and never installs one.
func TestAllocsMonitorOwner(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	vm, ns := newTestNS(t, ".class Lock\n")
	c, err := ns.Resolve("Lock")
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := ns.NewInstance(c)
	locked, _ := ns.NewInstance(c)
	th := vm.NewThread("owner")
	defer vm.Detach(th)
	locked.monEnter(th)
	for _, o := range []*Object{fresh, locked} {
		if got := testing.AllocsPerRun(100, func() { o.MonitorOwner() }); got != 0 {
			t.Errorf("MonitorOwner: %.1f allocs", got)
		}
	}
	if fresh.mon.Load() != nil {
		t.Error("MonitorOwner installed a monitor")
	}
	if locked.MonitorOwner() != th {
		t.Error("MonitorOwner does not name the owner")
	}
}

// Verification allocates for the class it is given: a method's frame is
// what its code names, so what defining a class costs follows the class's
// bytes, whatever locals and stack its source declares (the assembler
// drops them), however many join points its code has. A short method that
// names local 65 535 is rejected before any state is made.
func TestAllocsVerifyFollowsTheClass(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's allocations are not the verifier's")
	}
	const c, k = 128, 16 << 10
	const declared = " stack 65536 locals 65536"
	vm := MustNew(ProfileA)
	// define returns the size of the class src assembles to, the least
	// that defining it in a fresh namespace allocated in three tries, and
	// the error defining it met.
	define := func(src string) (size int, bytes uint64, err error) {
		b, err := AssembleBytes(src)
		if err != nil {
			t.Fatal(err)
		}
		bytes = math.MaxUint64
		for range 3 {
			ns := vm.NewNamespace("verify", vm.BootResolver())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = ns.DefineClass(b)
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return len(b), bytes, err
	}
	check := func(what string, size int, bytes uint64) {
		bound := uint64(c*size + k)
		t.Logf("%s: %d-byte class, %d B to define (bound %d)", what, size, bytes, bound)
		if bytes > bound {
			t.Errorf("%s: a %d-byte class costs %d B to define; bound %d", what, size, bytes, bound)
		}
	}
	jumps := func(n int, first string) string {
		var src strings.Builder
		src.WriteString(".class Jumps\n.method static f ()V" + declared + "\n" + first)
		for i := range n {
			fmt.Fprintf(&src, "  jmp l%d\nl%d:\n", i, i)
		}
		src.WriteString("  ret\n.end\n")
		return src.String()
	}

	for _, n := range []int{16, 64, 256} {
		size, bytes, err := define(".class Nops\n.method static f ()V" + declared + "\n" +
			strings.Repeat("  nop\n", n) + "  ret\n.end\n")
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d nops", n), size, bytes)
	}
	for _, n := range []int{4, 16, 256} {
		size, bytes, err := define(jumps(n, ""))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d jumps", n), size, bytes)
	}
	size, bytes, err := define(jumps(256, "  iconst 0\n  store 65535\n"))
	if err == nil || !strings.Contains(err.Error(), "local 65535 is outside") {
		t.Fatalf("256 jumps naming local 65535: got %v, want the bound's rejection", err)
	}
	check("256 jumps naming local 65535", size, bytes)
}
