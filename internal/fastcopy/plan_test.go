package fastcopy

import (
	"reflect"
	"sync"
	"testing"

	"jkernel/internal/raceflag"
)

// request has the shape of httpd.Request: strings, a map, a byte slice.
type request struct {
	Method  string
	Path    string
	Query   string
	Headers map[string]string
	Body    []byte
}

type payload struct {
	Seq  int64
	Data []byte
}

func allocsOf(t *testing.T, c *Copier, v any) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := c.Copy(v); err != nil {
			t.Fatal(err)
		}
	})
}

// A bodiless request is one allocation — the struct; with a body, two. The
// reflect walker took 3 and 5 in tree mode, and a context and a cycle
// table on top in the graph mode httpd used to ask for.
func TestAllocsCopyRequest(t *testing.T) {
	c := New()
	if got := allocsOf(t, c, &request{Method: "GET", Path: "/n100/index.html"}); got > 1 {
		t.Errorf("bodiless request: %.1f allocs/copy, want 1", got)
	}
	if got := allocsOf(t, c, &request{Method: "POST", Path: "/up", Body: make([]byte, 1024)}); got > 2 {
		t.Errorf("request with a 1 KiB body: %.1f allocs/copy, want 2", got)
	}
}

// A pointer to a 1 KiB message is two allocations (struct, bytes). By
// value there is a third: reflect can only box an addressable struct by
// copying it.
func TestAllocsCopyBytesStruct(t *testing.T) {
	c := New()
	if got := allocsOf(t, c, &payload{Seq: 1, Data: make([]byte, 1024)}); got > 2 {
		t.Errorf("*payload: %.1f allocs/copy, want 2", got)
	}
	if got := allocsOf(t, c, payload{Seq: 1, Data: make([]byte, 1024)}); got > 3 {
		t.Errorf("payload by value: %.1f allocs/copy, want 3", got)
	}
	if got := allocsOf(t, c, make([]byte, 1024)); got > 2 {
		t.Errorf("[]byte: %.1f allocs/copy, want 2 (bytes, boxed header)", got)
	}
}

// Table mode costs nothing until there is a reference to track.
func TestAllocsTableOnlyWhenAliasable(t *testing.T) {
	type point struct{ X, Y int64 }
	type scalars struct {
		A    int64
		S    string
		P    point
		Null *point
	}
	c := New(WithCycleTable())
	if got := allocsOf(t, c, scalars{A: 1, S: "s"}); got > 2 {
		t.Errorf("reference-free struct in table mode: %.1f allocs/copy, want 2 (slot, box)", got)
	}
}

// Sizeof is the transfer size alone, for TestSizeofEstimates: the copy and
// its size come from one pass, so there is no separate sizing walk to call.
func Sizeof(v any) int64 {
	_, n, _ := New().CopyValue(v)
	return n
}

func TestCopySizeOfRequest(t *testing.T) {
	v := &request{Method: "GET", Path: "/p", Headers: map[string]string{"K": "vv"}, Body: make([]byte, 10)}
	_, n, err := New().CopyValue(v)
	if err != nil {
		t.Fatal(err)
	}
	// pointer 8 + strings 3+2 + map entry 1+2 + body 10
	if want := int64(8 + 3 + 2 + 1 + 2 + 10); n != want {
		t.Errorf("CopyValue size = %d, want %d", n, want)
	}
}

// A typed nil pointer boxed in an interface (an any or error field, a map
// value) has no pointee to copy: it crosses as the same typed nil.
func TestTypedNilInInterface(t *testing.T) {
	type inner struct{ A int64 }
	type holder struct {
		V   any
		N   any
		Err error
		M   map[string]any
	}
	src := &holder{V: (*inner)(nil), N: (*int)(nil), Err: (*notFound)(nil),
		M: map[string]any{"k": (*inner)(nil)}}
	for _, c := range []*Copier{New(), New(WithCycleTable()),
		New(WithCapabilityFunc(func(any) bool { return false }))} {
		out, err := c.Copy(src)
		if err != nil {
			t.Fatal(err)
		}
		got := out.(*holder)
		if p, ok := got.V.(*inner); !ok || p != nil {
			t.Errorf("V = %#v, want (*inner)(nil)", got.V)
		}
		if p, ok := got.N.(*int); !ok || p != nil {
			t.Errorf("N = %#v, want (*int)(nil)", got.N)
		}
		if p, ok := got.Err.(*notFound); !ok || p != nil {
			t.Errorf("Err = %#v, want (*notFound)(nil)", got.Err)
		}
		if p, ok := got.M["k"].(*inner); !ok || p != nil {
			t.Errorf("M[k] = %#v, want (*inner)(nil)", got.M["k"])
		}
	}
	// The same at the top level, where the pointer is the argument itself.
	if out, err := New().Copy((*inner)(nil)); err != nil || out.(*inner) != nil {
		t.Errorf("Copy((*inner)(nil)) = %#v, %v", out, err)
	}
}

type notFound struct{ Name string }

func (*notFound) Error() string { return "not found" }

func TestScalarStructsCopyByAssignment(t *testing.T) {
	type point struct{ X, Y int64 }
	type shape struct {
		Name   string
		Origin point
		Pts    []point
		Grid   [2][2]int32
		Any    any
		Ptr    *point
	}
	src := &shape{Name: "s", Origin: point{1, 2}, Pts: []point{{3, 4}, {5, 6}},
		Grid: [2][2]int32{{1, 2}, {3, 4}}, Any: point{7, 8}, Ptr: &point{9, 10}}
	out, err := New().Copy(src)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*shape)
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("copy differs: %#v", got)
	}
	if &got.Pts[0] == &src.Pts[0] || got.Ptr == src.Ptr {
		t.Error("copy aliases the source")
	}
}

// In both modes, at the top level and in fields: byte slices (copied as
// one clone, of a named type too) and strings come back as they went.
func TestEmptyAndNilContainersKeepTheirNilness(t *testing.T) {
	type blob []byte
	type boxes struct {
		NilS, EmptyS []int
		NilB, EmptyB []byte
		NilN, EmptyN blob
		NilM, EmptyM map[string]int
		Empty        string
	}
	for _, c := range []*Copier{New(), New(WithCycleTable())} {
		out, err := c.Copy(&boxes{EmptyS: []int{}, EmptyB: []byte{}, EmptyN: blob{}, EmptyM: map[string]int{}})
		if err != nil {
			t.Fatal(err)
		}
		got := out.(*boxes)
		if got.NilS != nil || got.NilB != nil || got.NilN != nil || got.NilM != nil {
			t.Errorf("table %v: nil container became non-nil", c.useTable)
		}
		if got.EmptyS == nil || got.EmptyB == nil || got.EmptyN == nil || got.EmptyM == nil {
			t.Errorf("table %v: empty container became nil", c.useTable)
		}
		for _, v := range []any{[]byte(nil), []byte{}, []byte("b"), blob(nil), blob{}, blob("n"), "", "s"} {
			got, err := c.Copy(v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Errorf("table %v: Copy(%#v) = %#v", c.useTable, v, got)
			}
		}
	}
}

// Map values that are themselves references are copied through one
// scratch cell: an entry must not see its predecessor's value.
func TestMapOfReferences(t *testing.T) {
	src := map[string][]byte{"a": []byte("xx"), "nil": nil, "b": []byte("y")}
	for _, c := range []*Copier{New(), New(WithCycleTable())} {
		out, err := c.Copy(src)
		if err != nil {
			t.Fatal(err)
		}
		got := out.(map[string][]byte)
		if !reflect.DeepEqual(got, src) {
			t.Fatalf("copy differs: %#v", got)
		}
		got["a"][0] = 'Z'
		if src["a"][0] == 'Z' {
			t.Error("copy aliases a map value")
		}
	}
}

func TestSharedSliceAndMapWithTable(t *testing.T) {
	type twice struct {
		A, B []int
		M, N map[string]int
	}
	s, m := []int{1, 2}, map[string]int{"k": 1}
	out, err := New(WithCycleTable()).Copy(&twice{A: s, B: s, M: m, N: m})
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*twice)
	got.A[0], got.M["k"] = 9, 9
	if got.B[0] != 9 || got.N["k"] != 9 {
		t.Error("aliasing lost with cycle table enabled")
	}
	if s[0] == 9 || m["k"] == 9 {
		t.Error("copy aliases the source")
	}
}

func TestCapabilityInsideInterface(t *testing.T) {
	capv := &token{id: 1}
	pred := func(v any) bool { _, ok := v.(*token); return ok }
	out, err := New(WithCapabilityFunc(pred)).Copy([]any{capv, &Inner{N: 1}, "s", int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	got := out.([]any)
	if got[0] != any(capv) {
		t.Error("capability was copied; must pass by reference")
	}
	if in := got[1].(*Inner); in.N != 1 || in == nil {
		t.Error("pointer in interface lost")
	}
	if got[2] != "s" || got[3] != int64(3) {
		t.Error("scalars in interface lost")
	}
}

// Many goroutines first-copying types no one has seen: plans are compiled
// under one lock and published whole, so every copy is complete. Run with
// -race.
func TestConcurrentFirstCopy(t *testing.T) {
	type leaf struct{ B []byte }
	type mid struct {
		L    *leaf
		Next *mid
	}
	type a struct{ M *mid }
	type b struct{ M []mid }
	type c struct{ M map[string]*mid }
	values := []any{
		&a{M: &mid{L: &leaf{B: []byte("a")}, Next: &mid{}}},
		&b{M: []mid{{L: &leaf{B: []byte("b")}}}},
		&c{M: map[string]*mid{"k": {L: &leaf{B: []byte("c")}}}},
		&Outer{Name: "o", I: &Inner{N: 1, B: []byte("d")}},
	}
	for round := 0; round < 20; round++ {
		cop := New()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := values[g%len(values)]
				out, err := cop.Copy(v)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(out, v) {
					t.Errorf("copy differs: %#v", out)
				}
			}(g)
		}
		wg.Wait()
	}
}

// Table mode keeps the graph's shape for byte slices too: one met twice is
// copied once, a shorter slice of the same array is a copy of its own, and
// a cycle through nodes that carry bytes terminates.
func TestTableModeBytes(t *testing.T) {
	type ring struct {
		Data []byte
		Next *ring
	}
	type graph struct {
		A, B, Short []byte
		R           *ring
	}
	buf := []byte("abcdef")
	r := &ring{Data: buf[2:4]}
	r.Next = r
	out, err := New(WithCycleTable()).Copy(&graph{A: buf, B: buf, Short: buf[:3], R: r})
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*graph)
	if &got.A[0] != &got.B[0] {
		t.Error("a byte slice met twice was copied twice")
	}
	if &got.Short[0] == &got.A[0] || string(got.Short) != "abc" {
		t.Errorf("the shorter slice was conflated: %q", got.Short)
	}
	if &got.A[0] == &buf[0] || string(got.A) != "abcdef" {
		t.Errorf("the copy aliases or differs from the source: %q", got.A)
	}
	if got.R == r || got.R.Next != got.R || string(got.R.Data) != "cd" {
		t.Error("the cycle did not copy to a cycle of its own")
	}
}
