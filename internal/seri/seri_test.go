package seri

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type Point struct {
	X, Y int64
}

type Node struct {
	Val  int64
	Next *Node
}

type Doc struct {
	Title string
	Body  []byte
	Tags  []string
	Meta  map[string]int64
	At    *Point
}

func reg() *Registry {
	r := NewRegistry()
	r.Register("Point", Point{})
	r.Register("Node", Node{})
	r.Register("Doc", Doc{})
	return r
}

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	out, err := Copy(reg(), v)
	if err != nil {
		t.Fatalf("Copy(%#v): %v", v, err)
	}
	return out
}

func TestPrimitives(t *testing.T) {
	cases := []any{
		nil, true, false, int64(-42), uint64(99), 3.5, "héllo", "",
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v = %#v", v, got)
		}
	}
}

func TestIntWidthsNormalize(t *testing.T) {
	// Narrow ints decode as int64 (the wire type); value preserved.
	got := roundTrip(t, int8(-7))
	if got.(int64) != -7 {
		t.Errorf("int8 round trip = %v", got)
	}
}

func TestBytesAndSlices(t *testing.T) {
	for _, v := range []any{[]byte(nil), []byte{}, Doc{Body: []byte{}}} {
		if got := roundTrip(t, v); !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v = %#v", v, got)
		}
	}

	b := []byte{1, 2, 3}
	got := roundTrip(t, b).([]byte)
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("bytes = %v", got)
	}
	got[0] = 99
	if b[0] == 99 {
		t.Error("copy aliases source bytes")
	}

	s := []string{"a", "b"}
	got2 := roundTrip(t, s).([]string)
	if !reflect.DeepEqual(got2, s) {
		t.Errorf("slice = %v", got2)
	}
}

func TestStructsAndMaps(t *testing.T) {
	d := Doc{
		Title: "t",
		Body:  []byte("body"),
		Tags:  []string{"x", "y"},
		Meta:  map[string]int64{"a": 1, "b": 2},
		At:    &Point{X: 3, Y: 4},
	}
	got := roundTrip(t, d).(Doc)
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("doc = %#v", got)
	}
	got.At.X = 99
	if d.At.X == 99 {
		t.Error("copy aliases nested pointer")
	}
	got.Meta["a"] = 99
	if d.Meta["a"] == 99 {
		t.Error("copy aliases map")
	}
}

func TestCycle(t *testing.T) {
	a := &Node{Val: 1}
	b := &Node{Val: 2, Next: a}
	a.Next = b // cycle

	got := roundTrip(t, a).(*Node)
	if got.Val != 1 || got.Next.Val != 2 {
		t.Fatalf("values lost: %v -> %v", got.Val, got.Next.Val)
	}
	if got.Next.Next != got {
		t.Error("cycle not preserved")
	}
	if got == a || got.Next == b {
		t.Error("copy aliases source")
	}
}

func TestSharedSubobjectAliasPreserved(t *testing.T) {
	shared := &Point{X: 1}
	type pair struct {
		A, B *Point
	}
	r := reg()
	r.Register("pair", pair{})
	out, err := Copy(r, pair{A: shared, B: shared})
	if err != nil {
		t.Fatal(err)
	}
	p := out.(pair)
	if p.A != p.B {
		t.Error("internal aliasing lost: A and B point to different copies")
	}
	if p.A == shared {
		t.Error("copy aliases source")
	}
}

func TestUnregisteredStructRejected(t *testing.T) {
	type hidden struct{ X int }
	if _, err := Copy(NewRegistry(), hidden{X: 1}); err == nil {
		t.Error("unregistered struct accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	r := reg()
	if _, err := Unmarshal(r, []byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("garbage accepted")
	}
	good, err := Marshal(r, Doc{Title: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(r, good[:len(good)-1]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := Unmarshal(r, append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMarshalDeterministicForSameValue(t *testing.T) {
	r := reg()
	v := Doc{Title: "t", Body: []byte("abc"), At: &Point{X: 1}}
	a, err := Marshal(r, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(r, v)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("same value marshals differently (maps excluded, so this should be stable)")
	}
}

// Property: for random trees of Nodes and random Docs, Copy is an
// isomorphism that never aliases the source.
func TestQuickRandomGraphs(t *testing.T) {
	r := reg()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random linked list with random tail sharing.
		n := rng.Intn(20) + 1
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = &Node{Val: rng.Int63n(1000)}
			if i > 0 {
				nodes[i-1].Next = nodes[i]
			}
		}
		if rng.Intn(2) == 0 && n > 2 {
			nodes[n-1].Next = nodes[rng.Intn(n)] // make a cycle
		}
		out, err := Copy(r, nodes[0])
		if err != nil {
			return false
		}
		got := out.(*Node)
		// Walk both up to 3n steps comparing values and checking no alias.
		a, b := nodes[0], got
		for i := 0; i < 3*n; i++ {
			if a == nil || b == nil {
				return a == nil && b == nil
			}
			if a.Val != b.Val || a == b {
				return false
			}
			a, b = a.Next, b.Next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
