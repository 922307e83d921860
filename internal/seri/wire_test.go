package seri

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// probe has one field of every kind the format carries: the scalars, two
// byte slices (aliasing), a pointer, an element slice, a map, a nested
// registered struct and an interface.
type probe struct {
	B    bool
	I8   int8
	I    int64
	U    uint64
	F32  float32
	F    float64
	S    string
	Raw  []byte
	Raw2 []byte
	Ptr  *Point
	Seq  []string
	M    map[string]int64 // golden vectors keep ≤1 entry: map order is not deterministic
	Sub  Point
	Any  any
}

// inner is never registered: it only travels nested inside outer.
type inner struct {
	A int64
	B string
}

type outer struct {
	In   inner
	List []inner
	P    *inner
}

// embeds carries an embedded registered struct; its wire field name is the
// type name.
type embeds struct {
	Point
	Z int64
}

func wireReg() *Registry {
	r := reg()
	r.Register("probe", probe{})
	r.Register("outer", outer{})
	r.Register("embeds", embeds{})
	r.Register("capHolder", capHolder{})
	return r
}

// wireCase is one golden vector: in marshals to the recorded bytes, and
// the recorded bytes decode DeepEqual to want (in when nil — they differ
// where the wire normalizes integer and float widths).
type wireCase struct {
	name string
	in   any
	want any
}

func wireCases() []wireCase {
	shared := []byte("shared-backing")
	pt := &Point{X: 7, Y: -9}
	self := &Node{Val: 1}
	self.Next = self
	a := &Node{Val: 1}
	b := &Node{Val: 2, Next: a}
	a.Next = b
	n := int64(-3)
	capA := &fakeCap{id: 9}
	return []wireCase{
		{name: "point", in: Point{X: 1, Y: 2}},
		{name: "point/zero", in: Point{}},
		{name: "node/chain", in: Node{Val: 5, Next: &Node{Val: 6}}},
		{name: "node/self-cycle", in: *self},
		{name: "doc", in: Doc{Title: "t", Body: []byte{1, 2, 3}, Tags: []string{"a", "b"}, Meta: map[string]int64{"k": 9}, At: pt}},
		{name: "doc/zero", in: Doc{}},
		{name: "probe/full", in: probe{
			B: true, I8: -8, I: 1 << 40, U: 1<<63 + 3, F32: 1.5, F: -2.25,
			S: "héllo\x00", Raw: shared, Raw2: shared, Ptr: pt,
			Seq: []string{"x", ""}, M: map[string]int64{"one": 1},
			Sub: Point{X: 3}, Any: int64(42),
		}},
		{name: "probe/empty-bytes-struct-in-any", in: probe{Raw: []byte{}, Any: Point{X: 1}}},
		{name: "probe/long-string", in: probe{S: string(make([]byte, 300))}},

		{name: "nil", in: nil},
		{name: "anyvec", in: []any{int64(1), "two", 3.5, nil, true, uint64(7), []byte("b"), Point{X: 1}, &Point{Y: 2}}},
		{name: "anyvec/empty", in: []any{}},
		{name: "anyvec/nested", in: []any{[]any{int64(1)}, map[string]any{"k": []int64{1, 2}}}},
		{name: "mapany", in: map[string]any{"k": Point{X: 1}}},
		{name: "mapany/empty", in: map[string]any{}},
		{name: "bytes/aliased", in: []any{shared, shared, shared[:6]}},
		{name: "cycle/two-node", in: a},
		{name: "unregistered/nested", in: outer{In: inner{A: 1, B: "x"}, List: []inner{{A: 2, B: "y"}}, P: &inner{A: 3, B: "z"}}},
		{name: "embedded", in: embeds{Point: Point{X: 1, Y: 2}, Z: 3}},
		{
			name: "widened",
			in:   []any{int8(-7), int16(300), int32(-70000), int(5), uint8(200), uint16(60000), uint32(1 << 31), uint(9), float32(1.5)},
			want: []any{int64(-7), int64(300), int64(-70000), int64(5), uint64(200), uint64(60000), uint64(1 << 31), uint64(9), float64(1.5)},
		},
		{name: "widened/slice", in: []int8{1, -2}, want: []int64{1, -2}},
		{name: "capvec", in: []any{capA, int64(1), capA, capHolder{Name: "svc", Cap: &fakeCap{id: 3}, Any: &fakeCap{id: 4}}}},
		{name: "cap/top-level", in: capA},
		{name: "slice/strings", in: []string{"a", ""}},
		{name: "slice/ptrs", in: []*Point{pt, pt, nil}},
		{name: "slice/bytes", in: [][]byte{shared, nil, {}}},
		{name: "map/int-keys", in: map[int64]string{5: "five"}},
		{name: "map/struct-slices", in: map[string][]Point{"k": {{X: 1}, {Y: 2}}}},
		{name: "ptr/int", in: &n},
		{name: "ptr/nil-in-any", in: (*Point)(nil)},
	}
}

// readWireV1 parses testdata/wire_v1.txt: "name hex" per line. The file
// was recorded from the commit before the single codec (two
// implementations then, policed by a differential fuzzer) and is the
// format's definition now: it is never regenerated.
func readWireV1(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/wire_v1.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, hx, _ := strings.Cut(line, " ")
		data, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("wire_v1.txt: %s: %v", name, err)
		}
		out[name] = data
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireFormatGolden holds the codec to the recorded streams: every case
// marshals to exactly the recorded bytes, and the recorded bytes decode to
// the expected value.
func TestWireFormatGolden(t *testing.T) {
	golden := readWireV1(t)
	cases := wireCases()
	if len(golden) != len(cases) {
		t.Errorf("wire_v1.txt holds %d vectors, the case table %d", len(golden), len(cases))
	}
	r, ext := wireReg(), permissiveExt{}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no recorded vector", c.name)
			continue
		}
		got, err := MarshalExt(r, c.in, ext)
		if err != nil {
			t.Errorf("%s: marshal: %v", c.name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stream changed\ngot:  %x\nwant: %x", c.name, got, want)
		}
		out, err := UnmarshalExt(r, want, ext)
		if err != nil {
			t.Errorf("%s: unmarshal: %v", c.name, err)
			continue
		}
		exp := c.want
		if exp == nil {
			exp = c.in
		}
		if !reflect.DeepEqual(out, exp) {
			t.Errorf("%s: decoded %#v, want %#v", c.name, out, exp)
		}
		// A vector also crosses by the transports' own entries: the same
		// bytes out, the same value back.
		vec, ok := c.in.([]any)
		if !ok {
			continue
		}
		if got, err := AppendVector(nil, r, vec, ext, nil); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: AppendVector: %v\ngot:  %x\nwant: %x", c.name, err, got, want)
		}
		if out, err := UnmarshalVector(r, want, ext); err != nil || !reflect.DeepEqual(any(out), exp) {
			t.Errorf("%s: UnmarshalVector decoded %#v (%v), want %#v", c.name, out, err, exp)
		}
	}
}
