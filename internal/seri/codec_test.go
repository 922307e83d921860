package seri

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"jkernel/internal/raceflag"
)

// TestAliasingPreserved pins the alias-table contract: byte slices shared
// between fields must dedup through tagRef and come back as one backing
// array.
func TestAliasingPreserved(t *testing.T) {
	r := wireReg()
	shared := []byte("alias")
	out, err := Copy(r, probe{Raw: shared, Raw2: shared})
	if err != nil {
		t.Fatal(err)
	}
	got := out.(probe)
	if len(got.Raw) == 0 || &got.Raw[0] != &got.Raw2[0] {
		t.Fatalf("shared byte slices decoded to separate backings")
	}
	got.Raw[0] = 'X'
	if got.Raw2[0] != 'X' {
		t.Fatalf("alias broken after decode")
	}
}

// looseDoc is Doc as a sender with dynamically typed fields would declare
// it: registered under Doc's wire name in a second registry, it produces
// streams that carry tagIface where Doc's nodes expect their own tags.
type looseDoc struct {
	Title any
	Body  any
	Tags  any
	Meta  any
	At    any
}

// TestDecodeTolerantOfForeignTags pins the shared foreign-tag routine:
// every slot takes tagNil, and a dynamically typed value of an assignable
// type, whatever its node's own tag is.
func TestDecodeTolerantOfForeignTags(t *testing.T) {
	r := wireReg()
	// tagNil in every slot: a zero Doc encodes Body/Tags/Meta/At as tagNil.
	out, err := Copy(r, Doc{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, Doc{}) {
		t.Fatalf("zero Doc round-trip: %#v", out)
	}

	sender := reg()
	sender.Register("Doc", looseDoc{})
	want := Doc{Title: "t", Body: []byte{1}, Tags: []string{"a"}, Meta: map[string]int64{"k": 1}, At: &Point{X: 2}}
	data, err := Marshal(sender, looseDoc{Title: want.Title, Body: want.Body, Tags: want.Tags, Meta: want.Meta, At: want.At})
	if err != nil {
		t.Fatal(err)
	}
	out, err = Unmarshal(r, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("dynamic values in typed slots: %#v", out)
	}
}

// narrow and wide share a wire name in two registries: what a wide sender
// writes, a narrow receiver must fit or refuse.
type narrow struct {
	I8  int8
	I16 int16
	I32 int32
	U8  uint8
	U16 uint16
	U32 uint32
	F32 float32
	Dyn int8
}

type wide struct {
	I8  int64
	I16 int64
	I32 int64
	U8  uint64
	U16 uint64
	U32 uint64
	F32 float64
	Dyn any
}

// TestScalarOverflowRejected: a number the slot's width cannot hold fails
// the decode instead of wrapping (int8 ← 300 read 44).
func TestScalarOverflowRejected(t *testing.T) {
	sender, receiver := NewRegistry(), NewRegistry()
	sender.Register("w", wide{})
	receiver.Register("w", narrow{})
	decode := func(w wide) (any, error) {
		data, err := Marshal(sender, w)
		if err != nil {
			t.Fatal(err)
		}
		return Unmarshal(receiver, data)
	}

	fits := wide{
		I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32,
		U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32,
		F32: math.MaxFloat32, Dyn: int64(-128),
	}
	out, err := decode(fits)
	if err != nil {
		t.Fatalf("in-range values: %v", err)
	}
	want := narrow{
		I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32,
		U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32,
		F32: math.MaxFloat32, Dyn: -128,
	}
	if out != any(want) {
		t.Fatalf("in-range values decoded %#v", out)
	}

	for name, w := range map[string]wide{
		"int8 300":         {I8: 300},
		"int8 -129":        {I8: -129},
		"int16 32768":      {I16: math.MaxInt16 + 1},
		"int32 2^31":       {I32: math.MaxInt32 + 1},
		"uint8 513":        {U8: 513},
		"uint16 65536":     {U16: math.MaxUint16 + 1},
		"uint32 2^32":      {U32: math.MaxUint32 + 1},
		"float32 1e300":    {F32: 1e300},
		"float32 -1e300":   {F32: -1e300},
		"dynamic int 300":  {Dyn: int64(300)},
		"dynamic uint":     {Dyn: uint64(1)},
		"dynamic string":   {Dyn: "x"},
		"dynamic float 1.": {Dyn: 1.0},
	} {
		if out, err := decode(w); err == nil {
			t.Errorf("%s: decoded as %#v, want an error", name, out)
		}
	}
	// Infinities are values, not overflows.
	if _, err := decode(wide{F32: math.Inf(1)}); err != nil {
		t.Errorf("float32 +Inf: %v", err)
	}
}

// TestRegisterRenamesReachableNodes: a struct first met nested and
// unregistered gets its wire name, and every structural name built on it,
// the moment it is registered.
func TestRegisterRenamesReachableNodes(t *testing.T) {
	r := NewRegistry()
	r.Register("outer", outer{})
	if _, err := Marshal(r, []inner{{A: 1}}); err == nil {
		t.Fatal("slice of an unregistered struct marshalled")
	}
	r.Register("inner", inner{})
	in := []inner{{A: 1, B: "b"}}
	out, err := Copy(r, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %#v", out)
	}
}

// echoMsg is the shape every gated benchmark workload sends.
type echoMsg struct {
	Seq  int64
	Data []byte
}

// TestAllocsSeriRoundtrip holds marshal+unmarshal of a 1 KiB message to
// its count: alone (the local LRMI copy), and inside the []any vector the
// wire puts it in, through the transports' entries — the vector is one
// allocation there, not four, and is not boxed to be encoded.
//
// Alone it measures 3: the decoded message's slot, its bytes and its box.
// The stream grows in pooled scratch; it measured 6 while each copy grew a
// fresh stream by appends. In the vector, 4: the vector, the message's
// slot, its bytes and its box; the stream goes into the caller's buffer.
func TestAllocsSeriRoundtrip(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := NewRegistry()
	r.Register("echoMsg", echoMsg{})
	m := echoMsg{Seq: 7, Data: make([]byte, 1024)}
	var boxed any = m
	vec := []any{m}
	buf := make([]byte, 0, 2048)
	for _, c := range []struct {
		name    string
		run     func() error
		ceiling float64
	}{
		{"alone", func() error { _, err := Copy(r, boxed); return err }, 3},
		{"in []any", func() error {
			data, err := AppendVector(buf, r, vec, nil, nil)
			if err == nil {
				_, err = UnmarshalVector(r, data, nil)
			}
			return err
		}, 4},
	} {
		got := testing.AllocsPerRun(1000, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per marshal+unmarshal", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per marshal+unmarshal, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// countingGrower counts how often it was asked; like a transport's, it
// leaves slack for the tags and names that follow a payload.
type countingGrower struct{ asked int }

func (g *countingGrower) Grow(b []byte, n int) []byte {
	g.asked++
	return append(make([]byte, 0, len(b)+n+64), b...)
}

// TestVectorEntries: the transports' entries agree with Marshal and
// Unmarshal where the golden vectors do not reach — a vector that contains
// itself (heap object 0 of its stream), a Grower asked once per payload that
// does not fit and never for what does, and a stream that is not a vector.
func TestVectorEntries(t *testing.T) {
	r := NewRegistry()
	self := make([]any, 2)
	self[0], self[1] = self, "x"
	want, err := Marshal(r, self)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendVector(nil, r, self, nil, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("self-containing vector: %v\ngot:  %x\nwant: %x", err, got, want)
	}
	out, err := UnmarshalVector(r, want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inner, ok := out[0].([]any); !ok || len(inner) != 2 || &inner[0] != &out[0] || out[1] != any("x") {
		t.Errorf("self-containing vector decoded to %#v", out)
	}

	g := &countingGrower{}
	big, small := make([]byte, 4096), []byte("fits")
	data, err := AppendVector(make([]byte, 0, 512), r, []any{small, big, "a string that fits"}, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if g.asked != 1 {
		t.Errorf("Grower asked %d times, want once (for the 4 KiB payload)", g.asked)
	}
	if ref, _ := Marshal(r, []any{small, big, "a string that fits"}); !bytes.Equal(data, ref) {
		t.Error("a grown stream differs from Marshal's")
	}

	for _, v := range []any{"a string", int64(1), map[string]any{}, []string{"a"}} {
		data, err := Marshal(r, v)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := UnmarshalVector(r, data, nil); err == nil {
			t.Errorf("stream of %T decoded as the vector %#v", v, out)
		}
	}
}

// TestAllocsDecodeContainersNeverEncoded: a receive-only kernel decodes the
// containers of primitives ([]string, map[string]int64, []int64 straight in
// the args vector) from nodes compiled with the registry, not per call. The
// ceiling is the count of the commit before the single codec.
func TestAllocsDecodeContainersNeverEncoded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	data, err := Marshal(NewRegistry(), []any{[]string{"a", "b"}, map[string]int64{"k": 1}, []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry() // has encoded nothing
	got := testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(r, data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per unmarshal", got)
	if got > 21 {
		t.Errorf("%.0f allocs per unmarshal, ceiling 21", got)
	}
}

// treeA and treeB are mutually recursive through a pointer, a slice and a
// map.
type treeA struct {
	Tag  string
	Kids []*treeB
	Self *treeA
}

type treeB struct {
	Up    *treeA
	Index map[string]*treeA
}

// TestConcurrentFirstUseOfRecursiveTypes: 16 goroutines register and first
// use two mutually recursive types, and container types only ever met as
// dynamic values, on one fresh registry at once (run under -race).
func TestConcurrentFirstUseOfRecursiveTypes(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := NewRegistry()
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Register("treeA", treeA{})
				r.Register("treeB", treeB{})
				a := &treeA{Tag: "root"}
				a.Self = a
				a.Kids = []*treeB{{Up: a, Index: map[string]*treeA{"root": a}}}
				for _, v := range []any{a, []*treeA{a, a}, map[string]*treeB{"k": a.Kids[0]}, &a} {
					out, err := Copy(r, v)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(out, v) {
						t.Errorf("got %#v", out)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// nestedName spells a distinct structural type per i: one "[]" or "*" per
// bit.
func nestedName(i, bits int) string {
	var sb strings.Builder
	for b := 0; b < bits; b++ {
		if i>>b&1 == 0 {
			sb.WriteString("[]")
		} else {
			sb.WriteString("*")
		}
	}
	sb.WriteString("int")
	return sb.String()
}

// TestDecodeDoesNotGrowCodecCache: the types a peer names into existence
// are compiled for that decode only.
func TestDecodeDoesNotGrowCodecCache(t *testing.T) {
	r := reg()
	base := r.state.Load()
	for i := 0; i < 10000; i++ {
		stream := appendStr([]byte{tagIface}, nestedName(i, 14))
		stream = append(stream, tagNil)
		if _, err := Unmarshal(r, stream); err != nil {
			t.Fatalf("%s: %v", nestedName(i, 14), err)
		}
	}
	if s := r.state.Load(); s != base {
		t.Fatalf("decoding republished the registry snapshot: %d → %d codecs, %d → %d names",
			len(base.codecs), len(s.codecs), len(base.named), len(s.named))
	}
}

// TestDecodeCompileBounded: what a stream can make the decoder compile is
// bounded however many types it names, and linear in the length of a name.
// The first stream is []any of 64 distinct names of about 4000 bytes each
// (256 KB; with a name built per level it cost 785 MB and 2 s), the second
// 6400 distinct short ones.
func TestDecodeCompileBounded(t *testing.T) {
	forged := func(vals, bits int) []byte {
		s := append(appendStr([]byte{tagIface}, "[]any"), tagSlice)
		s = binary.AppendUvarint(s, uint64(vals))
		for i := 0; i < vals; i++ {
			s = append(appendStr(append(s, tagIface), nestedName(i, bits)), tagNil)
		}
		return s
	}
	r := reg()
	for name, stream := range map[string][]byte{"long names": forged(64, 2000), "many names": forged(6400, 16)} {
		// Once unmeasured: reflect builds and keeps each type a name spells,
		// here as at every commit before.
		Unmarshal(r, stream)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(r, stream)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "structural types unknown here") {
			t.Errorf("%s: decoded past the per-stream bound: %v", name, err)
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d-byte stream, %d allocs, %d bytes", name, len(stream), allocs, bytes)
		if !raceflag.Enabled && (allocs > 20_000 || bytes > 2<<20) {
			t.Errorf("%s: %d allocs, %d bytes to refuse a %d-byte stream", name, allocs, bytes, len(stream))
		}
	}
}

// TestEncodeLearnsUpToBound: the dynamic types of encoded values are cached
// up to maxCodecs and still encode past it.
func TestEncodeLearnsUpToBound(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 1<<11; i++ {
		name := nestedName(i, 11)
		typ, err := r.state.Load().typeFor(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Marshal(r, reflect.Zero(typ).Interface())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := append(appendStr([]byte{tagIface}, name), tagNil); string(data) != string(want) {
			t.Fatalf("%s: stream %x, want %x", name, data, want)
		}
	}
	if n := len(r.state.Load().codecs); n > maxCodecs || n < maxCodecs/2 {
		t.Fatalf("codec cache holds %d nodes, bound %d", n, maxCodecs)
	}
}

// TestUnsupportedKindsCrossInNeitherDirection: what cannot be encoded
// cannot be decoded either, so a decoded value always re-encodes.
func TestUnsupportedKindsCrossInNeitherDirection(t *testing.T) {
	r := NewRegistry()
	r.Register("arrays", arrays{})
	if _, err := Marshal(r, arrays{P: &[4]byte{}}); err == nil {
		t.Error("pointer to array marshalled")
	}
	// arrays{P: → tagPtr → tagNil}: a non-nil pointer to a zero array.
	stream := appendStr([]byte{tagIface}, "arrays")
	stream = append(stream, tagStruct)
	stream = binary.AppendUvarint(stream, 1)
	stream = appendStr(stream, "P")
	stream = append(stream, tagPtr, tagNil)
	if out, err := Unmarshal(r, stream); err == nil {
		t.Errorf("array slot filled: %#v", out)
	}
}
