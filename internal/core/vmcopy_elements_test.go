package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"jkernel/internal/vmkit"
)

// refAppendByteElements is the [B element encoder as it was written
// before its loop stopped branching on the value: a tag and
// binary.AppendVarint an element.
func refAppendByteElements(buf, bs []byte) []byte {
	for _, x := range bs {
		buf = binary.AppendVarint(append(buf, vtagInt), int64(x))
	}
	return buf
}

// refByteElements is the [B element decoder as it was written before
// its loop stopped branching on the value: binary.Uvarint an element,
// with the faults d.tag and d.i raise.
func refByteElements(out, buf []byte, pos int) (int, string) {
	for j := range out {
		if pos >= len(buf) {
			return pos, "truncated stream"
		}
		if buf[pos] != vtagInt {
			return pos, "expected element tag in byte array"
		}
		ux, n := binary.Uvarint(buf[pos+1:])
		if n <= 0 {
			return pos, "bad varint"
		}
		pos += 1 + n
		out[j] = byte(unzigzag(ux))
	}
	return pos, ""
}

// sameByteElements decodes n elements of stream from pos with both
// decoders and reports where they disagree on the bytes, the cursor or
// the fault.
func sameByteElements(t *testing.T, what string, stream []byte, pos, n int) {
	t.Helper()
	got, want := bytes.Repeat([]byte{0xee}, n), bytes.Repeat([]byte{0xee}, n)
	gotPos, gotFault := byteElements(got, stream, pos)
	wantPos, wantFault := refByteElements(want, stream, pos)
	if gotPos != wantPos || gotFault != wantFault || !bytes.Equal(got, want) {
		t.Fatalf("%s: %x from %d: decoded %x to %d %q, want %x to %d %q",
			what, stream, pos, got, gotPos, gotFault, want, wantPos, wantFault)
	}
}

// checkByteElements holds the element codec to the reference loops on
// the array bs: the same stream, on a fresh buffer and on one whose spare
// capacity holds junk; and the same bytes, cursor and fault from the
// whole stream, the stream with more bytes after it, every cut inside
// its last three elements, and every element byte corrupted.
func checkByteElements(t *testing.T, bs []byte) {
	t.Helper()
	head := binary.AppendUvarint([]byte{vtagArrB}, uint64(len(bs)))
	want := refAppendByteElements(bytes.Clone(head), bs)
	junk := bytes.Repeat([]byte{0xff}, len(want)+8)
	for _, buf := range [][]byte{bytes.Clone(head), append(junk[:0], head...)} {
		if got := appendByteElements(buf, bs); !bytes.Equal(got, want) {
			t.Fatalf("%x: encoded %x, want %x", bs, got, want)
		}
	}

	start, n := len(head), len(bs)
	out := make([]byte, n)
	if pos, fault := byteElements(out, want, start); pos != len(want) || fault != "" || !bytes.Equal(out, bs) {
		t.Fatalf("%x: decoded %x to %d %q", bs, out, pos, fault)
	}
	for _, tail := range [][]byte{{vtagInt}, {0xff, 0xff}, {vtagInt, 0x80, 0x80}} {
		sameByteElements(t, "followed", append(bytes.Clone(want), tail...), start, n)
	}
	last := len(refAppendByteElements(bytes.Clone(head), bs[:max(n-3, 0)]))
	for cut := last; cut < len(want); cut++ {
		sameByteElements(t, "cut", want[:cut:cut], start, n)
	}
	for at := start; at < len(want); at++ {
		for _, b := range []byte{0xff, vtagFloat, 0x80} {
			bad := bytes.Clone(want)
			bad[at] = b
			sameByteElements(t, "corrupt", bad, start, n)
		}
	}
}

// A [B element is written and read without branching on its value, and
// every stream, whole, cut or corrupt, still reads as it did: the byte
// values 0-255 in arrays of 0 to 3 elements, Table 4's 1 000-byte payload
// and a payload of random 7-bit bytes, as the benchmark draws.
func TestSerialStreamByteElements(t *testing.T) {
	for n := 0; n <= 3; n++ {
		for v := range 256 {
			bs := make([]byte, n)
			for i := range bs {
				bs[i] = byte(v + 97*i)
			}
			checkByteElements(t, bs)
		}
	}
	table4, random := make([]byte, 1000), make([]byte, 1000)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range table4 {
		table4[i], random[i] = byte(i), byte(r.Uint32())&0x7f
	}
	checkByteElements(t, table4)
	checkByteElements(t, random)
}

// byteArrays lists the [B arrays reachable from o.
func byteArrays(o *vmkit.Object, seen map[*vmkit.Object]bool) [][]byte {
	if o == nil || seen[o] {
		return nil
	}
	seen[o] = true
	var out [][]byte
	if o.Class.Name == "[B" {
		out = append(out, o.Bytes)
	}
	for _, v := range o.Fields {
		if v.R != nil {
			out = append(out, byteArrays(v.R, seen)...)
		}
	}
	return out
}

// FuzzVMSerialStream decodes n [B elements of an arbitrary body with the
// element decoder and with the reference loop: they agree on the bytes,
// the cursor and the fault, and neither panics. It is seeded with the
// element bodies, to the end of their streams, of the pinned streams.
func FuzzVMSerialStream(f *testing.F) {
	fx := newOracleFixture(f)
	seeds := map[string]bool{}
	for _, p := range fx.pinnedStreams(f) {
		stream := fx.encode(f, p.root).buf
		for _, bs := range byteArrays(p.root, map[*vmkit.Object]bool{}) {
			at := bytes.Index(stream, refAppendByteElements(nil, bs))
			if body := stream[max(at, 0):]; at >= 0 && !seeds[string(body)] {
				seeds[string(body)] = true
				f.Add(body, uint16(len(bs)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint16) {
		sameByteElements(t, "body", body, 0, int(n))
	})
}

// refAppendWords is the [I and [D element encoder as it was written while
// an array's elements were an []int64: a zigzag varint an int, a uvarint
// a double's IEEE 754 bits, after the tag and the length.
func refAppendWords(buf []byte, tag byte, words []int64) []byte {
	buf = binary.AppendUvarint(append(buf, tag), uint64(len(words)))
	for _, x := range words {
		if tag == vtagArrI {
			buf = binary.AppendVarint(buf, x)
		} else {
			buf = binary.AppendUvarint(buf, uint64(x))
		}
	}
	return buf
}

// FuzzVMSerialWords builds a [I and a [D array from the fuzz bytes, 8
// little-endian bytes an element: each encodes to the stream the reference
// loop writes for the same []int64, and comes back bit for bit through the
// serialized copy (the stream decoded in b) and the fast copy. The seeds
// hold NaNs with their payloads, -0.0, the infinities and ±2⁶³.
func FuzzVMSerialWords(f *testing.F) {
	fx := newOracleFixture(f)
	le := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(le(math.Float64bits(math.NaN()), 0x7ff8_0000_dead_beef, 0xfff0_0000_0000_0001, math.Float64bits(math.Copysign(0, -1))))
	f.Add(le(math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1<<63, 1<<63-1, 0, 1, 1<<64-1, math.Float64bits(-1<<63)))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]int64, min(len(data)/8, 4096))
		for i := range words {
			words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, c := range []struct {
			desc string
			tag  byte
		}{{"[I", vtagArrI}, {"[D", vtagArrD}} {
			arr := fx.array(t, c.desc, len(words))
			for i, x := range words {
				arr.SetWord(i, x)
			}
			e := fx.encode(t, arr)
			if want := refAppendWords(nil, c.tag, words); !bytes.Equal(e.buf, want) {
				t.Fatalf("%s %x: encoded %x, want %x", c.desc, words, e.buf, want)
			}
			ser, err := fx.decode(e, e.buf)
			if err != nil {
				t.Fatalf("%s %x: decode: %v", c.desc, words, err)
			}
			fast, _, err := fx.k.CopyValueBetween(fx.b, vmkit.RefVal(arr))
			if err != nil {
				t.Fatalf("%s %x: fast copy: %v", c.desc, words, err)
			}
			for path, dup := range map[string]*vmkit.Object{"serialized": ser, "fast": fast.R} {
				if dup == arr || dup.Class.Name != c.desc || dup.Class.NS != fx.b.NS || dup.Len() != len(words) {
					t.Fatalf("%s %x: %s copy is %v of %d in %s", c.desc, words, path, dup.Class.Name, dup.Len(), dup.Class.NS.Name)
				}
				for i, x := range words {
					if got := dup.Word(i); got != x {
						t.Fatalf("%s %x: %s copy [%d] = %#x, want %#x", c.desc, words, path, i, got, x)
					}
				}
			}
		}
	})
}
