package core

import (
	"bytes"
	"encoding/binary"
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
		if v.K == vmkit.KRef {
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
