package vmkit

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary class-file format ("JKC2"): the []byte that resolvers hand to a
// namespace, that the verifier checks, and that interposition may rewrite.
// A method carries no frame shape; the verifier derives it from the code.
//
//	magic "JKC2"
//	class:   str name, str super, u16 flags, vec<str> interfaces,
//	         vec<field>, vec<method>
//	field:   str name, str desc, u8 static
//	method:  str name, str desc, u16 flags, vec<instr>, vec<exc>
//	instr:   u8 op, then per opTable: varint I | f64 F | str S
//	exc:     u32 from, u32 to, u32 handler, str type
//
// All integers are unsigned varints except f64 (fixed 8 bytes, little
// endian) and the u8/u16/u32 noted above, which are also varint-encoded but
// range-checked on decode.

const classMagic = "JKC2"

// maxCounts bound decoded vector lengths so a hostile class file cannot
// force huge allocations before verification.
const (
	maxFields  = 1 << 14
	maxMethods = 1 << 14
	maxCode    = 1 << 20
	maxExcs    = 1 << 12
	maxStrLen  = 1 << 16
	maxIfaces  = 1 << 8
)

// EncodeClass serializes def into the binary class format.
func EncodeClass(def *ClassDef) []byte {
	w := &cfWriter{}
	w.raw([]byte(classMagic))
	w.str(def.Name)
	w.str(def.Super)
	w.uvarint(uint64(def.Flags))
	w.uvarint(uint64(len(def.Interfaces)))
	for _, it := range def.Interfaces {
		w.str(it)
	}
	w.uvarint(uint64(len(def.Fields)))
	for _, f := range def.Fields {
		w.str(f.Name)
		w.str(f.Desc)
		var flags byte
		if f.Static {
			flags |= 1
		}
		if f.Private {
			flags |= 2
		}
		w.byte(flags)
	}
	w.uvarint(uint64(len(def.Methods)))
	for i := range def.Methods {
		m := &def.Methods[i]
		w.str(m.Name)
		w.str(m.Desc)
		w.uvarint(uint64(m.Flags))
		w.uvarint(uint64(len(m.Code)))
		for _, in := range m.Code {
			w.byte(byte(in.Op))
			info := opTable[in.Op]
			switch {
			case info.hasI:
				w.varint(in.I)
			case info.hasF:
				w.f64(in.F)
			case info.hasS:
				w.str(in.S)
			}
		}
		w.uvarint(uint64(len(m.Excs)))
		for _, e := range m.Excs {
			w.uvarint(uint64(e.From))
			w.uvarint(uint64(e.To))
			w.uvarint(uint64(e.Handler))
			w.str(e.Type)
		}
	}
	return w.buf
}

// DecodeClass parses the binary class format. It validates structural
// bounds (lengths, opcode ranges, descriptor shapes are left to the
// verifier) but not type correctness.
func DecodeClass(data []byte) (*ClassDef, error) {
	r := &cfReader{buf: data}
	magic := r.raw(4)
	if string(magic) != classMagic {
		return nil, fmt.Errorf("vmkit: bad class magic")
	}
	def := &ClassDef{}
	def.Name = r.str()
	def.Super = r.str()
	def.Flags = ClassFlags(r.bounded(math.MaxUint16))
	nif := r.count(maxIfaces)
	for i := uint64(0); i < nif; i++ {
		def.Interfaces = append(def.Interfaces, r.str())
	}
	nf := r.count(maxFields)
	for i := uint64(0); i < nf; i++ {
		var f FieldDef
		f.Name = r.str()
		f.Desc = r.str()
		flags := r.byte()
		f.Static = flags&1 != 0
		f.Private = flags&2 != 0
		def.Fields = append(def.Fields, f)
	}
	nm := r.count(maxMethods)
	for i := uint64(0); i < nm; i++ {
		var m MethodDef
		m.Name = r.str()
		m.Desc = r.str()
		m.Flags = MethodFlags(r.bounded(math.MaxUint16))
		ni := r.count(maxCode)
		m.Code = make([]Instr, 0, ni)
		for j := uint64(0); j < ni; j++ {
			op := Opcode(r.byte())
			if op >= opMax || opTable[op].name == "" {
				return nil, fmt.Errorf("vmkit: bad opcode %d at %s.%s[%d]", op, def.Name, m.Name, j)
			}
			in := Instr{Op: op}
			info := opTable[op]
			switch {
			case info.hasI:
				in.I = r.varint()
			case info.hasF:
				in.F = r.f64()
			case info.hasS:
				in.S = r.str()
			}
			m.Code = append(m.Code, in)
		}
		ne := r.count(maxExcs)
		for j := uint64(0); j < ne; j++ {
			var e ExcEntry
			e.From = int32(r.bounded(math.MaxInt32))
			e.To = int32(r.bounded(math.MaxInt32))
			e.Handler = int32(r.bounded(math.MaxInt32))
			e.Type = r.str()
			m.Excs = append(m.Excs, e)
		}
		def.Methods = append(def.Methods, m)
	}
	if r.err != nil {
		return nil, fmt.Errorf("vmkit: truncated class file: %w", r.err)
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("vmkit: %d trailing bytes in class file", len(r.buf)-r.pos)
	}
	if !ValidIdent(def.Name) {
		return nil, fmt.Errorf("vmkit: invalid class name %q", def.Name)
	}
	return def, nil
}

type cfWriter struct{ buf []byte }

func (w *cfWriter) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *cfWriter) byte(b byte)  { w.buf = append(w.buf, b) }

func (w *cfWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *cfWriter) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *cfWriter) f64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *cfWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.raw([]byte(s))
}

type cfReader struct {
	buf []byte
	pos int
	err error
}

func (r *cfReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *cfReader) raw(n int) []byte {
	if r.err != nil || r.pos+n > len(r.buf) {
		r.fail("short read")
		return make([]byte, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *cfReader) byte() byte {
	b := r.raw(1)
	return b[0]
}

func (r *cfReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *cfReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

// bounded reads a uvarint and fails if it exceeds limit.
func (r *cfReader) bounded(limit uint64) uint64 {
	v := r.uvarint()
	if v > limit {
		r.fail("count %d exceeds limit %d", v, limit)
		return 0
	}
	return v
}

// count reads a vector or string length: at most limit, and at most the
// bytes left, since every element takes at least one. A length the input
// cannot hold fails before anything is sized by it.
func (r *cfReader) count(limit uint64) uint64 {
	return r.bounded(min(limit, uint64(len(r.buf)-r.pos)))
}

func (r *cfReader) f64() float64 {
	b := r.raw(8)
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *cfReader) str() string {
	n := r.count(maxStrLen)
	return string(r.raw(int(n)))
}
