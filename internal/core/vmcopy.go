package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"jkernel/internal/vmkit"
)

// vmCopyCtx copies VM values between domains under the J-Kernel calling
// convention (§3): capabilities by reference, primitives by value, and
// every other object by deep copy — serialization for jk/io/Serializable
// classes (through a real intermediate byte array, as in the paper),
// direct field copy for jk/io/FastCopy classes, direct copy with a
// cycle-tracking hash table for jk/io/FastCopyGraph. Strings and arrays
// are always copyable. Anything else may not cross.
//
// What Table 4 measures stays modelled on every copy: the serialized
// stream tags each element, keeps a handle table, and writes and
// validates a class descriptor. What it does not measure is not paid
// again per object: a copy resolves each class in the destination once
// (memo), the serializer's scratch comes from a pool, and a string's
// bytes are copied once.
type vmCopyCtx struct {
	k     *Kernel
	dest  *Domain
	bytes int64
	table map[*vmkit.Object]*vmkit.Object
	depth int
	memo  classMemo
}

// classMemo maps the classes one copy has resolved to the destination's
// class for each, in a few fixed slots reused round robin. It holds only
// successful resolutions, so a miss or a failure goes to Namespace.Resolve
// and fails there as it always did.
type classMemo struct {
	src, dst [4]*vmkit.Class
	next     int
}

func (m *classMemo) get(c *vmkit.Class) *vmkit.Class {
	for i, s := range m.src {
		if s == c {
			return m.dst[i]
		}
	}
	return nil
}

func (m *classMemo) put(src, dst *vmkit.Class) {
	m.src[m.next], m.dst[m.next] = src, dst
	m.next = (m.next + 1) % len(m.src)
}

// destClass returns the class ctx.dest binds to the name of the source
// class c. That must be c itself, unless c is an array class: dest has
// its own array class of the same descriptor (array classes are per
// namespace).
func (ctx *vmCopyCtx) destClass(c *vmkit.Class) (*vmkit.Class, error) {
	if d := ctx.memo.get(c); d != nil {
		return d, nil
	}
	d, err := ctx.dest.NS.Resolve(c.Name)
	if err == nil && (d == c || c.IsArray()) {
		ctx.memo.put(c, d)
	}
	return d, err
}

// vmCopyMaxDepth converts runaway recursion (cycles in non-graph fast-copy
// data) into an exception, matching fastcopy's behaviour on the Go path.
const vmCopyMaxDepth = 256

func (ctx *vmCopyCtx) throwf(class, format string, args ...any) *vmkit.Object {
	return ctx.k.VM.Throwf(class, format, args...)
}

// copyValue transfers one value into ctx.dest: a primitive or null by
// value, an object by copyObject.
func (ctx *vmCopyCtx) copyValue(v vmkit.Value) (vmkit.Value, *vmkit.Object) {
	if v.R == nil {
		ctx.bytes += 8
		return v, nil
	}
	o, th := ctx.copyObject(v.R)
	if th != nil {
		return vmkit.Value{}, th
	}
	return vmkit.RefVal(o), nil
}

// copyObject transfers one object into ctx.dest according to its class.
func (ctx *vmCopyCtx) copyObject(o *vmkit.Object) (*vmkit.Object, *vmkit.Object) {
	ctx.depth++
	defer func() { ctx.depth-- }()
	if ctx.depth > vmCopyMaxDepth {
		return nil, ctx.throwf(classRemoteEx,
			"argument graph too deep or cyclic (declare jk/io/FastCopyGraph)")
	}
	k := ctx.k
	cls := o.Class

	// Capabilities pass by reference — the only objects that may.
	if gateOf(o) != nil {
		ctx.bytes += 8
		return o, nil
	}

	// Arrays copy by value, recursively for reference arrays.
	if cls.IsArray() {
		return ctx.copyArray(o)
	}

	// Strings always copy (and their internal byte array copies with them,
	// so no cross-domain aliasing of string internals can arise — the
	// hazard of §2's domain-termination discussion).
	if cls.Name == vmkit.ClassString {
		text := vmkit.StringBytes(o)
		ctx.bytes += int64(len(text))
		s, err := ctx.dest.NS.NewStringBytes(text)
		if err != nil {
			return nil, ctx.throwf(vmkit.ClassError, "%v", err)
		}
		return s, nil
	}

	// The class must be visible in the destination namespace, and it must
	// be the *same* class — "two domains that share a class must also
	// share other classes referenced by that class".
	if d, err := ctx.destClass(cls); err != nil || d != cls {
		return nil, ctx.throwf(classRemoteEx,
			"class %s is not shared with domain %s", cls.Name, ctx.dest.Name)
	}

	switch {
	case cls.Implements(k.fastGraph):
		if ctx.table == nil {
			ctx.table = make(map[*vmkit.Object]*vmkit.Object)
		}
		if prev, ok := ctx.table[o]; ok {
			return prev, nil
		}
		return ctx.copyFields(o, true)
	case cls.Implements(k.fastCopy):
		return ctx.copyFields(o, false)
	case cls.Implements(k.serializable):
		return ctx.copySerialized(o)
	default:
		return nil, ctx.throwf(classRemoteEx,
			"objects of %s cannot cross domains (not a capability, not Serializable/FastCopy)", cls.Name)
	}
}

// copyFields is the fast-copy path: a fresh instance with each field
// copied under the calling convention. When track is set the new object is
// entered into the cycle table before fields copy, so cycles terminate.
func (ctx *vmCopyCtx) copyFields(o *vmkit.Object, track bool) (*vmkit.Object, *vmkit.Object) {
	dup, err := ctx.dest.NS.NewInstance(o.Class)
	if err != nil {
		return nil, ctx.throwf(vmkit.ClassError, "%v", err)
	}
	if track {
		ctx.table[o] = dup
	}
	ctx.bytes += int64(16 + 8*len(o.Fields))
	for i, fv := range o.Fields {
		cv, th := ctx.copyValue(fv)
		if th != nil {
			return nil, th
		}
		dup.Fields[i] = cv
	}
	return dup, nil
}

// copyArray copies an array into the destination namespace.
func (ctx *vmCopyCtx) copyArray(o *vmkit.Object) (*vmkit.Object, *vmkit.Object) {
	cls, err := ctx.destClass(o.Class)
	if err != nil {
		return nil, ctx.throwf(classRemoteEx, "array %s: %v", o.Class.Name, err)
	}
	dup := ctx.dest.NS.NewArrayOfClass(cls, o.Len())
	switch {
	case o.Bytes != nil:
		copy(dup.Bytes, o.Bytes)
		ctx.bytes += int64(len(o.Bytes))
	default:
		for i, e := range o.Fields {
			if e.R == nil {
				continue
			}
			ce, th := ctx.copyObject(e.R)
			if th != nil {
				return nil, th
			}
			dup.Fields[i] = vmkit.RefVal(ce)
		}
		ctx.bytes += int64(8 * len(o.Fields))
	}
	return dup, nil
}

// --- Serialization path -------------------------------------------------

// copySerialized runs the object through a real byte-array intermediate:
// encode the graph to bytes, then decode a fresh graph in the destination.
// This is the J-Kernel's default (slow) copy path whose cost Table 4
// measures against fast-copy. The encoder's and decoder's scratch is
// pooled; only the objects the decoder builds are new.
func (ctx *vmCopyCtx) copySerialized(o *vmkit.Object) (*vmkit.Object, *vmkit.Object) {
	s := vmSerialPool.Get().(*vmSerial)
	defer s.release()
	enc, dec := &s.enc, &s.dec
	enc.k = ctx.k
	if th := enc.encodeObject(o); th != nil {
		return nil, th
	}
	ctx.bytes += int64(len(enc.buf))
	dec.k, dec.dest = ctx.k, ctx.dest
	dec.buf, dec.classes, dec.caps = enc.buf, enc.classes, enc.caps
	return dec.decodeObject()
}

// vmSerial is the scratch of one serialized copy. The decoder reads the
// encoder's buffer and side tables in place.
type vmSerial struct {
	enc vmEncoder
	dec vmDecoder
}

var vmSerialPool = sync.Pool{New: func() any {
	return &vmSerial{enc: vmEncoder{handles: map[*vmkit.Object]uint64{}}}
}}

// Scratch that grew past these sizes is dropped rather than pooled, so
// one large graph does not make every later copy clear or hold its size.
const (
	vmSerialMaxBuf   = 64 << 10
	vmSerialMaxSlots = 4096
)

// release scrubs s and returns it to the pool. A pooled entry names no
// object, class, kernel or domain, so it keeps none of them alive.
func (s *vmSerial) release() {
	e, d := &s.enc, &s.dec
	e.buf = e.buf[:0]
	if cap(e.buf) > vmSerialMaxBuf {
		e.buf = nil
	}
	if len(e.handles) > vmSerialMaxSlots {
		e.handles = map[*vmkit.Object]uint64{}
	} else {
		clear(e.handles)
	}
	e.k, e.next = nil, 0
	e.classes = scrub(e.classes)
	e.caps = scrub(e.caps)
	*d = vmDecoder{objs: scrub(d.objs), seen: scrub(d.seen)}
	vmSerialPool.Put(s)
}

// scrub empties s, clearing every slot up to its capacity; it drops a
// slice over vmSerialMaxSlots.
func scrub[E any](s []*E) []*E {
	if cap(s) > vmSerialMaxSlots {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

const (
	vtagNull = iota
	vtagInt
	vtagFloat
	vtagRef
	vtagString
	vtagArrB
	vtagArrI
	vtagArrD
	vtagArrRef
	vtagObject
	vtagCap
)

// vmEncoder serializes a VM object graph. Class identities and capability
// references travel in side tables (they are pointers, not data), while
// all field and array content goes through the byte stream.
//
// The stream's cursor is a local: each method takes the stream and
// returns it grown, and only encodeObject stores it in buf. A store of a
// slice into the pooled encoder is a write barrier while the collector
// marks; a per-element store would pay one per payload byte.
type vmEncoder struct {
	k       *Kernel
	buf     []byte
	handles map[*vmkit.Object]uint64
	next    uint64
	classes []*vmkit.Class
	caps    []*vmkit.Object
}

// appendStr writes a length-prefixed string.
func appendStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// classRef emits a class reference. The first mention of a class writes a
// full class descriptor — name and declared fields — into the stream,
// exactly as Java serialization writes ObjectStreamClass descriptors;
// later mentions are back-references. The descriptor is the fixed cost
// that dominates small-argument serialization in Table 4.
func (e *vmEncoder) classRef(buf []byte, c *vmkit.Class) []byte {
	for i, k := range e.classes {
		if k == c {
			return binary.AppendUvarint(buf, uint64(i)*2+1) // back-reference: odd
		}
	}
	e.classes = append(e.classes, c)
	buf = append(buf, 0) // new-class marker
	buf = appendStr(buf, c.Name)
	fields := c.InstanceFields()
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = appendStr(buf, f.Name)
		buf = appendStr(buf, f.Desc)
	}
	return buf
}

// value appends the value v of a field of descriptor desc. A float
// travels as its IEEE 754 bits.
func (e *vmEncoder) value(buf []byte, v vmkit.Value, desc string) ([]byte, *vmkit.Object) {
	switch vmkit.DescKind(desc) {
	case vmkit.KInt:
		return binary.AppendVarint(append(buf, vtagInt), v.I), nil
	case vmkit.KFloat:
		return binary.AppendUvarint(append(buf, vtagFloat), uint64(v.I)), nil
	}
	if v.R == nil {
		return append(buf, vtagNull), nil
	}
	return e.object(buf, v.R)
}

// encodeObject appends o's graph to e.buf.
func (e *vmEncoder) encodeObject(o *vmkit.Object) *vmkit.Object {
	buf, th := e.object(e.buf, o)
	e.buf = buf
	return th
}

func (e *vmEncoder) object(buf []byte, o *vmkit.Object) ([]byte, *vmkit.Object) {
	if h, ok := e.handles[o]; ok {
		return binary.AppendUvarint(append(buf, vtagRef), h), nil
	}
	k := e.k
	cls := o.Class

	if gateOf(o) != nil {
		buf = binary.AppendUvarint(append(buf, vtagCap), uint64(len(e.caps)))
		e.caps = append(e.caps, o)
		return buf, nil
	}

	e.handles[o] = e.next
	e.next++

	switch {
	case cls.Name == vmkit.ClassString:
		text := vmkit.StringBytes(o)
		buf = binary.AppendUvarint(append(buf, vtagString), uint64(len(text)))
		buf = append(buf, text...)
	case cls.IsArray():
		switch cls.Elem() {
		case "B":
			// Element-wise with a per-element tag, like Java
			// serialization's generic typed-stream writes — this is where
			// the byte-array intermediate gets expensive (Table 4).
			buf = binary.AppendUvarint(append(buf, vtagArrB), uint64(len(o.Bytes)))
			buf = appendByteElements(buf, o.Bytes)
		case "I":
			n := o.Len()
			buf = binary.AppendUvarint(append(buf, vtagArrI), uint64(n))
			for i := range n {
				buf = binary.AppendVarint(buf, o.Word(i))
			}
		case "D":
			n := o.Len()
			buf = binary.AppendUvarint(append(buf, vtagArrD), uint64(n))
			for i := range n {
				buf = binary.AppendUvarint(buf, uint64(o.Word(i)))
			}
		default:
			buf = e.classRef(append(buf, vtagArrRef), cls)
			buf = binary.AppendUvarint(buf, uint64(len(o.Fields)))
			for _, el := range o.Fields {
				if el.R == nil {
					buf = append(buf, vtagNull)
					continue
				}
				var th *vmkit.Object
				if buf, th = e.object(buf, el.R); th != nil {
					return buf, th
				}
			}
		}
	default:
		if !cls.Implements(k.serializable) && !cls.Implements(k.fastCopy) && !cls.Implements(k.fastGraph) {
			return buf, k.VM.Throwf(classRemoteEx, "%s is not serializable", cls.Name)
		}
		buf = e.classRef(append(buf, vtagObject), cls)
		buf = binary.AppendUvarint(buf, uint64(len(o.Fields)))
		fields := cls.InstanceFields()
		for i, fv := range o.Fields {
			var th *vmkit.Object
			if buf, th = e.value(buf, fv, fields[i].Desc); th != nil {
				return buf, th
			}
		}
	}
	return buf, nil
}

// appendByteElements appends bs as [B elements, each a vtagInt tag and
// the zigzag varint of the byte: one varint byte below 64, two from 64
// up. The stream grows once, to its exact length plus a spare byte, and
// every element is the same three stores and an advance of 2 + more,
// whatever its value: a one-byte varint's third store is overwritten by
// the next tag, or lands in the spare byte past the end.
func appendByteElements(buf, bs []byte) []byte {
	n := len(buf)
	size := 2*len(bs) + wideBytes(bs)
	buf = slices.Grow(buf, size+1)
	out := buf[n : n+size+1]
	p := 0
	for _, x := range bs {
		zz, more := uint(x)<<1, (uint(x)+192)>>8 // more: x >= 64
		out[p] = vtagInt
		out[p+1] = byte(zz) | byte(more<<7)
		out[p+2] = byte(zz >> 7)
		p += 2 + int(more)
	}
	return buf[:n+size]
}

// wideBytes counts the bytes of bs from 64 up, those with bit 6 or 7 set,
// eight bytes a load.
func wideBytes(bs []byte) int {
	n := 0
	for ; len(bs) >= 8; bs = bs[8:] {
		w := binary.LittleEndian.Uint64(bs)
		n += bits.OnesCount64((w | w<<1) & 0x8080808080808080)
	}
	for _, x := range bs {
		n += int((uint(x) + 192) >> 8)
	}
	return n
}

// vmDecoder rebuilds a graph in the destination domain.
type vmDecoder struct {
	k       *Kernel
	dest    *Domain
	buf     []byte
	pos     int
	objs    []*vmkit.Object
	classes []*vmkit.Class
	seen    []*vmkit.Class // classes whose descriptors have been read
	caps    []*vmkit.Object
	prim    [3]*vmkit.Class // dest's [B, [I and [D, once resolved
}

func (d *vmDecoder) fail(format string, args ...any) *vmkit.Object {
	return d.k.VM.Throwf(classRemoteEx, "deserialize: "+format, args...)
}

func (d *vmDecoder) tag() (byte, *vmkit.Object) {
	if d.pos >= len(d.buf) {
		return 0, d.fail("truncated stream")
	}
	t := d.buf[d.pos]
	d.pos++
	return t, nil
}

func (d *vmDecoder) u() (uint64, *vmkit.Object) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *vmDecoder) i() (int64, *vmkit.Object) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	d.pos += n
	return v, nil
}

func (d *vmDecoder) decodeValue() (vmkit.Value, *vmkit.Object) {
	t, th := d.tag()
	if th != nil {
		return vmkit.Value{}, th
	}
	switch t {
	case vtagInt:
		v, th := d.i()
		if th != nil {
			return vmkit.Value{}, th
		}
		return vmkit.IntVal(v), nil
	case vtagFloat:
		v, th := d.u()
		if th != nil {
			return vmkit.Value{}, th
		}
		return vmkit.FloatVal(math.Float64frombits(v)), nil
	case vtagNull:
		return vmkit.Null(), nil
	default:
		d.pos--
		o, th := d.decodeObject()
		if th != nil {
			return vmkit.Value{}, th
		}
		return vmkit.RefVal(o), nil
	}
}

// bytes reads a length-prefixed string as a slice of the stream.
func (d *vmDecoder) bytes() ([]byte, *vmkit.Object) {
	n, th := d.u()
	if th != nil {
		return nil, th
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, d.fail("string overruns stream")
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// readClassRef parses a class reference: either a back-reference or a full
// descriptor, which is resolved in the destination namespace, checked
// against the sender's class, and validated field-by-field — the
// decode-side counterpart of Java's descriptor handling. The sender's
// class must be the destination's, except that an array class may be the
// destination's own array class of the same descriptor when both hold
// the same elements (sameArrayClass).
func (d *vmDecoder) readClassRef() (*vmkit.Class, *vmkit.Object) {
	v, th := d.u()
	if th != nil {
		return nil, th
	}
	if v%2 == 1 {
		idx := v / 2
		if idx >= uint64(len(d.seen)) {
			return nil, d.fail("bad class back-reference %d", idx)
		}
		return d.seen[idx], nil
	}
	name, th := d.bytes()
	if th != nil {
		return nil, th
	}
	nf, th := d.u()
	if th != nil {
		return nil, th
	}
	// The descriptor names the sender's class, whose name and fields are
	// at hand as strings to resolve and look up by.
	srcIdx := len(d.seen)
	if srcIdx >= len(d.classes) || string(name) != d.classes[srcIdx].Name {
		return nil, d.fail("class %s binds differently in domain %s", name, d.dest.Name)
	}
	src := d.classes[srcIdx]
	destCls, err := d.dest.NS.Resolve(src.Name)
	if err != nil {
		return nil, d.fail("class %s is not shared with domain %s", name, d.dest.Name)
	}
	if destCls != src && !sameArrayClass(src, destCls) {
		return nil, d.fail("class %s binds differently in domain %s", name, d.dest.Name)
	}
	// Validate every declared field against the descriptor.
	fields := src.InstanceFields()
	for i := uint64(0); i < nf; i++ {
		fname, th := d.bytes()
		if th != nil {
			return nil, th
		}
		fdesc, th := d.bytes()
		if th != nil {
			return nil, th
		}
		var f *vmkit.Field
		if i < uint64(len(fields)) && string(fname) == fields[i].Name {
			f = destCls.FieldByName(fields[i].Name)
		}
		if f == nil || f.Desc != string(fdesc) {
			return nil, d.fail("class %s: incompatible field %s:%s", name, fname, fdesc)
		}
	}
	d.seen = append(d.seen, destCls)
	return destCls, nil
}

// sameArrayClass reports whether dst, an array class of another
// namespace, holds what the array class src holds: the same descriptor,
// and an innermost element class that is primitive or the same class in
// both namespaces.
func sameArrayClass(src, dst *vmkit.Class) bool {
	if !src.IsArray() || dst.Name != src.Name {
		return false
	}
	elem := strings.TrimLeft(src.Name, "[")
	if elem[0] != 'L' {
		return true
	}
	name := vmkit.RefName(elem)
	c := src.NS.Lookup(name)
	return c != nil && c == dst.NS.Lookup(name)
}

// primArrayDescs are the descriptors of vtagArrB, vtagArrI and vtagArrD.
var primArrayDescs = [3]string{"[B", "[I", "[D"}

// primClass returns dest's array class for the primitive array tag t.
func (d *vmDecoder) primClass(t byte) (*vmkit.Class, error) {
	i := t - vtagArrB
	if c := d.prim[i]; c != nil {
		return c, nil
	}
	c, err := d.dest.NS.Resolve(primArrayDescs[i])
	if err != nil {
		return nil, err
	}
	d.prim[i] = c
	return c, nil
}

func (d *vmDecoder) decodeObject() (*vmkit.Object, *vmkit.Object) {
	t, th := d.tag()
	if th != nil {
		return nil, th
	}
	switch t {
	case vtagNull:
		return nil, nil
	case vtagRef:
		h, th := d.u()
		if th != nil {
			return nil, th
		}
		if h >= uint64(len(d.objs)) {
			return nil, d.fail("dangling handle %d", h)
		}
		return d.objs[h], nil
	case vtagCap:
		i, th := d.u()
		if th != nil {
			return nil, th
		}
		if i >= uint64(len(d.caps)) {
			return nil, d.fail("dangling capability %d", i)
		}
		return d.caps[i], nil
	case vtagString:
		n, th := d.u()
		if th != nil {
			return nil, th
		}
		if n > uint64(len(d.buf)-d.pos) {
			return nil, d.fail("string overruns stream")
		}
		s, err := d.dest.NS.NewStringBytes(d.buf[d.pos : d.pos+int(n)])
		d.pos += int(n)
		if err != nil {
			return nil, d.fail("%v", err)
		}
		d.objs = append(d.objs, s)
		return s, nil
	case vtagArrB, vtagArrI, vtagArrD:
		n, th := d.u()
		if th != nil {
			return nil, th
		}
		if n > 1<<26 {
			return nil, d.fail("array too large: %d", n)
		}
		// An element is at least a byte; a [B element is a tag and a byte.
		if left := uint64(len(d.buf) - d.pos); t == vtagArrB && n > left/2 || n > left {
			return nil, d.fail("array overruns stream")
		}
		cls, err := d.primClass(t)
		if err != nil {
			return nil, d.fail("%v", err)
		}
		arr := d.dest.NS.NewArrayOfClass(cls, int(n))
		d.objs = append(d.objs, arr)
		if th := d.elements(t, arr); th != nil {
			return nil, th
		}
		return arr, nil
	case vtagArrRef:
		cls, th := d.readClassRef()
		if th != nil {
			return nil, th
		}
		n, th := d.u()
		if th != nil {
			return nil, th
		}
		if n > 1<<24 {
			return nil, d.fail("array too large: %d", n)
		}
		if n > uint64(len(d.buf)-d.pos) {
			return nil, d.fail("array overruns stream")
		}
		arr := d.dest.NS.NewArrayOfClass(cls, int(n))
		d.objs = append(d.objs, arr)
		for j := range arr.Fields {
			el, th := d.decodeObject()
			if th != nil {
				return nil, th
			}
			arr.Fields[j] = vmkit.RefVal(el)
		}
		return arr, nil
	case vtagObject:
		cls, th := d.readClassRef()
		if th != nil {
			return nil, th
		}
		n, th := d.u()
		if th != nil {
			return nil, th
		}
		o, err := d.dest.NS.NewInstance(cls)
		if err != nil {
			return nil, d.fail("%v", err)
		}
		if int(n) != len(o.Fields) {
			return nil, d.fail("field count mismatch for %s", cls.Name)
		}
		d.objs = append(d.objs, o)
		for j := range o.Fields {
			v, th := d.decodeValue()
			if th != nil {
				return nil, th
			}
			o.Fields[j] = v
		}
		return o, nil
	default:
		return nil, d.fail("unknown tag %d", t)
	}
}

// elements reads the elements of arr, a primitive array of tag t. The
// cursor stays in locals and is stored back once, at the end; each
// element's varint is inline, with the faults d.i and d.u raise.
func (d *vmDecoder) elements(t byte, arr *vmkit.Object) *vmkit.Object {
	buf, pos := d.buf, d.pos
	switch t {
	case vtagArrB:
		var fault string
		if pos, fault = byteElements(arr.Bytes, buf, pos); fault != "" {
			return d.fail("%s", fault)
		}
	case vtagArrI:
		for j := range arr.Len() {
			ux, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return d.fail("bad varint")
			}
			pos += n
			arr.SetWord(j, unzigzag(ux))
		}
	default:
		for j := range arr.Len() {
			ux, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return d.fail("bad uvarint")
			}
			pos += n
			arr.SetWord(j, int64(ux))
		}
	}
	d.pos = pos
	return nil
}

// byteElements reads the [B elements at buf[pos:] into out. It returns
// the cursor past them, or the cursor at the element that failed and the
// fault's text, the one d.tag or d.i would raise. While three bytes are
// left it reads a tag and both bytes a varint may take, and advances by
// 2 + more with no branch on the value; at the stream's last two bytes,
// a wrong tag or a varint that runs to a third byte it hands over to the
// element-at-a-time loop.
func byteElements(out, buf []byte, pos int) (int, string) {
	j := 0
	for ; j < len(out) && pos < len(buf)-2; j++ {
		t, b1, b2 := buf[pos], buf[pos+1], buf[pos+2]
		if t != vtagInt || b1&b2 >= 0x80 {
			break
		}
		more := uint(b1 >> 7)
		ux := uint(b1&0x7f) | uint(b2)<<7&-more
		out[j] = byte(ux>>1) ^ -byte(ux&1)
		pos += 2 + int(more)
	}
	for ; j < len(out); j++ {
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

// unzigzag is binary.Varint's decoding of the unsigned varint ux.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// CopyValueBetween copies a VM value into dest under the calling
// convention, returning the copy and the transfer size. Exposed for tests
// and the bridge layers.
func (k *Kernel) CopyValueBetween(dest *Domain, v vmkit.Value) (vmkit.Value, int64, error) {
	ctx := &vmCopyCtx{k: k, dest: dest}
	out, th := ctx.copyValue(v)
	if th != nil {
		return vmkit.Value{}, 0, &ThrownVMError{Throwable: th}
	}
	return out, ctx.bytes, nil
}

// ThrownVMError adapts a copy-path throwable to a Go error.
type ThrownVMError struct{ Throwable *vmkit.Object }

func (e *ThrownVMError) Error() string {
	return fmt.Sprintf("jkernel: %s: %s", e.Throwable.Class.Name, vmkit.ThrowableMessage(e.Throwable))
}

// Is matches a revocation or termination throwable to the sentinel a
// native gate returns for the same fault, so a Go caller tells an
// unavailable VM callee from a failed one the same way.
func (e *ThrownVMError) Is(target error) bool {
	switch e.Throwable.Class.Name {
	case classRevokedEx:
		return target == ErrRevoked
	case classTerminatedEx:
		return target == ErrDomainTerminated
	}
	return false
}
