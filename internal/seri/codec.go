package seri

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// codec is the compiled node of one Go type: everything the stream needs
// to know about it, derived once from its reflect.Type (the run-time
// stub-generation idea of the paper's LRMI stubs, applied to the
// serializer). enc writes a slot of the type, tag included. dec fills a
// slot after decoder.into has consumed the node's own tag; every other tag
// a slot may legitimately carry goes to decoder.foreign instead.
type codec struct {
	t       reflect.Type
	name    string // wire name, valid when nameErr is nil
	nameErr error  // why a value of this type cannot be named on the wire
	header  []byte // tagIface + uvarint(len(name)) + name: a dynamic value's prefix
	tag     byte
	enc     func(*encoder, reflect.Value) error
	dec     func(*decoder, reflect.Value) error
	// unoffered (pointer nodes) is enc past the External offer, for the
	// caller that has made the offer itself.
	unoffered func(*encoder, reflect.Value) error
}

// structuralTypes are the types the primitive wire names decode to.
var structuralTypes = map[string]reflect.Type{
	"bool":   reflect.TypeOf(false),
	"int":    reflect.TypeOf(int64(0)),
	"uint":   reflect.TypeOf(uint64(0)),
	"float":  reflect.TypeOf(float64(0)),
	"string": reflect.TypeOf(""),
	"bytes":  reflect.TypeOf([]byte(nil)),
	"any":    reflect.TypeOf((*any)(nil)).Elem(),
}

var errNoName = errors.New("seri: recursive unnamed type, or a node compiled for one decode")

// compiler builds nodes into out, reusing the published ones in base.
type compiler struct {
	names map[reflect.Type]string // registered struct names
	base  map[reflect.Type]*codec
	out   map[reflect.Type]*codec
	// unnamed leaves structural nodes without name and header: only the
	// encoder reads them, and building one per level of a peer-chosen name
	// costs the decoder the square of its length.
	unnamed bool
}

// codec returns t's node, compiling it and everything it reaches on first
// sight. The node is entered into out before its children are compiled and
// the children's closures hold the pointer, so a recursive type
// (Node{Next *Node}) finds itself there, to be filled in by the time
// anything runs.
func (cp *compiler) codec(t reflect.Type) *codec {
	if c := cp.base[t]; c != nil {
		return c
	}
	if c := cp.out[t]; c != nil {
		return c
	}
	c := &codec{t: t, nameErr: errNoName}
	cp.out[t] = c
	cp.compile(c)
	return c
}

func (c *codec) setName(name string) {
	c.name, c.nameErr = name, nil
	c.header = appendStr([]byte{tagIface}, name)
}

// nameFrom derives a structural name from the element nodes' names.
func (cp *compiler) nameFrom(c *codec, format string, elems ...*codec) {
	if cp.unnamed {
		return
	}
	names := make([]any, len(elems))
	for i, el := range elems {
		if el.nameErr != nil {
			c.nameErr = el.nameErr
			return
		}
		names[i] = el.name
	}
	c.setName(fmt.Sprintf(format, names...))
}

func (c *codec) scalar(name string, tag byte, enc func(*encoder, reflect.Value) error, dec func(*decoder, reflect.Value) error) {
	c.setName(name)
	c.tag, c.enc, c.dec = tag, enc, dec
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func (cp *compiler) compile(c *codec) {
	t := c.t
	switch t.Kind() {
	case reflect.Bool:
		c.scalar("bool", tagBool, encBool, decBool)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.scalar("int", tagInt, encInt, decInt)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		c.scalar("uint", tagUint, encUint, decUint)
	case reflect.Float32, reflect.Float64:
		c.scalar("float", tagFloat, encFloat, decFloat)
	case reflect.String:
		c.scalar("string", tagString, encString, decString)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			cp.bytes(c)
		} else {
			cp.slice(c)
		}
	case reflect.Map:
		cp.mapOf(c)
	case reflect.Ptr:
		cp.pointer(c)
	case reflect.Struct:
		cp.structOf(c)
	case reflect.Interface:
		c.setName("any")
		c.tag = tagIface
		c.enc = (*encoder).dynamic
		c.dec = func(d *decoder, v reflect.Value) error {
			x, err := d.named()
			if err != nil {
				return err
			}
			return d.place(x.Interface(), v)
		}
	default:
		// Arrays, channels, funcs, complex numbers: a registered type may
		// have such a field, but no value crosses, in either direction (no
		// dec: decoder.into refuses the slot) — what decodes must re-encode.
		c.nameErr = fmt.Errorf("seri: unsupported type %v", t)
		c.enc = func(*encoder, reflect.Value) error { return fmt.Errorf("seri: cannot encode %v", t.Kind()) }
	}
}

func encBool(e *encoder, v reflect.Value) error {
	if v.Bool() {
		e.buf = append(e.buf, tagBool, 1)
	} else {
		e.buf = append(e.buf, tagBool, 0)
	}
	return nil
}

func decBool(d *decoder, v reflect.Value) error {
	b, err := d.byte()
	if err != nil {
		return err
	}
	v.SetBool(b != 0)
	return nil
}

func encInt(e *encoder, v reflect.Value) error {
	e.buf = append(e.buf, tagInt)
	e.buf = binary.AppendVarint(e.buf, v.Int())
	return nil
}

func decInt(d *decoder, v reflect.Value) error {
	i, err := d.varint()
	if err != nil {
		return err
	}
	if v.OverflowInt(i) {
		return d.fail("%d overflows %v", i, v.Type())
	}
	v.SetInt(i)
	return nil
}

func encUint(e *encoder, v reflect.Value) error {
	e.buf = append(e.buf, tagUint)
	e.buf = binary.AppendUvarint(e.buf, v.Uint())
	return nil
}

func decUint(d *decoder, v reflect.Value) error {
	u, err := d.uvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(u) {
		return d.fail("%d overflows %v", u, v.Type())
	}
	v.SetUint(u)
	return nil
}

func encFloat(e *encoder, v reflect.Value) error {
	e.buf = append(e.buf, tagFloat)
	e.buf = binary.AppendUvarint(e.buf, math.Float64bits(v.Float()))
	return nil
}

func decFloat(d *decoder, v reflect.Value) error {
	u, err := d.uvarint()
	if err != nil {
		return err
	}
	f := math.Float64frombits(u)
	if v.OverflowFloat(f) {
		return d.fail("%g overflows %v", f, v.Type())
	}
	v.SetFloat(f)
	return nil
}

func encString(e *encoder, v reflect.Value) error {
	s := v.String()
	e.room(len(s))
	e.buf = append(e.buf, tagString)
	e.buf = appendStr(e.buf, s)
	return nil
}

func decString(d *decoder, v reflect.Value) error {
	s, err := d.strBytes()
	if err != nil {
		return err
	}
	v.SetString(string(s))
	return nil
}

// bytes: the payload verbatim. A byte slice is a heap cell like any other
// slice — overlapping slices of one array dedup through tagRef.
func (cp *compiler) bytes(c *codec) {
	t := c.t
	c.setName("bytes")
	c.tag = tagBytes
	c.enc = func(e *encoder, v reflect.Value) error {
		if e.null(v) || e.alias(heapCell{v.Pointer(), t, v.Len()}) {
			return nil
		}
		e.room(v.Len())
		e.buf = append(e.buf, tagBytes)
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len()))
		e.buf = append(e.buf, v.Bytes()...)
		return nil
	}
	c.dec = func(d *decoder, v reflect.Value) error {
		n, err := d.count("bytes", 1)
		if err != nil {
			return err
		}
		// Copy-on-decode: the result must not alias d.buf, which
		// transports and Copy recycle the moment decode returns. One
		// clone: the bytes are not cleared first to be overwritten.
		src := d.buf[d.pos : d.pos+n]
		b := make([]byte, len(src))
		copy(b, src)
		d.pos += n
		v.SetBytes(b)
		d.objs = append(d.objs, v)
		return nil
	}
}

func (cp *compiler) slice(c *codec) {
	t := c.t
	elem := cp.codec(t.Elem())
	size := uint64(t.Elem().Size())
	cp.nameFrom(c, "[]%s", elem)
	c.tag = tagSlice
	c.enc = func(e *encoder, v reflect.Value) error {
		n := v.Len()
		if e.null(v) || e.alias(heapCell{v.Pointer(), t, n}) {
			return nil
		}
		e.buf = append(e.buf, tagSlice)
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n; i++ {
			if err := elem.enc(e, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	c.dec = func(d *decoder, v reflect.Value) error {
		n, err := d.count("slice", 1)
		if err != nil {
			return err
		}
		if uint64(n)*size > maxPrealloc {
			return d.fail("slice of %d×%d-byte elements exceeds the preallocation bound", n, size)
		}
		s := reflect.MakeSlice(t, n, n)
		v.Set(s)
		d.objs = append(d.objs, v)
		for i := 0; i < n; i++ {
			if err := d.into(elem, s.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

func (cp *compiler) mapOf(c *codec) {
	t := c.t
	key, val := cp.codec(t.Key()), cp.codec(t.Elem())
	entry := uint64(t.Key().Size()+t.Elem().Size()) + 16
	cp.nameFrom(c, "map[%s]%s", key, val)
	c.tag = tagMap
	c.enc = func(e *encoder, v reflect.Value) error {
		if e.null(v) || e.alias(heapCell{v.Pointer(), t, 0}) {
			return nil
		}
		e.buf = append(e.buf, tagMap)
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len()))
		for iter := v.MapRange(); iter.Next(); {
			if err := key.enc(e, iter.Key()); err != nil {
				return err
			}
			if err := val.enc(e, iter.Value()); err != nil {
				return err
			}
		}
		return nil
	}
	c.dec = func(d *decoder, v reflect.Value) error {
		// Each entry needs at least two stream bytes (key + value tag).
		n, err := d.count("map", 2)
		if err != nil {
			return err
		}
		if uint64(n)*entry > maxPrealloc {
			return d.fail("map of %d×%d-byte entries exceeds the preallocation bound", n, entry)
		}
		m := reflect.MakeMapWithSize(t, n)
		v.Set(m)
		d.objs = append(d.objs, v)
		for i := 0; i < n; i++ {
			kv := reflect.New(key.t).Elem()
			if err := d.into(key, kv); err != nil {
				return err
			}
			// A dynamically typed key may decode to an unhashable value
			// (SetMapIndex would panic — "hash of unhashable type").
			if !kv.Comparable() {
				return d.fail("unhashable map key of type %v", kv.Type())
			}
			vv := reflect.New(val.t).Elem()
			if err := d.into(val, vv); err != nil {
				return err
			}
			m.SetMapIndex(kv, vv)
		}
		return nil
	}
}

func (cp *compiler) pointer(c *codec) {
	t := c.t
	elem := cp.codec(t.Elem())
	cp.nameFrom(c, "*%s", elem)
	c.tag = tagPtr
	c.unoffered = func(e *encoder, v reflect.Value) error {
		if e.null(v) || e.alias(heapCell{v.Pointer(), t, 0}) {
			return nil
		}
		e.buf = append(e.buf, tagPtr)
		return elem.enc(e, v.Elem())
	}
	c.enc = func(e *encoder, v reflect.Value) error {
		if e.offer(v) {
			return nil
		}
		return c.unoffered(e, v)
	}
	c.dec = func(d *decoder, v reflect.Value) error {
		p := reflect.New(elem.t)
		v.Set(p)
		d.objs = append(d.objs, v)
		return d.into(elem, p.Elem())
	}
}

// structOf compiles a struct's exported fields in declaration order, each
// with its name pre-encoded. A registered struct carries its wire name; an
// unregistered one is the same node without one, so it can travel nested
// in a registered type but not as a dynamic value.
func (cp *compiler) structOf(c *codec) {
	t := c.t
	if name, ok := cp.names[t]; ok {
		c.setName(name)
	} else {
		c.nameErr = fmt.Errorf("seri: unregistered struct type %v", t)
	}
	type field struct {
		idx   int
		name  string
		nameB []byte // uvarint(len(name)) + name
		c     *codec
	}
	var fields []*field
	byName := make(map[string]*field) // decode dispatch; unexported fields never enter
	for i := 0; i < t.NumField(); i++ {
		if sf := t.Field(i); sf.IsExported() {
			f := &field{i, sf.Name, appendStr(nil, sf.Name), cp.codec(sf.Type)}
			fields = append(fields, f)
			byName[sf.Name] = f
		}
	}
	head := binary.AppendUvarint([]byte{tagStruct}, uint64(len(fields)))
	c.tag = tagStruct
	c.enc = func(e *encoder, v reflect.Value) error {
		e.buf = append(e.buf, head...)
		for _, f := range fields {
			e.buf = append(e.buf, f.nameB...)
			if err := f.c.enc(e, v.Field(f.idx)); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
		return nil
	}
	c.dec = func(d *decoder, v reflect.Value) error {
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			fname, err := d.strBytes()
			if err != nil {
				return err
			}
			// string(fname) in the map index does not allocate.
			f := byName[string(fname)]
			if f == nil {
				return d.fail("no field %q in %v", fname, t)
			}
			if err := d.into(f.c, v.Field(f.idx)); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
		return nil
	}
}
