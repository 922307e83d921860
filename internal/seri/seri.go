// Package seri is the J-Kernel's default argument copier for native (Go)
// targets: a general object-graph serializer in the role of Java
// serialization. Marshalling writes a self-describing byte stream (the
// "intermediate byte array" whose cost Table 4 measures); unmarshalling
// rebuilds an isomorphic graph that shares no mutable memory with the
// source. Cycles and aliasing are preserved through reference tags, exactly
// like Java serialization's handle table.
//
// There is one codec: every Go type that crosses the stream is compiled,
// once, into a node (codec.go: its wire name, an encoder and a decoder over
// the precomputed layout), and Marshal, Unmarshal and Copy run nothing
// else. The recorded streams in testdata/wire_v1.txt pin the format.
//
// Types containing struct values must be registered by name so the decoder
// can rebuild them; this mirrors serialVersionUID-style class descriptors
// without pulling in unsafe tricks.
package seri

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// Stream tags.
const (
	tagNil = iota
	tagBool
	tagInt
	tagUint
	tagFloat
	tagString
	tagBytes
	tagSlice
	tagMap
	tagStruct
	tagPtr
	tagRef   // back-reference to an already-encoded object
	tagIface // dynamic value: type name + value
	tagCap   // capability reference: passes by handle, never by copy
)

// Registry maps type names to concrete types for decoding, and caches the
// codec node of every type it has met. A nil *Registry is valid and knows
// only primitive shapes.
//
// Registration is rare and lookups are the hot path, so the registry keeps
// its tables in an immutable snapshot swapped atomically by writers —
// readers never lock.
type Registry struct {
	mu    sync.Mutex // serializes Register; codecFor publishes by compare-and-swap
	state atomic.Pointer[regState]
}

// regState is one immutable registry snapshot.
type regState struct {
	byName map[string]reflect.Type
	byType map[reflect.Type]string
	codecs map[reflect.Type]*codec
	named  map[string]*codec // wire name -> node of the type that name decodes to
}

// maxCodecs bounds the codec cache. Beyond what Register compiles, the
// dynamic types of encoded values are cached on first use up to this bound,
// so a peer that has ever-new structural types echoed back cannot grow the
// table without limit. Past it a node lives for that one call — as does,
// always, the node of a type the decoder synthesizes from a name the peer
// chose (decoder.local, under the same bound per stream).
const maxCodecs = 1024

// noRegistry stands in for a nil *Registry.
var noRegistry = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.state.Store(newState(map[string]reflect.Type{}, map[reflect.Type]string{}))
	return r
}

func (r *Registry) orNone() *Registry {
	if r == nil {
		return noRegistry
	}
	return r
}

// newState compiles a snapshot from scratch: a new name can change the
// wire name of any node that reaches the named type, so nothing compiled
// under the old names is carried over.
func newState(byName map[string]reflect.Type, byType map[reflect.Type]string) *regState {
	s := &regState{byName: byName, byType: byType, codecs: make(map[reflect.Type]*codec), named: make(map[string]*codec)}
	// The structural types in the containers argument vectors carry ([]any,
	// map[string]any, []string, map[string]int64, ...: a kernel that only
	// ever receives these finds them compiled), then the registered types.
	for _, t := range structuralTypes {
		s.compile(s.codecs, reflect.SliceOf(t), false)
		s.compile(s.codecs, reflect.MapOf(structuralTypes["string"], t), false)
	}
	for _, t := range byName {
		s.compile(s.codecs, reflect.PointerTo(t), false)
	}
	s.add(s.codecs)
	return s
}

// compile returns t's node, compiling into out what neither s nor out holds
// of t and of every type it reaches. Nothing is published.
func (s *regState) compile(out map[reflect.Type]*codec, t reflect.Type, unnamed bool) *codec {
	cp := compiler{names: s.byType, base: s.codecs, out: out, unnamed: unnamed}
	return cp.codec(t)
}

// add enters compiled nodes into s (not published yet). named takes the
// nodes whose wire name decodes back to their own type: "[]int" names
// []int64, not the []int8 it also encodes.
func (s *regState) add(out map[reflect.Type]*codec) {
	for t, c := range out {
		s.codecs[t] = c
		if c.nameErr != nil {
			continue
		}
		if nt, err := s.typeFor(c.name); err == nil && nt == t {
			s.named[c.name] = c
		}
	}
}

// Register binds name to the dynamic type of sample (a value, not a
// pointer, for struct types). The type's codec, the codec of everything
// its fields reach and of a pointer to it are compiled here, so no call
// ever pays the layout walk.
//
//jk:wire-register 1
func (r *Registry) Register(name string, sample any) {
	t := reflect.TypeOf(sample)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.state.Load()
	byName, byType := maps.Clone(s.byName), maps.Clone(s.byType)
	byName[name] = t
	byType[t] = name
	r.state.Store(newState(byName, byType))
}

// codecFor is the encoder's lookup: it compiles the node of a type first
// met as the dynamic type of an encoded value, and publishes it while the
// cache has room and no writer got in between. Otherwise the nodes serve
// this call only; no lock is taken, and past the bound no table copied.
func (r *Registry) codecFor(t reflect.Type) *codec {
	s := r.state.Load()
	if c := s.codecs[t]; c != nil {
		return c
	}
	out := make(map[reflect.Type]*codec)
	c := s.compile(out, t, false)
	if len(s.codecs)+len(out) <= maxCodecs {
		n := &regState{byName: s.byName, byType: s.byType, codecs: maps.Clone(s.codecs), named: maps.Clone(s.named)}
		n.add(out)
		r.state.CompareAndSwap(s, n)
	}
	return c
}

// PlanInfo describes the codec compiled for a registered type.
type PlanInfo struct {
	Name      string // registered wire name
	Generated bool   // a compiled codec node exists (every registered type)
}

// Plans reports every registered type, sorted by wire name.
func (r *Registry) Plans() []PlanInfo {
	s := r.orNone().state.Load()
	out := make([]PlanInfo, 0, len(s.byName))
	for name, t := range s.byName {
		out = append(out, PlanInfo{Name: name, Generated: s.codecs[t] != nil})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// typeFor resolves a structural or registered type name.
func (s *regState) typeFor(name string) (reflect.Type, error) {
	if t, ok := structuralTypes[name]; ok {
		return t, nil
	}
	if len(name) > 2 && name[:2] == "[]" {
		et, err := s.typeFor(name[2:])
		if err != nil {
			return nil, err
		}
		return reflect.SliceOf(et), nil
	}
	if len(name) > 1 && name[0] == '*' {
		et, err := s.typeFor(name[1:])
		if err != nil {
			return nil, err
		}
		return reflect.PointerTo(et), nil
	}
	if len(name) > 4 && name[:4] == "map[" {
		depth, i := 1, 4 // i stops one past the key's closing bracket
		for ; i < len(name) && depth > 0; i++ {
			switch name[i] {
			case '[':
				depth++
			case ']':
				depth--
			}
		}
		if depth != 0 {
			return nil, fmt.Errorf("seri: bad map type %q", name)
		}
		kt, err := s.typeFor(name[4 : i-1])
		if err != nil {
			return nil, err
		}
		vt, err := s.typeFor(name[i:])
		if err != nil {
			return nil, err
		}
		// reflect.MapOf panics on invalid key types (e.g. "map[bytes]...").
		if kt.Kind() != reflect.Interface && !kt.Comparable() {
			return nil, fmt.Errorf("seri: invalid map key type in %q", name)
		}
		return reflect.MapOf(kt, vt), nil
	}
	if t, ok := s.byName[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("seri: unknown type %q", name)
}

// External resolves values that cross the stream by reference rather than
// by copy — the J-Kernel's capabilities. The encoder offers every non-nil
// pointer to EncodeExternal, once; a (handle, true) answer writes a
// capability-reference tag instead of a deep copy, and the decoder hands
// the handle back to DecodeExternal to produce the local stand-in (the
// original capability, or a proxy for a remote one).
type External interface {
	// EncodeExternal reports whether v travels by reference, and under
	// which handle.
	EncodeExternal(v any) (handle uint64, ok bool)
	// DecodeExternal resolves a handle read from the stream.
	DecodeExternal(handle uint64) (any, error)
}

// Marshal encodes v into a fresh byte slice.
func Marshal(r *Registry, v any) ([]byte, error) {
	return MarshalExt(r, v, nil)
}

// MarshalExt is Marshal with an External hook for capability references.
// The stream grows in pooled scratch and leaves as one exact-size copy.
func MarshalExt(r *Registry, v any, ext External) ([]byte, error) {
	sp, data, err := encode(r, v, ext)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	putScratch(sp, data)
	return out, nil
}

// maxScratch bounds the streams the scratch pool keeps: a larger one goes
// to the collector, so one huge copy does not pin its footprint forever.
const maxScratch = 64 << 10

// scratchPool holds the buffers Copy and Marshal encode into. Nothing a
// caller gets back refers to one: Marshal returns a copy, and the decoder
// copies every byte it keeps out of the stream.
var scratchPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// encode writes v's stream into a pooled scratch buffer, which the caller
// gives back with putScratch once done with data. A failed stream is
// dropped and its buffer is already back.
func encode(r *Registry, v any, ext External) (sp *[]byte, data []byte, err error) {
	sp = scratchPool.Get().(*[]byte)
	e := getEncoder(*sp, r, ext, nil)
	if data, err = e.finish(e.dynamic(reflect.ValueOf(v))); err != nil {
		scratchPool.Put(sp)
		return nil, nil, err
	}
	return sp, data, nil
}

// putScratch returns sp to its pool holding data's buffer, emptied.
func putScratch(sp *[]byte, data []byte) {
	if cap(data) > maxScratch {
		data = nil
	}
	*sp = data[:0]
	scratchPool.Put(sp)
}

// Grower is an output buffer that makes its own room: a transport encoding
// straight into a pooled frame buffer moves the stream to a larger pooled
// buffer rather than letting append allocate one. Grow returns b, contents
// unchanged, with capacity for at least n more bytes.
type Grower interface {
	Grow(b []byte, n int) []byte
}

// AppendVector appends the stream of the argument or result vector vals to
// dst and returns the extended slice — byte for byte what Marshal writes
// for the same []any, without boxing it. It is the transports' encode entry
// point: the stream goes straight into a framed output buffer, and where a
// payload (a []byte, a string) would outgrow the buffer, g — when not nil —
// is asked for room first.
func AppendVector(dst []byte, r *Registry, vals []any, ext External, g Grower) ([]byte, error) {
	e := getEncoder(dst, r, ext, g)
	return e.finish(e.vector(vals))
}

// encPool recycles encoders (and their alias-tracking maps) across calls;
// the per-encode state is reset on put, and the seen map keeps its buckets
// warm, so steady-state marshalling allocates only the output it grows.
var encPool = sync.Pool{
	New: func() any { return &encoder{seen: make(map[heapCell]uint64)} },
}

// maxSeenCells bounds the alias map an encoder keeps for its next use.
// Clearing a map costs its capacity, which never shrinks: one stream of
// many heap cells would otherwise make every later encode on that encoder
// pay for them.
const maxSeenCells = 1024

func getEncoder(dst []byte, r *Registry, ext External, g Grower) *encoder {
	e := encPool.Get().(*encoder)
	e.reg, e.ext, e.buf, e.grow = r.orNone(), ext, dst, g
	return e
}

// finish takes the stream out of e, which goes back to its pool.
func (e *encoder) finish(err error) ([]byte, error) {
	buf := e.buf
	e.reg, e.ext, e.buf, e.grow = nil, nil, nil, nil
	if e.next > maxSeenCells {
		e.seen = make(map[heapCell]uint64)
	} else if e.next != 0 {
		clear(e.seen)
	}
	e.next = 0
	encPool.Put(e)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Unmarshal decodes a stream produced by Marshal.
func Unmarshal(r *Registry, data []byte) (any, error) {
	return UnmarshalExt(r, data, nil)
}

// decPool recycles decoders. The objs table is cleared (dropping its
// references into the decoded graph) before put, and oversized tables are
// released so one huge decode does not pin its footprint forever.
var decPool = sync.Pool{
	New: func() any { return &decoder{} },
}

func getDecoder(r *Registry, data []byte, ext External) *decoder {
	d := decPool.Get().(*decoder)
	d.st, d.ext, d.buf, d.pos, d.depth = r.orNone().state.Load(), ext, data, 0, 0
	return d
}

// finish checks that the stream was read to its end; d goes back to its
// pool.
func (d *decoder) finish(err error) error {
	if err == nil && d.pos != len(d.buf) {
		err = fmt.Errorf("seri: %d trailing bytes", len(d.buf)-d.pos)
	}
	d.st, d.ext, d.buf, d.local, d.vec = nil, nil, nil, nil, nil
	if cap(d.objs) > 1024 {
		d.objs = nil
	} else {
		clear(d.objs)
		d.objs = d.objs[:0]
	}
	decPool.Put(d)
	return err
}

// UnmarshalExt is Unmarshal with an External hook for capability
// references. A stream containing capability references fails to decode
// without one.
func UnmarshalExt(r *Registry, data []byte, ext External) (any, error) {
	d := getDecoder(r, data, ext)
	var v any
	tag, err := d.byte()
	if err == nil {
		v, err = d.dynamic(tag)
	}
	if err = d.finish(err); err != nil {
		return nil, err
	}
	return v, nil
}

// UnmarshalVector decodes a stream AppendVector produced — the stream of a
// []any — straight into the vector: one allocation for it, none for a
// boxed copy of its header. Any other stream is an error.
func UnmarshalVector(r *Registry, data []byte, ext External) ([]any, error) {
	d := getDecoder(r, data, ext)
	vals, err := d.vector()
	if err = d.finish(err); err != nil {
		return nil, err
	}
	return vals, nil
}

// Copy deep-copies v through the serialized form — the LRMI default path.
func Copy(r *Registry, v any) (any, error) {
	out, _, err := CopyValue(r, v)
	if err != nil || !out.IsValid() {
		return nil, err
	}
	return out.Interface(), nil
}

// CopyValue is Copy with the copy as a reflect.Value, the zero Value for a
// nil v, and the length of the intermediate stream, the copy's transfer
// size. The stream lives in pooled scratch for the copy's duration only:
// the decode copies out of it everything the result holds. A decoded
// struct is the slot the decoder filled: a caller that hands it on through
// reflect (reflect.Value.Call) boxes it nowhere.
func CopyValue(r *Registry, v any) (reflect.Value, int, error) {
	sp, data, err := encode(r, v, nil)
	if err != nil {
		return reflect.Value{}, 0, err
	}
	d := getDecoder(r, data, nil)
	var out reflect.Value
	tag, err := d.byte()
	if err == nil {
		out, err = d.value(tag)
	}
	err = d.finish(err)
	putScratch(sp, data)
	if err != nil {
		return reflect.Value{}, len(data), err
	}
	return out, len(data), nil
}

// heapCell identifies heap cells for alias/cycle detection without unsafe:
// pointers, maps, and slices hash by their reflect pointer. Slices include
// their length so overlapping slices of one array are not conflated.
type heapCell struct {
	p uintptr
	t reflect.Type
	n int
}

type encoder struct {
	reg  *Registry // never nil
	ext  External
	buf  []byte
	next uint64
	seen map[heapCell]uint64
	grow Grower // nil: append grows buf
}

// room makes sure a payload of n bytes, its tag and its length prefix fit
// in buf, asking the Grower where there is one; everything smaller is
// appended without asking.
func (e *encoder) room(n int) {
	if n += 1 + binary.MaxVarintLen64; e.grow != nil && cap(e.buf)-len(e.buf) < n {
		e.buf = e.grow.Grow(e.buf, n)
	}
}

// offer writes a capability reference when the External hook claims the
// pointer v. Each pointer is offered exactly once: by the pointer node for
// a statically typed slot, by dynamic for a pointer inside an interface.
func (e *encoder) offer(v reflect.Value) bool {
	if e.ext == nil || v.IsNil() || !v.CanInterface() {
		return false
	}
	h, ok := e.ext.EncodeExternal(v.Interface())
	if !ok {
		return false
	}
	e.buf = append(e.buf, tagCap)
	e.buf = binary.AppendUvarint(e.buf, h)
	return true
}

// null writes tagNil for a nil slice, map or pointer.
func (e *encoder) null(v reflect.Value) bool {
	if !v.IsNil() {
		return false
	}
	e.buf = append(e.buf, tagNil)
	return true
}

// alias writes a back-reference when the heap cell was already encoded in
// this stream; otherwise it gives the cell the next id.
func (e *encoder) alias(cell heapCell) bool {
	if id, ok := e.seen[cell]; ok {
		e.buf = append(e.buf, tagRef)
		e.buf = binary.AppendUvarint(e.buf, id)
		return true
	}
	e.seen[cell] = e.next
	e.next++
	return false
}

// dynamic writes a dynamically typed value — the top-level value and every
// interface slot: tagNil, a capability reference, or tagIface + the wire
// name of the value's type + the value through that type's node.
func (e *encoder) dynamic(v reflect.Value) error {
	for v.Kind() == reflect.Interface && !v.IsNil() {
		v = v.Elem()
	}
	if !v.IsValid() || v.Kind() == reflect.Interface {
		e.buf = append(e.buf, tagNil)
		return nil
	}
	// Before the node is looked up: a capability's own type need not be
	// encodable.
	if v.Kind() == reflect.Ptr && e.offer(v) {
		return nil
	}
	c := e.reg.codecFor(v.Type())
	if c.nameErr != nil {
		return c.nameErr
	}
	e.buf = append(e.buf, c.header...)
	if c.unoffered != nil {
		return c.unoffered(e, v)
	}
	return c.enc(e, v)
}

// anySlice is the type of an argument vector.
var anySlice = reflect.TypeOf([]any(nil))

// vector writes vals exactly as dynamic writes a []any: the type's header,
// the slice as the stream's first heap cell, every element as a dynamic
// value.
func (e *encoder) vector(vals []any) error {
	if len(vals) == 0 {
		return e.dynamic(reflect.ValueOf(vals)) // nil or empty: nothing to save
	}
	e.buf = append(e.buf, e.reg.codecFor(anySlice).header...)
	e.alias(heapCell{reflect.ValueOf(&vals[0]).Pointer(), anySlice, len(vals)})
	e.buf = append(e.buf, tagSlice)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(vals)))
	for _, x := range vals {
		if err := e.dynamic(reflect.ValueOf(x)); err != nil {
			return err
		}
	}
	return nil
}

// Decode hardening limits. Streams arriving over the wire are adversarial
// (internal/remote feeds peer bytes straight in), so the decoder bounds
// everything that could otherwise turn malformed input into a crash: the
// recursion depth (a run of nested pointers would overflow the stack) and
// type-name length (typeFor recurses per structural prefix). Allocation
// counts are checked against the remaining buffer before any make.
const (
	maxDecodeDepth = 1000
	maxTypeName    = 4096
	// maxPrealloc bounds the bytes a single slice/map header may demand
	// up front (count × element footprint). Element counts are already
	// bounded by the remaining stream bytes, but a registered type with a
	// large element (an embedded array, say) would otherwise let a small
	// stream demand count × sizeof — a gigabyte-scale allocation from a
	// kilobyte frame. Any plausible legitimate stream sits far below this.
	maxPrealloc = 64 << 20
)

type decoder struct {
	st    *regState
	ext   External
	buf   []byte
	pos   int
	depth int
	objs  []reflect.Value         // id -> decoded heap object
	local map[reflect.Type]*codec // nodes compiled for this decode only
	// vec is the vector UnmarshalVector fills. It is heap object 0 of its
	// stream, so objs needs an addressable home for it that costs nothing.
	vec []any
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("seri: "+format+" at offset %d", append(args, d.pos)...)
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.fail("truncated")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	d.pos += n
	return v, nil
}

// count reads an element count and checks it against the bytes left, each
// element needing at least min of them.
func (d *decoder) count(what string, min int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(d.buf)-d.pos)/min) {
		return 0, d.fail("%s of %d overruns buffer", what, n)
	}
	return int(n), nil
}

// strBytes reads a length-prefixed string as a transient byte slice
// aliasing the input buffer — valid only until the caller advances or
// returns. Name dispatch uses it so a map hit costs no allocation (a
// map[string]T lookup keyed by string(bytes) does not materialize the
// string).
func (d *decoder) strBytes() ([]byte, error) {
	n, err := d.count("string", 1)
	if err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// dynamic reads a dynamically typed value whose tag is already consumed.
func (d *decoder) dynamic(tag byte) (any, error) {
	v, err := d.value(tag)
	if err != nil || !v.IsValid() {
		return nil, err
	}
	return v.Interface(), nil
}

// value is dynamic with the value as a reflect.Value, the zero Value for
// nil.
func (d *decoder) value(tag byte) (reflect.Value, error) {
	switch tag {
	case tagNil:
		return reflect.Value{}, nil
	case tagIface:
		return d.named()
	case tagCap:
		h, err := d.uvarint()
		if err != nil {
			return reflect.Value{}, err
		}
		if d.ext == nil {
			return reflect.Value{}, d.fail("capability reference %d with no external decoder", h)
		}
		v, err := d.ext.DecodeExternal(h)
		if err != nil {
			return reflect.Value{}, fmt.Errorf("seri: capability reference %d: %w", h, err)
		}
		return reflect.ValueOf(v), nil
	}
	return reflect.Value{}, d.fail("expected iface tag, got %d", tag)
}

// vector reads the stream of a []any into a fresh vector: the type's
// header, then nil or the slice.
func (d *decoder) vector() ([]any, error) {
	c := d.st.codecs[anySlice]
	if !bytes.HasPrefix(d.buf, c.header) {
		return nil, d.fail("not an argument vector")
	}
	d.pos = len(c.header)
	tag, err := d.byte()
	if err != nil || tag == tagNil {
		return nil, err
	}
	if tag != tagSlice {
		return nil, d.fail("not an argument vector")
	}
	n, err := d.count("slice", 1)
	if err != nil {
		return nil, err
	}
	if uint64(n)*uint64(anySlice.Elem().Size()) > maxPrealloc {
		return nil, d.fail("slice of %d elements exceeds the preallocation bound", n)
	}
	d.vec = make([]any, n)
	d.objs = append(d.objs, reflect.ValueOf(&d.vec).Elem())
	d.depth++ // the elements nest in the vector
	elem := d.st.codecs[anySlice.Elem()]
	for i := range d.vec {
		if err := d.into(elem, reflect.ValueOf(&d.vec[i]).Elem()); err != nil {
			return nil, err
		}
	}
	return d.vec, nil
}

// named reads a type name and a value of that type, into a fresh slot.
func (d *decoder) named() (reflect.Value, error) {
	name, err := d.strBytes()
	if err != nil {
		return reflect.Value{}, err
	}
	if len(name) > maxTypeName {
		return reflect.Value{}, d.fail("type name of %d bytes", len(name))
	}
	c := d.st.named[string(name)]
	if c == nil {
		t, err := d.st.typeFor(string(name))
		if err != nil {
			return reflect.Value{}, err
		}
		if d.local == nil {
			d.local = make(map[reflect.Type]*codec)
		} else if len(d.local) >= maxCodecs {
			return reflect.Value{}, d.fail("more than %d structural types unknown here", maxCodecs)
		}
		c = d.st.compile(d.local, t, true)
	}
	v := reflect.New(c.t).Elem()
	if err := d.into(c, v); err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}

// into fills the slot v (addressable, of c's type) from the stream: the one
// place a slot's tag is read (the node's own goes to the node, any other to
// foreign) and recursion depth guarded — every nesting level costs at least
// one stream byte, so the bound rejects only pathological input.
func (d *decoder) into(c *codec, v reflect.Value) error {
	if d.depth >= maxDecodeDepth {
		return d.fail("nesting deeper than %d", maxDecodeDepth)
	}
	if c.dec == nil {
		return d.fail("cannot decode into %v", c.t)
	}
	tag, err := d.byte()
	if err != nil {
		return err
	}
	d.depth++
	if tag == c.tag {
		err = c.dec(d, v)
	} else {
		err = d.foreign(tag, v)
	}
	d.depth--
	return err
}

// foreign handles the tags every slot tolerates besides its node's own:
// nil, a back-reference, and a dynamically typed value or capability
// reference in a statically typed slot. Any other tag is a malformed
// stream.
func (d *decoder) foreign(tag byte, v reflect.Value) error {
	switch tag {
	case tagNil:
		v.SetZero()
		return nil
	case tagRef:
		id, err := d.uvarint()
		if err != nil {
			return err
		}
		if id >= uint64(len(d.objs)) {
			return d.fail("dangling ref %d", id)
		}
		src := d.objs[id]
		if !src.Type().AssignableTo(v.Type()) {
			return d.fail("ref type %v not assignable to %v", src.Type(), v.Type())
		}
		v.Set(src)
		return nil
	case tagIface, tagCap:
		x, err := d.dynamic(tag)
		if err != nil {
			return err
		}
		return d.place(x, v)
	}
	return d.fail("tag %d cannot fill %v slot", tag, v.Type())
}

// place stores a dynamically typed value into v: assignable types as they
// are, numbers into a slot of the same family when they fit. Nothing else
// converts (reflect would turn an int into a one-rune string, and panic on
// a short slice aimed at an array pointer).
func (d *decoder) place(x any, v reflect.Value) error {
	// The encoder writes tagNil directly for nil values, so a dynamic nil
	// here ("any" payload holding nothing) is malformed — and
	// reflect.ValueOf(nil) has no Type to consult.
	if x == nil {
		return d.fail("nil dynamic value for %v slot", v.Type())
	}
	xv := reflect.ValueOf(x)
	if xv.Type().AssignableTo(v.Type()) {
		v.Set(xv)
		return nil
	}
	switch x := x.(type) {
	case int64:
		if v.CanInt() && !v.OverflowInt(x) {
			v.SetInt(x)
			return nil
		}
	case uint64:
		if v.CanUint() && !v.OverflowUint(x) {
			v.SetUint(x)
			return nil
		}
	case float64:
		if v.CanFloat() && !v.OverflowFloat(x) {
			v.SetFloat(x)
			return nil
		}
	}
	return d.fail("cannot place %v into %v", xv.Type(), v.Type())
}
