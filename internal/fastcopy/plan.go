package fastcopy

import (
	"fmt"
	"reflect"
)

// plan is the compiled copy code of one Go type: what the paper's
// generated fast-copy methods are to a class. It is derived once from the
// reflect.Type and only read afterwards.
type plan struct {
	t    reflect.Type
	kind reflect.Kind
	// fixed: a value of t holds no reference, no string and no unexported
	// field, so assignment is its deep copy and size its transfer size.
	fixed bool
	size  int64
	elem  *plan   // slice, array and pointer element; map value
	key   *plan   // map key
	flds  []field // struct: the exported fields, in declaration order
}

type field struct {
	idx  int
	name string
	p    *plan
}

// plan returns t's plan, compiling it and everything it reaches on first
// sight. Compilation is serialized and a plan is published only when the
// whole tree under it is built, so the lock-free fast path never sees a
// node whose children are still being filled in.
func (c *Copier) plan(t reflect.Type) *plan {
	if p, ok := c.plans.Load(t); ok {
		return p.(*plan)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := compiler{c: c, out: map[reflect.Type]*plan{}}
	p := cp.plan(t)
	for t, p := range cp.out {
		c.plans.Store(t, p)
	}
	return p
}

// compiler builds plans into out, reusing the published ones.
type compiler struct {
	c   *Copier
	out map[reflect.Type]*plan
}

// plan enters t's node into out before compiling its children, which hold
// the pointer: a recursive type (Ring{Next *Ring}) finds itself there. A
// parent reads only fixed and size of a child at compile time, and a type
// can only reach itself through a pointer, slice, map or interface, whose
// fixed is false whatever they lead to: no node is read half-built.
func (cp *compiler) plan(t reflect.Type) *plan {
	if p, ok := cp.c.plans.Load(t); ok {
		return p.(*plan)
	}
	if p := cp.out[t]; p != nil {
		return p
	}
	p := &plan{t: t, kind: t.Kind()}
	cp.out[t] = p
	switch p.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		p.fixed, p.size = true, int64(t.Size())
	case reflect.Slice, reflect.Pointer:
		p.elem = cp.plan(t.Elem())
	case reflect.Map:
		p.key, p.elem = cp.plan(t.Key()), cp.plan(t.Elem())
	case reflect.Array:
		p.elem = cp.plan(t.Elem())
		p.fixed, p.size = p.elem.fixed, int64(t.Len())*p.elem.size
	case reflect.Struct:
		p.fixed = true
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if !sf.IsExported() {
				// Unexported fields cannot be copied via reflection; a
				// struct with unexported state must be a capability or
				// implement its own transfer. Zero value is deliberate: no
				// hidden channel crosses the domain boundary.
				p.fixed = false
				continue
			}
			f := field{i, sf.Name, cp.plan(sf.Type)}
			p.flds = append(p.flds, f)
			p.fixed = p.fixed && f.p.fixed
			p.size += f.p.size
		}
	}
	return p
}

// plain reports whether assignment copies a value of p's type: fixed data,
// or a string (immutable, sized by its length).
func (p *plan) plain() bool { return p.fixed || p.kind == reflect.String }

func (p *plan) plainSize(src reflect.Value) int64 {
	if p.fixed {
		return p.size
	}
	return int64(src.Len())
}

// copy fills the zero slot dst with a deep copy of src.
func (p *plan) copy(st *state, dst, src reflect.Value) error {
	if p.plain() {
		dst.Set(src)
		st.size += p.plainSize(src)
		return nil
	}
	if st.depth >= maxDepth {
		return errDepth
	}
	st.depth++
	err := p.copyRef(st, dst, src)
	st.depth--
	return err
}

func (p *plan) copyRef(st *state, dst, src reflect.Value) error {
	switch p.kind {
	case reflect.Struct:
		for i := range p.flds {
			f := &p.flds[i]
			if err := f.p.copy(st, dst.Field(f.idx), src.Field(f.idx)); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
		return nil

	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			if err := p.elem.copy(st, dst.Index(i), src.Index(i)); err != nil {
				return err
			}
		}
		return nil

	case reflect.Pointer:
		if src.IsNil() {
			return nil
		}
		if st.c.isCap != nil && st.c.isCap(src.Interface()) {
			dst.Set(src)
			st.size += 8
			return nil
		}
		dup, err := p.newPointee(st, src)
		if err != nil {
			return err
		}
		dst.Set(dup)
		return nil

	case reflect.Slice:
		return p.copySlice(st, dst, src)

	case reflect.Map:
		return p.copyMap(st, dst, src)

	case reflect.Interface:
		if src.IsNil() {
			return nil
		}
		st.size += 8
		if st.c.isCap != nil && st.c.isCap(src.Interface()) {
			dst.Set(src)
			return nil
		}
		dyn := src.Elem()
		dp := st.c.plan(dyn.Type())
		switch {
		case dp.plain():
			// The boxed value is immutable: both interfaces may hold it.
			dst.Set(src)
			st.size += dp.plainSize(dyn)
		case dp.kind == reflect.Pointer && dyn.IsNil():
			// A typed nil keeps its type: there is no pointee to copy.
			dst.Set(src)
		case dp.kind == reflect.Pointer:
			dup, err := dp.newPointee(st, dyn)
			if err != nil {
				return err
			}
			dst.Set(dup)
		default:
			slot := reflect.New(dp.t).Elem()
			if err := dp.copy(st, slot, dyn); err != nil {
				return err
			}
			dst.Set(slot)
		}
		return nil

	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return fmt.Errorf("fastcopy: %v cannot cross a domain boundary (not a capability)", p.kind)

	default:
		return fmt.Errorf("fastcopy: unsupported kind %v", p.kind)
	}
}

// newPointee copies what the non-nil, non-capability pointer src points
// to and returns the pointer to the copy: one allocation per struct.
func (p *plan) newPointee(st *state, src reflect.Value) (reflect.Value, error) {
	key := cell{p: src.Pointer(), t: p.t}
	if prev, ok := st.lookup(key); ok {
		return prev, nil
	}
	dup := reflect.New(p.elem.t)
	st.remember(key, dup)
	st.size += 8
	return dup, p.elem.copy(st, dup.Elem(), src.Elem())
}

func (p *plan) copySlice(st *state, dst, src reflect.Value) error {
	if src.IsNil() {
		return nil
	}
	n := src.Len()
	key := cell{p: src.Pointer(), t: p.t, n: n}
	if prev, ok := st.lookup(key); ok {
		dst.Set(prev)
		return nil
	}
	switch {
	case n == 0:
		dst.Set(reflect.MakeSlice(p.t, 0, 0))
	case p.elem.kind == reflect.Uint8:
		// One clone: the bytes are not cleared first to be overwritten.
		b := src.Bytes()
		dup := make([]byte, len(b))
		copy(dup, b)
		dst.SetBytes(dup)
	default:
		// Grown in place: no slice header is boxed on the way.
		dst.Grow(n)
		dst.SetLen(n)
		if p.elem.fixed {
			reflect.Copy(dst, src)
		}
	}
	if st.c.useTable {
		// A snapshot of the header, not the slot: the slot may be a map
		// copy's scratch cell.
		st.remember(key, dst.Slice(0, n))
	}
	if p.elem.fixed {
		st.size += int64(n) * p.elem.size
		return nil
	}
	for i := 0; i < n; i++ {
		if err := p.elem.copy(st, dst.Index(i), src.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

func (p *plan) copyMap(st *state, dst, src reflect.Value) error {
	if src.IsNil() {
		return nil
	}
	key := cell{p: src.Pointer(), t: p.t}
	if prev, ok := st.lookup(key); ok {
		dst.Set(prev)
		return nil
	}
	dup := reflect.MakeMapWithSize(p.t, src.Len())
	st.remember(key, dup)
	dst.Set(dup)
	if src.Len() == 0 {
		return nil
	}
	// One scratch cell per side for the whole map, not a boxed key and
	// value per entry; plain keys and values are inserted from the cell
	// they were read into.
	ks, vs := reflect.New(p.key.t).Elem(), reflect.New(p.elem.t).Elem()
	kd, vd := ks, vs
	if !p.key.plain() {
		kd = reflect.New(p.key.t).Elem()
	}
	if !p.elem.plain() {
		vd = reflect.New(p.elem.t).Elem()
	}
	for iter := src.MapRange(); iter.Next(); {
		ks.SetIterKey(iter)
		vs.SetIterValue(iter)
		if p.key.plain() {
			st.size += p.key.plainSize(ks)
		} else {
			kd.SetZero()
			if err := p.key.copy(st, kd, ks); err != nil {
				return err
			}
		}
		if p.elem.plain() {
			st.size += p.elem.plainSize(vs)
		} else {
			vd.SetZero()
			if err := p.elem.copy(st, vd, vs); err != nil {
				return err
			}
		}
		dup.SetMapIndex(kd, vd)
	}
	return nil
}
