// Package fastcopy is the J-Kernel's fast-copy mechanism for native (Go)
// targets: instead of serializing arguments into an intermediate byte
// array and parsing them back (package seri), it copies objects and their
// fields directly. The paper reports this is more than an order of
// magnitude faster for large arguments (Table 4).
//
// The copy code is compiled per type, as the paper generates copy code per
// fast-copy class: the first copy of a reflect.Type builds a plan (plan.go)
// — which fields cross, which are plain data that assignment copies, what
// each reference leads to — and every later copy runs the plan, allocating
// only what the copy itself is made of and adding up the transfer size as
// it goes.
//
// As in the paper, cycle/alias tracking via a hash table is opt-in
// (WithCycleTable): tracking costs time, so by default graphs are assumed
// to be trees and a depth limit converts runaway recursion (a cycle) into
// an error instead of a hang.
//
// A capability predicate can be installed so that designated values pass
// by reference rather than by copy — the heart of the J-Kernel calling
// convention.
package fastcopy

import (
	"errors"
	"reflect"
	"sync"
)

// maxDepth bounds recursion when no cycle table is in use.
const maxDepth = 256

var errDepth = errors.New("fastcopy: depth limit exceeded (cyclic data without WithCycleTable?)")

// Option configures a Copier.
type Option func(*Copier)

// WithCycleTable enables the hash table that tracks already-copied objects
// so shared and cyclic structures copy correctly (at extra cost).
func WithCycleTable() Option {
	return func(c *Copier) { c.useTable = true }
}

// WithCapabilityFunc installs a predicate for pass-by-reference values:
// when pred returns true the value crosses uncopied.
func WithCapabilityFunc(pred func(v any) bool) Option {
	return func(c *Copier) { c.isCap = pred }
}

// Copier deep-copies Go values. It is safe for concurrent use.
type Copier struct {
	useTable bool
	isCap    func(v any) bool

	plans sync.Map   // reflect.Type -> *plan, complete when published
	mu    sync.Mutex // serializes compilation
}

// New creates a Copier.
func New(opts ...Option) *Copier {
	c := &Copier{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// state is one copy in progress.
type state struct {
	c     *Copier
	depth int
	size  int64
	// seen maps source cells to their copies in table mode, made when the
	// first aliasable reference is met: plain data never pays for it.
	seen map[cell]reflect.Value
}

// cell identifies a heap cell. Slices include their length so overlapping
// slices of one array are not conflated.
type cell struct {
	p uintptr
	t reflect.Type
	n int
}

// Copy returns a deep copy of v. The result shares no mutable memory with
// v except for values the capability predicate claims.
func (c *Copier) Copy(v any) (any, error) {
	out, _, err := c.CopyValue(v)
	if err != nil || !out.IsValid() {
		return nil, err
	}
	return out.Interface(), nil
}

// CopyValue is Copy with the copy as a reflect.Value, the zero Value for a
// nil v, and the transfer size in bytes, for accounting charges at LRMI
// boundaries: scalars by width, strings and byte slices by length, 8 per
// reference followed. Both come from the one pass over v. A copied struct
// is the slot the copy filled: a caller that hands it on through reflect
// (reflect.Value.Call) boxes it nowhere.
func (c *Copier) CopyValue(v any) (out reflect.Value, size int64, err error) {
	switch b := v.(type) {
	case nil:
		return reflect.Value{}, 0, nil
	case []byte:
		// The commonest argument needs no plan: one make, one copy.
		if b == nil {
			return reflect.ValueOf(v), 0, nil
		}
		dup := make([]byte, len(b))
		copy(dup, b)
		return reflect.ValueOf(dup), int64(len(b)), nil
	}
	src := reflect.ValueOf(v)
	p := c.plan(src.Type())
	if p.plain() {
		// Nothing in v can be written through: the boxed value itself is
		// the copy.
		return src, p.plainSize(src), nil
	}
	st := state{c: c}
	if p.kind == reflect.Pointer {
		// A pointer needs no slot of its own: its copy is the new pointee.
		if src.IsNil() {
			return src, 0, nil
		}
		if c.isCap != nil && c.isCap(v) {
			return src, 8, nil
		}
		dup, err := p.newPointee(&st, src)
		if err != nil {
			return reflect.Value{}, 0, err
		}
		return dup, st.size, nil
	}
	slot := reflect.New(p.t).Elem()
	if err := p.copy(&st, slot, src); err != nil {
		return reflect.Value{}, 0, err
	}
	return slot, st.size, nil
}

// lookup finds a cell's copy. Tree mode has no table and consults none:
// the key holds a reflect.Type, so even a lookup in a nil map would pay the
// runtime's hash of an interface.
func (st *state) lookup(key cell) (reflect.Value, bool) {
	if st.seen == nil {
		return reflect.Value{}, false
	}
	v, ok := st.seen[key]
	return v, ok
}

// remember enters a cell's copy into the table before its contents are
// copied, so cycles terminate. dup must not be a slot a later step rewrites.
func (st *state) remember(key cell, dup reflect.Value) {
	if !st.c.useTable {
		return
	}
	if st.seen == nil {
		st.seen = make(map[cell]reflect.Value)
	}
	st.seen[key] = dup
}
