package seri

import (
	"errors"
	"testing"
)

// fakeCap stands in for core.Capability in the external-reference tests.
type fakeCap struct{ id uint64 }

// capTable is a test External: an export/import table keyed by handle.
type capTable struct {
	byCap    map[*fakeCap]uint64
	byHandle map[uint64]*fakeCap
	next     uint64
}

func newCapTable() *capTable {
	return &capTable{byCap: map[*fakeCap]uint64{}, byHandle: map[uint64]*fakeCap{}}
}

func (t *capTable) EncodeExternal(v any) (uint64, bool) {
	c, ok := v.(*fakeCap)
	if !ok {
		return 0, false
	}
	if h, ok := t.byCap[c]; ok {
		return h, true
	}
	h := t.next
	t.next++
	t.byCap[c] = h
	t.byHandle[h] = c
	return h, true
}

func (t *capTable) DecodeExternal(h uint64) (any, error) {
	c, ok := t.byHandle[h]
	if !ok {
		return nil, errors.New("unknown handle")
	}
	return c, nil
}

func TestExternalTopLevel(t *testing.T) {
	tab := newCapTable()
	c := &fakeCap{id: 7}
	data, err := MarshalExt(nil, c, tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalExt(nil, data, tab)
	if err != nil {
		t.Fatal(err)
	}
	if out != any(c) {
		t.Fatalf("capability did not pass by reference: got %#v", out)
	}
}

func TestExternalInsideArgsSlice(t *testing.T) {
	tab := newCapTable()
	c := &fakeCap{id: 1}
	args := []any{int64(42), "hello", c, nil}
	data, err := MarshalExt(nil, args, tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalExt(nil, data, tab)
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := out.([]any)
	if !ok || len(dec) != 4 {
		t.Fatalf("bad decode: %#v", out)
	}
	if dec[0] != any(int64(42)) || dec[1] != any("hello") || dec[3] != nil {
		t.Fatalf("copied values wrong: %#v", dec)
	}
	if dec[2] != any(c) {
		t.Fatalf("capability arg not by reference: %#v", dec[2])
	}
}

type capHolder struct {
	Name string
	Cap  *fakeCap
	Any  any
}

func TestExternalStructFields(t *testing.T) {
	reg := NewRegistry()
	reg.Register("capHolder", capHolder{})
	tab := newCapTable()
	c := &fakeCap{id: 3}
	in := &capHolder{Name: "svc", Cap: c, Any: c}
	data, err := MarshalExt(reg, in, tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalExt(reg, data, tab)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := out.(*capHolder)
	if !ok {
		t.Fatalf("bad type %T", out)
	}
	if h.Name != "svc" {
		t.Fatalf("copied field lost: %q", h.Name)
	}
	if h.Cap != c || h.Any != any(c) {
		t.Fatalf("capability fields not by reference: %#v", h)
	}
}

func TestExternalAliasing(t *testing.T) {
	tab := newCapTable()
	c := &fakeCap{id: 9}
	data, err := MarshalExt(nil, []any{c, c}, tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalExt(nil, data, tab)
	if err != nil {
		t.Fatal(err)
	}
	dec := out.([]any)
	if dec[0] != dec[1] || dec[0] != any(c) {
		t.Fatalf("aliased capability refs diverged: %#v", dec)
	}
}

func TestExternalMissingDecoder(t *testing.T) {
	tab := newCapTable()
	data, err := MarshalExt(nil, &fakeCap{id: 2}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(nil, data); err == nil {
		t.Fatal("expected error decoding capability ref without an External")
	}
}

func TestExternalUnknownHandle(t *testing.T) {
	tab := newCapTable()
	data, err := MarshalExt(nil, &fakeCap{id: 2}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalExt(nil, data, newCapTable()); err == nil {
		t.Fatal("expected error for a handle unknown to the decoder table")
	}
}

// A type the External declines must still copy normally.
func TestExternalDeclines(t *testing.T) {
	tab := newCapTable()
	reg := NewRegistry()
	reg.Register("capHolder", capHolder{})
	in := &capHolder{Name: "plain"}
	data, err := MarshalExt(reg, in, tab)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalExt(reg, data, tab)
	if err != nil {
		t.Fatal(err)
	}
	h := out.(*capHolder)
	if h == in {
		t.Fatal("non-capability pointer crossed by reference")
	}
	if h.Name != "plain" {
		t.Fatalf("bad copy: %#v", h)
	}
}

// countingExt declines every pointer and counts the offers.
type countingExt struct{ offers map[any]int }

func (c countingExt) EncodeExternal(v any) (uint64, bool) {
	c.offers[v]++
	return 0, false
}

func (countingExt) DecodeExternal(uint64) (any, error) { return nil, errors.New("no handles") }

// TestExternalOfferedOncePerPointer: the hook sees each pointer once,
// wherever it sits — at the top level, in an []any vector, in a pointer
// field, in an interface field.
func TestExternalOfferedOncePerPointer(t *testing.T) {
	r := reg()
	r.Register("capHolder", capHolder{})
	top, inVec, inField, inIface := &Point{X: 1}, &Point{X: 2}, &fakeCap{id: 3}, &Point{X: 4}
	for name, c := range map[string]struct {
		v    any
		ptrs []any
	}{
		"top level": {top, []any{top}},
		"in []any":  {[]any{inVec, int64(1)}, []any{inVec}},
		"in fields": {capHolder{Cap: inField, Any: inIface}, []any{inField, inIface}},
	} {
		ext := countingExt{offers: map[any]int{}}
		if _, err := MarshalExt(r, c.v, ext); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ext.offers) != len(c.ptrs) {
			t.Errorf("%s: %d distinct values offered, want %d", name, len(ext.offers), len(c.ptrs))
		}
		for _, p := range c.ptrs {
			if n := ext.offers[p]; n != 1 {
				t.Errorf("%s: %#v offered %d times, want 1", name, p, n)
			}
		}
	}
}
