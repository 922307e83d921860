package seri

import "testing"

// permissiveExt resolves any capability handle, so fuzzed streams can
// reach past the reference tags the way a live connection's tables would.
type permissiveExt struct{}

func (permissiveExt) EncodeExternal(v any) (uint64, bool) {
	if c, ok := v.(*fakeCap); ok {
		return c.id, true
	}
	return 0, false
}

func (permissiveExt) DecodeExternal(h uint64) (any, error) {
	return &fakeCap{id: h}, nil
}

// hiddenField has an unexported field the encoder skips — a wire stream
// naming it is forged.
type hiddenField struct {
	Visible int64
	hidden  int64 //nolint:unused // decode hardening target
}

// arrays bears the kinds reflect converts to with a panic: a dynamic
// "bytes" aimed at an array, or at a pointer to one.
type arrays struct {
	N int8
	S string
	P *[4]byte
}

type arrayValue struct {
	A [4]byte
}

// TestDecodeHardeningRegressions pins crafted streams that panicked the
// decoder, or decoded to something no sender wrote (found by review of
// the fuzz surface): a dynamic nil in a concrete-typed slot; a struct
// stream naming an unexported field; a dynamic byte slice aimed at an
// array and at a pointer to one (reflect.Value.Convert panics on the
// length); a dynamic int aimed at a string (Convert makes it a rune). All
// must come back as decode errors.
func TestDecodeHardeningRegressions(t *testing.T) {
	r := reg()
	r.Register("Hidden", hiddenField{})
	r.Register("arrays", arrays{})
	r.Register("arrayValue", arrayValue{})
	str := appendStr
	// field starts a one-field struct stream of the named type.
	field := func(typ, name string) []byte {
		b := str([]byte{tagIface}, typ)
		b = append(b, tagStruct, 1)
		return str(b, name)
	}
	dynBytes := append(str([]byte{tagIface}, "bytes"), tagBytes, 1, 0xAA)

	// []string whose element claims dynamic type "any" holding nil:
	// reflect.ValueOf(nil).Type() panicked in the tagIface slot branch.
	nilIface := str([]byte{tagIface}, "[]string")
	nilIface = append(nilIface, tagSlice, 1)
	nilIface = append(str(append(nilIface, tagIface), "any"), tagNil)

	// A struct stream naming the unexported field: FieldByName returns a
	// valid but non-settable value, and SetInt panicked.
	unexported := append(field("Hidden", "hidden"), tagInt, 14)

	// A dynamic "int" 65 in a string slot: decoded as "A".
	intAsString := append(str(append(field("arrays", "S"), tagIface), "int"), tagInt, 130, 1)

	for name, stream := range map[string][]byte{
		"nil dynamic value in concrete slot":   nilIface,
		"unexported struct field":              unexported,
		"dynamic bytes into pointer-to-array":  append(field("arrays", "P"), dynBytes...),
		"dynamic bytes into array":             append(field("arrayValue", "A"), dynBytes...),
		"dynamic int into string":              intAsString,
		"tagNil into array (cannot re-encode)": append(field("arrayValue", "A"), tagNil),
	} {
		if out, err := Unmarshal(r, stream); err == nil {
			t.Errorf("%s: forged stream decoded without error: %#v", name, out)
		}
	}
}

// FuzzSeriRoundtrip checks the decoder's core safety property against
// arbitrary bytes: decoding never panics (malformed streams error), and
// any value that does decode is well-formed enough to re-marshal and
// decode again — the stream a connection re-encodes for a third kernel
// must never be poison.
func FuzzSeriRoundtrip(f *testing.F) {
	r := reg()
	r.Register("arrays", arrays{})
	ext := permissiveExt{}
	doc := Doc{
		Title: "seed",
		Body:  []byte{1, 2, 3},
		Tags:  []string{"a", "b"},
		Meta:  map[string]int64{"x": 1},
		At:    &Point{X: 3, Y: 4},
	}
	cycle := &Node{Val: 1}
	cycle.Next = &Node{Val: 2, Next: cycle}
	for _, v := range []any{
		int64(-42),
		"hello",
		[]byte("bytes"),
		doc,
		cycle,
		arrays{N: -3, S: "s"},
		[]any{int64(1), "two", 3.5, nil, &fakeCap{id: 9}},
		map[string]any{"k": []int64{1, 2, 3}},
	} {
		data, err := MarshalExt(r, v, ext)
		if err != nil {
			panic(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := UnmarshalExt(r, data, ext)
		if err != nil {
			return
		}
		out, err := MarshalExt(r, v, ext)
		if err != nil {
			t.Fatalf("decoded value failed to re-marshal: %v (%#v)", err, v)
		}
		if _, err := UnmarshalExt(r, out, ext); err != nil {
			t.Fatalf("re-marshaled stream failed to decode: %v", err)
		}
	})
}
