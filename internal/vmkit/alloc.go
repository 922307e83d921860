package vmkit

// An object and what it owns are one Go allocation where they fit a block:
// an instance with at most four slots, a primitive array of at most
// maxBlockBytes bytes of payload (in buckets of 16, 32, 64 and 128; a [I
// or [D element is 8 bytes, so up to 16 of them), and a string of at most
// maxStringBlockBytes bytes — its instance, that instance's one slot, its
// [B and room for maxStringBlockBytes bytes. A block is the 72-byte Object
// followed by its payload; callers see only the Object. The payload slice
// has cap == len, so an append copies it out of the block rather than
// writing into the bucket's spare bytes. A pointer into the payload keeps
// the whole block alive, header included: a Go caller that holds o.Bytes
// holds o.
//
// Larger payloads get their own allocation, as before. What an account is
// charged does not depend on either layout. TestObjectLayout measures
// each shape's allocation.

const maxBlockBytes = 128

// newInstanceObject returns an Object whose Fields are n zero Values.
func newInstanceObject(n int) *Object {
	switch n {
	case 0:
		return &Object{Fields: []Value{}}
	case 1:
		b := new(struct {
			o Object
			f [1]Value
		})
		b.o.Fields = b.f[:]
		return &b.o
	case 2:
		b := new(struct {
			o Object
			f [2]Value
		})
		b.o.Fields = b.f[:]
		return &b.o
	case 3:
		b := new(struct {
			o Object
			f [3]Value
		})
		b.o.Fields = b.f[:]
		return &b.o
	case 4:
		b := new(struct {
			o Object
			f [4]Value
		})
		b.o.Fields = b.f[:]
		return &b.o
	}
	return &Object{Fields: make([]Value, n)}
}

// newByteArrayObject returns an Object whose Bytes are n zero bytes: a
// [B of n elements, or a [I or [D of n/8.
func newByteArrayObject(n int) *Object {
	switch {
	case n == 0:
		return &Object{Bytes: []byte{}}
	case n <= 16:
		b := new(struct {
			o Object
			b [16]byte
		})
		b.o.Bytes = b.b[:n:n]
		return &b.o
	case n <= 32:
		b := new(struct {
			o Object
			b [32]byte
		})
		b.o.Bytes = b.b[:n:n]
		return &b.o
	case n <= 64:
		b := new(struct {
			o Object
			b [64]byte
		})
		b.o.Bytes = b.b[:n:n]
		return &b.o
	case n <= maxBlockBytes:
		b := new(struct {
			o Object
			b [maxBlockBytes]byte
		})
		b.o.Bytes = b.b[:n:n]
		return &b.o
	}
	return &Object{Bytes: make([]byte, n)}
}

// maxStringBlockBytes is the longest string newStringObjects builds as one
// block.
const maxStringBlockBytes = 32

// newStringObjects returns a string's instance, with slots zero Values,
// and its [B, with n zero bytes. A string of one slot and at most
// maxStringBlockBytes bytes is one block: the instance, its slot, then the
// array and its bytes. Any other is the two blocks newInstanceObject and
// newByteArrayObject build.
func newStringObjects(slots, n int) (str, arr *Object) {
	if slots != 1 || n > maxStringBlockBytes {
		return newInstanceObject(slots), newByteArrayObject(n)
	}
	b := new(struct {
		s Object
		f [1]Value
		a Object
		b [maxStringBlockBytes]byte
	})
	b.s.Fields, b.a.Bytes = b.f[:], b.b[:n:n]
	return &b.s, &b.a
}
