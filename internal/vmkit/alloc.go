package vmkit

import (
	"unsafe"

	"jkernel/internal/account"
)

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
// Larger payloads, and a reference array's, get their own allocation. Each
// builder returns the bytes it made: the block, or the header and the
// payload made apart. own charges them to the domain the object is made
// for, which owns it. TestObjectLayout measures each shape's allocation
// against its charge.

const maxBlockBytes = 128

const headerBytes = unsafe.Sizeof(Object{})

// charge bills payer, if any, for bytes just allocated for its domain and
// returns that domain's id (0 for no payer): the one place vmkit charges
// allocation.
func charge(payer *account.Account, bytes uintptr) int64 {
	if payer == nil {
		return 0
	}
	payer.Alloc(int64(bytes))
	return payer.Domain()
}

// own finishes a new object: its class, and as its owner the domain of
// payer, which pays the bytes its builder made. It is the one place an
// Object's Owner is set.
func own(o *Object, c *Class, payer *account.Account, bytes uintptr) *Object {
	o.Class, o.Owner = c, charge(payer, bytes)
	return o
}

// newInstance returns a zeroed instance of c, paid for by payer.
func newInstance(c *Class, payer *account.Account) *Object {
	o, bytes := newInstanceObject(c.numSlots)
	return own(o, c, payer, bytes)
}

// newArray returns an array of class c of n zero elements, paid for by
// payer: a [B's in Bytes, a [I's or [D's as 8 bytes each in Bytes, and a
// reference array's as Values in Fields.
func newArray(c *Class, n int, payer *account.Account) *Object {
	var o *Object
	var bytes uintptr
	switch c.elem {
	case "B":
		o, bytes = newByteArrayObject(n)
	case "I", "D":
		o, bytes = newByteArrayObject(8 * n)
	default:
		o, bytes = &Object{Fields: make([]Value, n)}, headerBytes+uintptr(n*valueBytes)
	}
	return own(o, c, payer, bytes)
}

// newString returns a string of class sc holding a copy of text, paid for
// by payer.
func newString[T string | []byte](sc *Class, text T, payer *account.Account) *Object {
	o, arr, bytes := newStringObjects(sc.numSlots, len(text))
	copy(arr.Bytes, text)
	own(arr, mustArrayClass(sc.NS, "[B"), payer, 0)
	o.Fields[sc.FieldByName("bytes").Slot] = RefVal(arr)
	return own(o, sc, payer, bytes)
}

// block allocates an Object followed by a payload of type P as one block,
// and returns the Object, the payload and the block's size.
func block[P any]() (*Object, unsafe.Pointer, uintptr) {
	b := new(struct {
		o Object
		p P
	})
	return &b.o, unsafe.Pointer(&b.p), unsafe.Sizeof(*b)
}

// newInstanceObject returns an Object whose Fields are n zero Values, and
// the bytes it made.
func newInstanceObject(n int) (*Object, uintptr) {
	var o *Object
	var p unsafe.Pointer
	var bytes uintptr
	switch n {
	case 0:
		return &Object{Fields: []Value{}}, headerBytes
	case 1:
		o, p, bytes = block[[1]Value]()
	case 2:
		o, p, bytes = block[[2]Value]()
	case 3:
		o, p, bytes = block[[3]Value]()
	case 4:
		o, p, bytes = block[[4]Value]()
	default:
		return &Object{Fields: make([]Value, n)}, headerBytes + uintptr(n*valueBytes)
	}
	o.Fields = unsafe.Slice((*Value)(p), n)
	return o, bytes
}

// newByteArrayObject returns an Object whose Bytes are n zero bytes: a
// [B of n elements, or a [I or [D of n/8; and the bytes it made.
func newByteArrayObject(n int) (*Object, uintptr) {
	var o *Object
	var p unsafe.Pointer
	var bytes uintptr
	switch {
	case n == 0:
		return &Object{Bytes: []byte{}}, headerBytes
	case n <= 16:
		o, p, bytes = block[[16]byte]()
	case n <= 32:
		o, p, bytes = block[[32]byte]()
	case n <= 64:
		o, p, bytes = block[[64]byte]()
	case n <= maxBlockBytes:
		o, p, bytes = block[[maxBlockBytes]byte]()
	default:
		return &Object{Bytes: make([]byte, n)}, headerBytes + uintptr(n)
	}
	o.Bytes = unsafe.Slice((*byte)(p), n)
	return o, bytes
}

// maxStringBlockBytes is the longest string newStringObjects builds as one
// block.
const maxStringBlockBytes = 32

// newStringObjects returns a string's instance, with slots zero Values,
// its [B, with n zero bytes, and the bytes both took. A string of one slot
// and at most maxStringBlockBytes bytes is one block: the instance, its
// slot, then the array and its bytes. Any other is the two blocks
// newInstanceObject and newByteArrayObject build.
func newStringObjects(slots, n int) (str, arr *Object, bytes uintptr) {
	if slots != 1 || n > maxStringBlockBytes {
		str, bytes = newInstanceObject(slots)
		arr, arrBytes := newByteArrayObject(n)
		return str, arr, bytes + arrBytes
	}
	b := new(struct {
		s Object
		f [1]Value
		a Object
		b [maxStringBlockBytes]byte
	})
	b.s.Fields, b.a.Bytes = b.f[:], b.b[:n:n]
	return &b.s, &b.a, unsafe.Sizeof(*b)
}
