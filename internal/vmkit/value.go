// Package vmkit implements a small typed stack virtual machine: a binary
// class format, a textual assembler, a bytecode verifier, a linker with
// per-namespace class resolution, and an interpreter with monitors and
// safepoints.
//
// vmkit is the substrate the J-Kernel core builds on. It stands in for the
// Java virtual machine of the paper "Implementing Multiple Protection
// Domains in Java" (Hawblitzel et al., USENIX 1998): protection comes from
// the type system and controlled linking, not from hardware. Domains load
// bytecode through resolvers into private namespaces, the verifier rejects
// ill-typed code, and the J-Kernel generates stub classes at run time for
// cross-domain calls.
package vmkit

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// Kind discriminates the runtime value union.
type Kind uint8

// Value kinds. The VM has two primitive kinds (64-bit integers and 64-bit
// floats) plus references. Booleans, bytes and chars are represented as
// integers, as in the JVM.
const (
	KInvalid Kind = iota
	KInt
	KFloat
	KRef // object, array, or string reference; R==nil means null
)

// Value is a single operand-stack or local-variable slot.
// The zero Value is an invalid slot; Null() is the null reference.
// A float keeps its IEEE 754 bits in I (see Float), so a slot is 24 bytes.
type Value struct {
	K Kind
	I int64
	R *Object
}

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{K: KInt, I: i} }

// FloatVal returns a float value.
func FloatVal(f float64) Value { return Value{K: KFloat, I: int64(math.Float64bits(f))} }

// Float returns the float a KFloat value holds.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// RefVal returns a reference value (obj may be nil for null).
func RefVal(obj *Object) Value { return Value{K: KRef, R: obj} }

// Null returns the null reference value.
func Null() Value { return Value{K: KRef} }

// IsNull reports whether v is the null reference.
func (v Value) IsNull() bool { return v.K == KRef && v.R == nil }

// String renders a value for diagnostics.
func (v Value) String() string {
	switch v.K {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.Float())
	case KRef:
		if v.R == nil {
			return "null"
		}
		return v.R.String()
	default:
		return "<invalid>"
	}
}

// Object is a heap cell: a class instance or an array. Exactly one of the
// payload fields is used, selected by the object's class:
//
//   - instances: Class points at a non-array class and Fields holds one slot
//     per instance field (indexed by Field.Slot);
//   - arrays: Class is an array class and its elements are in Bytes, a
//     byte an element for "[B" and 8 little-endian bytes for "[I" and "[D"
//     (a double's IEEE 754 bits, as Value.I holds them; see Word), or in
//     Fields ("[L...;" and "[[...", one KRef Value an element, as an
//     instance keeps a reference field). The class's element descriptor
//     says which.
//
// A small instance's Fields and a small primitive array's Bytes live in
// the object's own allocation (see alloc.go). The monitor and the identity
// hash live in a side struct (mon) that the first monitorenter or the
// first hashCode installs, so an object never locked or hashed carries
// one pointer for both; see monitor.go. The header is 72 bytes.
type Object struct {
	Class  *Class
	Fields []Value
	Bytes  []byte

	// Owner is the id of the domain the object was made for, whose
	// account paid its bytes (own in alloc.go): the running thread's
	// domain, a copy's destination, or the namespace a host allocated
	// through. Zero means no domain paid (the VM's own throwables).
	Owner int64

	mon atomic.Pointer[monitor]
}

// Len returns the array length, or -1 if o is not an array.
func (o *Object) Len() int {
	switch {
	case o.Bytes == nil:
		if o.Class != nil && o.Class.IsArray() {
			return len(o.Fields)
		}
		return -1
	case o.Class.elem == "B":
		return len(o.Bytes)
	}
	return len(o.Bytes) / 8
}

// Word returns element i of a "[I" or "[D" array: the int, or the
// double's IEEE 754 bits.
func (o *Object) Word(i int) int64 { return int64(binary.LittleEndian.Uint64(o.Bytes[8*i:])) }

// SetWord sets element i of a "[I" or "[D" array to x.
func (o *Object) SetWord(i int, x int64) { binary.LittleEndian.PutUint64(o.Bytes[8*i:], uint64(x)) }

// String renders the object for diagnostics (class name and identity-free).
func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	if o.Class == nil {
		return "<classless>"
	}
	if o.Class.Name == ClassString {
		return fmt.Sprintf("%q", StringText(o))
	}
	return fmt.Sprintf("<%s>", o.Class.Name)
}

// DescKind maps a field/param descriptor to the Kind of the value stored
// (KInvalid for "", the void return).
func DescKind(desc string) Kind {
	if desc == "" {
		return KInvalid
	}
	switch desc[0] {
	case 'I', 'Z', 'B', 'C':
		return KInt
	case 'D':
		return KFloat
	case 'L', '[':
		return KRef
	default:
		return KInvalid
	}
}

// zeroValue returns the zero value for a field of the given descriptor.
func zeroValue(desc string) Value {
	switch DescKind(desc) {
	case KInt:
		return IntVal(0)
	case KFloat:
		return FloatVal(0)
	default:
		return Null()
	}
}
