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

// Kind is what a descriptor says a slot holds. The VM has two primitive
// kinds (64-bit integers and 64-bit floats) plus references. Booleans,
// bytes and chars are represented as integers, as in the JVM.
type Kind uint8

// Descriptor kinds (KInvalid for the void return).
const (
	KInvalid Kind = iota
	KInt
	KFloat
	KRef // object, array, or string reference
)

// Value is a single operand-stack or local-variable slot. It carries no
// kind: verified code never reads a slot as another kind than it wrote,
// so the descriptor the verifier checked is the only record of it. A
// primitive's R is nil and a reference's I is 0, so the zero Value is 0,
// 0.0 and null alike. A float keeps its IEEE 754 bits in I (see Float),
// so a slot is 16 bytes.
type Value struct {
	I int64
	R *Object
}

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// FloatVal returns a float value.
func FloatVal(f float64) Value { return Value{I: int64(math.Float64bits(f))} }

// Float returns the float a float slot holds.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// RefVal returns a reference value (obj may be nil for null).
func RefVal(obj *Object) Value { return Value{R: obj} }

// Null returns the null reference value.
func Null() Value { return Value{} }

// Object is a heap cell: a class instance or an array. Exactly one of the
// payload fields is used, selected by the object's class:
//
//   - instances: Class points at a non-array class and Fields holds one slot
//     per instance field (indexed by Field.Slot);
//   - arrays: Class is an array class and its elements are in Bytes, a
//     byte an element for "[B" and 8 little-endian bytes for "[I" and "[D"
//     (a double's IEEE 754 bits, as Value.I holds them; see Word), or in
//     Fields ("[L...;" and "[[...", one Value an element, as an instance
//     keeps a reference field). The class's element descriptor
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
