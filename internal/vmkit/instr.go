package vmkit

import (
	"fmt"
	"strings"
)

// Opcode enumerates the VM instruction set. The set is deliberately small
// and orthogonal; it is sufficient to express the J-Kernel stubs, the
// servlet workloads, and the paper's example programs.
type Opcode uint8

const (
	OpNop Opcode = iota

	// Constants. ICONST uses I, DCONST uses F, SCONST uses S (a string
	// literal materialized as an interned jk/lang/String per namespace),
	// NULLCONST pushes null.
	OpIConst
	OpDConst
	OpSConst
	OpNullConst

	// Locals. I is the slot index.
	OpLoad
	OpStore

	// Operand stack.
	OpPop
	OpDup
	OpDupX1 // duplicate top and insert below the next value: a b -> b a b
	OpSwap

	// Integer arithmetic/logic (operate on two KInt operands; NEG on one).
	OpIAdd
	OpISub
	OpIMul
	OpIDiv
	OpIRem
	OpINeg
	OpIShl
	OpIShr
	OpIUshr
	OpIAnd
	OpIOr
	OpIXor

	// Float arithmetic.
	OpDAdd
	OpDSub
	OpDMul
	OpDDiv
	OpDNeg

	// Conversions and comparison.
	OpI2D
	OpD2I
	OpDCmp // pushes -1/0/1

	// Control flow. I is the (resolved) target instruction index; the
	// assembler resolves labels.
	OpJmp
	OpIfEQ // pops b, a; branches when a == b
	OpIfNE
	OpIfLT
	OpIfLE
	OpIfGT
	OpIfGE
	OpIfZ  // pops a; branches when a == 0
	OpIfNZ // pops a; branches when a != 0
	OpIfNull
	OpIfNonNull
	OpIfACmpEQ // reference identity
	OpIfACmpNE

	// Object model. S is a class name for NEW/CAST/INSTOF; a
	// "Class.name:Desc" field reference for the field ops; a
	// "Class.name:(..)R" method reference for the invokes.
	OpNew
	OpGetF
	OpPutF
	OpGetS
	OpPutS
	OpInvokeV // virtual dispatch on the receiver's runtime class
	OpInvokeI // interface dispatch
	OpInvokeS // static
	OpCast
	OpInstOf

	// Arrays. S is the array descriptor for NEWARR ("[B", "[I", "[D",
	// "[L...;"). Element load/store are typed by the array at run time and
	// by the descriptor during verification.
	OpNewArr
	OpALoad
	OpAStore
	OpALen

	// Exceptions and monitors.
	OpThrow
	OpMonEnter
	OpMonExit

	// Returns.
	OpRet  // void
	OpRetV // returns the top of stack

	opMax // sentinel; not a real opcode
)

// Instr is one decoded instruction. Operand use depends on Op; unused
// operands are zero.
type Instr struct {
	Op Opcode
	I  int64
	F  float64
	S  string
}

// opInfo describes the static properties of each opcode: its operands for
// the assembler and the codec, and its stack effect for the verifier.
type opInfo struct {
	name   string
	hasI   bool // carries an integer operand (imm, slot, or branch target)
	hasF   bool
	hasS   bool
	branch bool // I is a code index patched from a label
	// stack is the effect of a fixed-shape opcode, which the verifier
	// checks by one rule: the kinds it pops, top last, then '>' and the
	// kind it pushes, if any. I is int, F float, R a reference (popped,
	// it also takes null; pushed, it is of the instruction's linked
	// class), N null. Empty for the opcodes the verifier spells out.
	stack string
}

var opTable = [opMax]opInfo{
	OpNop:       {name: "nop", stack: ">"},
	OpIConst:    {name: "iconst", hasI: true, stack: ">I"},
	OpDConst:    {name: "dconst", hasF: true, stack: ">F"},
	OpSConst:    {name: "sconst", hasS: true, stack: ">R"},
	OpNullConst: {name: "aconst_null", stack: ">N"},
	OpLoad:      {name: "load", hasI: true},
	OpStore:     {name: "store", hasI: true},
	OpPop:       {name: "pop"},
	OpDup:       {name: "dup"},
	OpDupX1:     {name: "dup_x1"},
	OpSwap:      {name: "swap"},
	OpIAdd:      {name: "iadd", stack: "II>I"},
	OpISub:      {name: "isub", stack: "II>I"},
	OpIMul:      {name: "imul", stack: "II>I"},
	OpIDiv:      {name: "idiv", stack: "II>I"},
	OpIRem:      {name: "irem", stack: "II>I"},
	OpINeg:      {name: "ineg", stack: "I>I"},
	OpIShl:      {name: "ishl", stack: "II>I"},
	OpIShr:      {name: "ishr", stack: "II>I"},
	OpIUshr:     {name: "iushr", stack: "II>I"},
	OpIAnd:      {name: "iand", stack: "II>I"},
	OpIOr:       {name: "ior", stack: "II>I"},
	OpIXor:      {name: "ixor", stack: "II>I"},
	OpDAdd:      {name: "dadd", stack: "FF>F"},
	OpDSub:      {name: "dsub", stack: "FF>F"},
	OpDMul:      {name: "dmul", stack: "FF>F"},
	OpDDiv:      {name: "ddiv", stack: "FF>F"},
	OpDNeg:      {name: "dneg", stack: "F>F"},
	OpI2D:       {name: "i2d", stack: "I>F"},
	OpD2I:       {name: "d2i", stack: "F>I"},
	OpDCmp:      {name: "dcmp", stack: "FF>I"},
	OpJmp:       {name: "jmp", hasI: true, branch: true, stack: ">"},
	OpIfEQ:      {name: "if_eq", hasI: true, branch: true, stack: "II>"},
	OpIfNE:      {name: "if_ne", hasI: true, branch: true, stack: "II>"},
	OpIfLT:      {name: "if_lt", hasI: true, branch: true, stack: "II>"},
	OpIfLE:      {name: "if_le", hasI: true, branch: true, stack: "II>"},
	OpIfGT:      {name: "if_gt", hasI: true, branch: true, stack: "II>"},
	OpIfGE:      {name: "if_ge", hasI: true, branch: true, stack: "II>"},
	OpIfZ:       {name: "ifz", hasI: true, branch: true, stack: "I>"},
	OpIfNZ:      {name: "ifnz", hasI: true, branch: true, stack: "I>"},
	OpIfNull:    {name: "ifnull", hasI: true, branch: true, stack: "R>"},
	OpIfNonNull: {name: "ifnonnull", hasI: true, branch: true, stack: "R>"},
	OpIfACmpEQ:  {name: "if_acmpeq", hasI: true, branch: true, stack: "RR>"},
	OpIfACmpNE:  {name: "if_acmpne", hasI: true, branch: true, stack: "RR>"},
	OpNew:       {name: "new", hasS: true, stack: ">R"},
	OpGetF:      {name: "getfield", hasS: true},
	OpPutF:      {name: "putfield", hasS: true},
	OpGetS:      {name: "getstatic", hasS: true},
	OpPutS:      {name: "putstatic", hasS: true},
	OpInvokeV:   {name: "invokevirtual", hasS: true},
	OpInvokeI:   {name: "invokeinterface", hasS: true},
	OpInvokeS:   {name: "invokestatic", hasS: true},
	OpCast:      {name: "cast", hasS: true, stack: "R>R"},
	OpInstOf:    {name: "instanceof", hasS: true, stack: "R>I"},
	OpNewArr:    {name: "newarr", hasS: true, stack: "I>R"},
	OpALoad:     {name: "aload"},
	OpAStore:    {name: "astore"},
	OpALen:      {name: "arraylength"},
	OpThrow:     {name: "throw"},
	OpMonEnter:  {name: "monitorenter", stack: "R>"},
	OpMonExit:   {name: "monitorexit", stack: "R>"},
	OpRet:       {name: "ret"},
	OpRetV:      {name: "retv"},
}

// opByName maps mnemonic to opcode for the assembler.
var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, int(opMax))
	for op := Opcode(0); op < opMax; op++ {
		if opTable[op].name != "" {
			m[opTable[op].name] = op
		}
	}
	return m
}()

// Name returns the assembler mnemonic for op.
func (op Opcode) Name() string {
	if op < opMax {
		return opTable[op].name
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// IsBranch reports whether the opcode's I operand is a code index.
func (op Opcode) IsBranch() bool { return op < opMax && opTable[op].branch }

// String renders the instruction in assembler syntax (branch targets as raw
// indices).
func (in Instr) String() string {
	info := opTable[in.Op]
	switch {
	case info.hasS:
		return fmt.Sprintf("%s %q", info.name, in.S)
	case info.hasF:
		return fmt.Sprintf("%s %g", info.name, in.F)
	case info.hasI:
		return fmt.Sprintf("%s %d", info.name, in.I)
	default:
		return info.name
	}
}

// FieldRef is a parsed "Class.name:Desc" symbolic field reference.
type FieldRef struct {
	Class, Name, Desc string
}

// MethodRef is a parsed "Class.name:(params)ret" symbolic method reference.
type MethodRef struct {
	Class, Name, Desc string
}

// ParseFieldRef parses "Class.name:Desc".
func ParseFieldRef(s string) (FieldRef, error) {
	dot := strings.LastIndexByte(s, '.')
	if dot <= 0 {
		return FieldRef{}, fmt.Errorf("vmkit: bad field ref %q", s)
	}
	colon := indexByteFrom(s, ':', dot)
	if colon < 0 || colon == len(s)-1 {
		return FieldRef{}, fmt.Errorf("vmkit: bad field ref %q", s)
	}
	fr := FieldRef{Class: s[:dot], Name: s[dot+1 : colon], Desc: s[colon+1:]}
	if fr.Name == "" || !ValidIdent(fr.Class) {
		return FieldRef{}, fmt.Errorf("vmkit: bad field ref %q", s)
	}
	if _, n, err := parseOneDesc(fr.Desc); err != nil || n != len(fr.Desc) {
		return FieldRef{}, fmt.Errorf("vmkit: bad field descriptor in %q", s)
	}
	return fr, nil
}

// ParseMethodRef parses "Class.name:(params)ret". The class/name split is
// the last '.' before the descriptor's '(' (class names may be dotted). It
// allocates only to report an error: every part is a substring of s.
func ParseMethodRef(s string) (MethodRef, error) {
	end := strings.IndexByte(s, '(')
	if end < 0 {
		end = len(s)
	}
	dot := strings.LastIndexByte(s[:end], '.')
	if dot <= 0 {
		return MethodRef{}, fmt.Errorf("vmkit: bad method ref %q", s)
	}
	colon := indexByteFrom(s, ':', dot)
	if colon < 0 {
		return MethodRef{}, fmt.Errorf("vmkit: bad method ref %q", s)
	}
	mr := MethodRef{Class: s[:dot], Name: s[dot+1 : colon], Desc: s[colon+1:]}
	if mr.Name == "" || !ValidIdent(mr.Class) {
		return MethodRef{}, fmt.Errorf("vmkit: bad method ref %q", s)
	}
	if _, err := checkMethodDesc(mr.Desc); err != nil {
		return MethodRef{}, err
	}
	return mr, nil
}

// indexByteFrom finds b in s at or after from.
func indexByteFrom(s string, b byte, from int) int {
	if i := strings.IndexByte(s[from:], b); i >= 0 {
		return from + i
	}
	return -1
}
