// Package cs314 implements the components behind the paper's CS314
// servlets: "The course staff wrote compiler, assembler, and linker
// components in Java, which students used for course homeworks and
// projects" — served from an extensible web server, which motivated the
// J-Kernel's failure isolation and clean termination.
//
// The package defines a small 32-bit RISC ISA ("C3"), an assembler from
// textual assembly to relocatable object files, a linker producing
// executables, a compiler from a small imperative language ("MiniC") to C3
// assembly, and an emulator to run the results. Each tool also ships as a
// servlet (see servlets.go) so the webserver example can host the whole
// toolchain as isolated domains.
package cs314

// Register conventions: r0 is hard-wired zero, r1 carries return values
// and the first argument, r1–r4 are arguments, r5–r12 are scratch, r13 is
// the stack pointer, r14 the link register, r15 assembler temporary.
const (
	RegZero = 0
	RegRV   = 1
	RegSP   = 13
	RegRA   = 14
	RegAT   = 15
	NumRegs = 16
)

// Opcode space.
type Op uint32

const (
	OpHalt Op = iota
	// R-type: rd = rs OP rt
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSlt // rd = (rs < rt) ? 1 : 0, signed
	// I-type
	OpAddi // rd = rs + imm
	OpLui  // rd = imm << 14
	OpLw   // rd = mem[rs + imm]
	OpSw   // mem[rs + imm] = rt   (encoded with rd = rt)
	OpBeq  // if rs == rt: pc += imm   (word offset; rd = rt)
	OpBne
	OpBlt // if rs < rt (signed)
	// J-type
	OpJal // ra = pc+1; pc = addr
	OpJr  // pc = rs
	OpOut // emit rs to the output device
	opMax
)

// Instruction encoding (32 bits):
//
//	[31:26] opcode
//	[25:22] rd
//	[21:18] rs
//	[17:14] rt
//	[13:0]  imm14 (signed, I-type)
//
// J-type (jal) uses [25:0] as a 26-bit word address.
const (
	immBits = 14
	immMask = (1 << immBits) - 1
	// ImmMax/ImmMin bound I-type immediates.
	ImmMax = 1<<(immBits-1) - 1
	ImmMin = -(1 << (immBits - 1))
	// LuiShift positions the lui immediate.
	LuiShift = immBits
	addrMask = (1 << 26) - 1
)

// Encode packs an instruction.
func Encode(op Op, rd, rs, rt int, imm int32) uint32 {
	return uint32(op)<<26 |
		uint32(rd&0xf)<<22 |
		uint32(rs&0xf)<<18 |
		uint32(rt&0xf)<<14 |
		uint32(imm)&immMask
}

// EncodeJ packs a J-type instruction.
func EncodeJ(op Op, addr uint32) uint32 {
	return uint32(op)<<26 | addr&addrMask
}

// Decode unpacks an instruction.
func Decode(w uint32) (op Op, rd, rs, rt int, imm int32, addr uint32) {
	op = Op(w >> 26)
	rd = int(w >> 22 & 0xf)
	rs = int(w >> 18 & 0xf)
	rt = int(w >> 14 & 0xf)
	imm = int32(w & immMask)
	if imm>>(immBits-1) != 0 { // sign-extend
		imm |= ^int32(immMask)
	}
	addr = w & addrMask
	return
}
