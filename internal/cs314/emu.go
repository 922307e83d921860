package cs314

import (
	"encoding/binary"
	"fmt"
)

// Emulator executes a linked C3 executable against a flat byte-addressable
// memory. Text occupies [0, 4*len(Text)); data is loaded at DataBase; the
// stack grows down from the top of memory.
type Emulator struct {
	Regs   [NumRegs]int32
	PC     uint32 // word address
	Mem    []byte
	Text   []uint32
	Output []int32
	halted bool
	steps  int64
}

// EmuError reports an execution fault.
type EmuError struct {
	PC  uint32
	Msg string
}

func (e *EmuError) Error() string {
	return fmt.Sprintf("c3 emu: pc=%d: %s", e.PC, e.Msg)
}

// DefaultMemSize is the emulator's memory if none is specified.
const DefaultMemSize = 1 << 20

// NewEmulator loads an executable.
func NewEmulator(exe *Executable, memSize int) (*Emulator, error) {
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	need := int(exe.DataBase) + len(exe.Data) + 4096
	if memSize < need {
		memSize = need
	}
	e := &Emulator{
		Mem:  make([]byte, memSize),
		Text: exe.Text,
		PC:   exe.Entry,
	}
	for i, w := range exe.Text {
		binary.LittleEndian.PutUint32(e.Mem[i*4:], w)
	}
	copy(e.Mem[exe.DataBase:], exe.Data)
	e.Regs[RegSP] = int32(memSize - 4)
	// A return from main lands on a halt at the very top of text space:
	// set the link register to a sentinel that Step treats as halt.
	e.Regs[RegRA] = int32(len(exe.Text))
	return e, nil
}

// Steps returns executed instruction count.
func (e *Emulator) Steps() int64 { return e.steps }

// Run executes until halt or maxSteps; it errors on faults or timeout.
func (e *Emulator) Run(maxSteps int64) error {
	for !e.halted {
		if e.steps >= maxSteps {
			return &EmuError{PC: e.PC, Msg: fmt.Sprintf("step limit %d exceeded", maxSteps)}
		}
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one instruction.
func (e *Emulator) Step() error {
	if e.halted {
		return nil
	}
	if int(e.PC) >= len(e.Text) {
		// Return past the end of text = clean halt (main returned).
		e.halted = true
		return nil
	}
	w := e.Text[e.PC]
	op, rd, rs, rt, imm, addr := Decode(w)
	next := e.PC + 1
	e.steps++

	fault := func(f string, a ...any) error {
		return &EmuError{PC: e.PC, Msg: fmt.Sprintf(f, a...)}
	}
	loadWord := func(ba int32) (int32, error) {
		if ba < 0 || int(ba)+4 > len(e.Mem) {
			return 0, fault("load at %d out of bounds", ba)
		}
		if ba%4 != 0 {
			return 0, fault("misaligned load at %d", ba)
		}
		return int32(binary.LittleEndian.Uint32(e.Mem[ba:])), nil
	}
	storeWord := func(ba int32, v int32) error {
		if ba < 0 || int(ba)+4 > len(e.Mem) {
			return fault("store at %d out of bounds", ba)
		}
		if ba%4 != 0 {
			return fault("misaligned store at %d", ba)
		}
		if ba < int32(len(e.Text)*4) {
			return fault("store into text segment at %d", ba)
		}
		binary.LittleEndian.PutUint32(e.Mem[ba:], uint32(v))
		return nil
	}

	switch op {
	case OpHalt:
		e.halted = true
		return nil
	case OpAdd:
		e.set(rd, e.Regs[rs]+e.Regs[rt])
	case OpSub:
		e.set(rd, e.Regs[rs]-e.Regs[rt])
	case OpMul:
		e.set(rd, e.Regs[rs]*e.Regs[rt])
	case OpDiv:
		if e.Regs[rt] == 0 {
			return fault("division by zero")
		}
		e.set(rd, e.Regs[rs]/e.Regs[rt])
	case OpRem:
		if e.Regs[rt] == 0 {
			return fault("division by zero")
		}
		e.set(rd, e.Regs[rs]%e.Regs[rt])
	case OpAnd:
		e.set(rd, e.Regs[rs]&e.Regs[rt])
	case OpOr:
		e.set(rd, e.Regs[rs]|e.Regs[rt])
	case OpXor:
		e.set(rd, e.Regs[rs]^e.Regs[rt])
	case OpShl:
		e.set(rd, e.Regs[rs]<<(uint32(e.Regs[rt])&31))
	case OpShr:
		e.set(rd, int32(uint32(e.Regs[rs])>>(uint32(e.Regs[rt])&31)))
	case OpSlt:
		if e.Regs[rs] < e.Regs[rt] {
			e.set(rd, 1)
		} else {
			e.set(rd, 0)
		}
	case OpAddi:
		e.set(rd, e.Regs[rs]+imm)
	case OpLui:
		e.set(rd, imm<<LuiShift)
	case OpLw:
		v, err := loadWord(e.Regs[rs] + imm)
		if err != nil {
			return err
		}
		e.set(rd, v)
	case OpSw:
		if err := storeWord(e.Regs[rs]+imm, e.Regs[rt]); err != nil {
			return err
		}
	case OpBeq:
		if e.Regs[rs] == e.Regs[rt] {
			next = uint32(int64(e.PC) + 1 + int64(imm))
		}
	case OpBne:
		if e.Regs[rs] != e.Regs[rt] {
			next = uint32(int64(e.PC) + 1 + int64(imm))
		}
	case OpBlt:
		if e.Regs[rs] < e.Regs[rt] {
			next = uint32(int64(e.PC) + 1 + int64(imm))
		}
	case OpJal:
		e.set(RegRA, int32(e.PC+1))
		next = addr
	case OpJr:
		next = uint32(e.Regs[rs])
	case OpOut:
		e.Output = append(e.Output, e.Regs[rs])
		if len(e.Output) > 1<<20 {
			return fault("output flood")
		}
	default:
		return fault("illegal opcode %d", op)
	}
	e.PC = next
	return nil
}

// set writes a register, keeping r0 zero.
func (e *Emulator) set(rd int, v int32) {
	if rd != RegZero {
		e.Regs[rd] = v
	}
}

// RunProgram is a convenience: execute exe and return its output values.
func RunProgram(exe *Executable, maxSteps int64) ([]int32, error) {
	e, err := NewEmulator(exe, 0)
	if err != nil {
		return nil, err
	}
	if err := e.Run(maxSteps); err != nil {
		return e.Output, err
	}
	return e.Output, nil
}
