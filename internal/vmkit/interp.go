package vmkit

import (
	"fmt"
	"unsafe"
)

// maxCallDepth bounds interpreter recursion so runaway bytecode raises a
// StackOverflow-style error instead of exhausting the Go stack.
const maxCallDepth = 512

// stepsFlushEvery bounds how much interpreter work a thread keeps
// unpublished (Thread.Pending): a frame publishes every stepsFlushEvery of
// its own steps, and so does the thread once the steps of returned frames,
// or those pending for the accounts it switched between, reach it.
const stepsFlushEvery = 4096

// The frame arena. Each Thread owns one growable []Value, and every live
// frame is a window into it: arguments, then the method's other locals,
// then its operand stack (Method.frame slots, sized by the verifier). A
// bytecode invoke does not copy arguments: the callee's window starts at
// the slots the caller pushed them into, so the callee's locals *are* the
// caller's pushed arguments and the rest of its frame overlays the caller's
// dead stack space above them. A native's args are the same kind of window.
//
// Two rules follow. Natives must not retain args (or env) past their
// return: the slots are cleared and reused by the next call. And because
// growing the arena moves it, nothing holds a slice of it across a call:
// run re-derives its windows after every invoke, and a native that
// re-enters the VM keeps reading a consistent (old) copy of its args.
// Every window is cleared when its call returns or unwinds, so the arena
// never pins objects a finished frame referenced.

// arenaKeepSlots is the arena size a thread keeps between top-level calls;
// a deep recursion's arena is released rather than held for the thread's
// lifetime.
const arenaKeepSlots = 1 << 14

// maxArenaBytes is a thread's stack size, the analog of the JVM's -Xss: a
// call whose window would take the arena past it throws "call stack
// overflow", as one past maxCallDepth does. What a method declares
// (locals, stack) sizes its window, so without it one small class could
// ask for gigabytes. The arena grows through powers of two of bytes up to
// this one, so the arenas a thread grows through on its way to the
// ceiling sum to less than twice it.
const maxArenaBytes = 8 << 20

// minArenaBytes is the size of a thread's first arena.
const minArenaBytes = 8 << 10

const valueBytes = int(unsafe.Sizeof(Value{}))

// Call executes method m on thread t with the given arguments and returns
// the result. A thrown VM exception surfaces as *ThrownError; VM-level
// faults (wrong arity or argument kind, abstract target) are plain errors.
// An argument's kind is checked on the half of its slot that must be
// empty: a reference's I, a primitive's R.
func (vm *VM) Call(t *Thread, m *Method, args []Value) (Value, error) {
	if len(args) != len(m.argKinds) {
		return Value{}, fmt.Errorf("vmkit: %s.%s wants %d args, got %d", m.Owner.Name, m.Name, len(m.argKinds), len(args))
	}
	for i, k := range m.argKinds {
		if k == KRef && args[i].I != 0 || k != KRef && args[i].R != nil {
			return Value{}, fmt.Errorf("vmkit: argument %d of %s.%s has the wrong kind", i, m.Owner.Name, m.Name)
		}
	}
	v, thrown := vm.enter(t, m, args)
	t.Publish()
	if thrown != nil {
		return Value{}, &ThrownError{Throwable: thrown}
	}
	return v, nil
}

// CallStatic resolves "Class.name:(desc)ret" in ns and calls it.
func (vm *VM) CallStatic(t *Thread, ns *Namespace, ref string, args ...Value) (Value, error) {
	mr, err := ParseMethodRef(ref)
	if err != nil {
		return Value{}, err
	}
	c, err := ns.Resolve(mr.Class)
	if err != nil {
		return Value{}, err
	}
	m := c.MethodBySig(mr.Name, mr.Desc)
	if m == nil {
		return Value{}, fmt.Errorf("vmkit: no method %s", ref)
	}
	return vm.Call(t, m, args)
}

// Invoke runs m with args on t, returning the result value or a thrown
// throwable. It is the re-entry point for native methods (LRMI gates) that
// need to execute bytecode. args is copied into the arena, not retained.
func (vm *VM) Invoke(t *Thread, m *Method, args []Value) (Value, *Object) {
	if len(args) != len(m.argKinds) {
		return Value{}, vm.Throwf(ClassError, "%s.%s wants %d args, got %d", m.Owner.Name, m.Name, len(m.argKinds), len(args))
	}
	return vm.enter(t, m, args)
}

// enter places args in a fresh window above everything live and runs m.
//
// It is where Go enters the VM, and no Go panic raised beneath it (a
// native's, or the runtime's) crosses it: the recover puts the thread back
// as the call found it — top, call depth, the native Env's namespace, and
// every window above base cleared — and returns the panic as a thrown
// jk/lang/Error, as safeCall does for a native callee. A bytecode caller
// that re-entered through a native sees an exception, and the carrier
// stays usable.
func (vm *VM) enter(t *Thread, m *Method, args []Value) (v Value, thrown *Object) {
	base, depth, ns := t.top, t.callDepth, t.env.NS
	defer func() {
		if r := recover(); r != nil {
			clear(t.arena[base:])
			t.top, t.callDepth, t.env.NS = base, depth, ns
			v, thrown = Value{}, vm.Throwf(ClassError, "panic in %s.%s: %v", m.Owner.Name, m.Name, r)
		}
		if base == 0 && len(t.arena) > arenaKeepSlots {
			t.arena = nil
		}
	}()
	if !t.reserve(base + len(args)) {
		return Value{}, vm.Throwf(ClassError, "call stack overflow")
	}
	copy(t.arena[base:], args)
	return vm.invoke(t, m, base)
}

// reserve grows the arena to at least n slots, reporting false, and
// leaving the arena as it is, when that would pass maxArenaBytes. The
// thread's account pays for a grown arena. It inlines; grow does not.
func (t *Thread) reserve(n int) bool {
	return n <= len(t.arena) || t.grow(n)
}

func (t *Thread) grow(n int) bool {
	if n > maxArenaBytes/valueBytes {
		return false
	}
	size := minArenaBytes
	for size/valueBytes < n {
		size *= 2
	}
	grown := make([]Value, size/valueBytes)
	charge(t.Account, uintptr(len(grown)*valueBytes))
	copy(grown, t.arena)
	t.arena = grown
	return true
}

// invoke runs m on the window from base whose first slots hold its
// arguments, one a slot of m.argKinds. It owns the window: on every path
// out (return, throw, overflow) the window is cleared and t.top restored.
func (vm *VM) invoke(t *Thread, m *Method, base int) (v Value, thrown *Object) {
	top := t.top
	end := base + len(m.argKinds)
	t.callDepth++
	switch {
	case t.callDepth > maxCallDepth:
		thrown = vm.Throwf(ClassError, "call stack overflow")
	case m.Flags&MAbstract != 0:
		thrown = vm.Throwf(ClassError, "abstract method %s.%s", m.Owner.Name, m.Name)
	default:
		// Method entry polls as the backward branches do: it keeps a call
		// tree with no loop in it (2^n calls, never deeper than n) stoppable,
		// and idle it is one load.
		if thrown = t.safepoint(); thrown != nil {
			break
		}
		if m.Flags&MNative != 0 {
			t.top = end
			v, thrown = vm.callNative(t, m, base)
			break
		}
		if !t.reserve(base + m.frame) {
			thrown = vm.Throwf(ClassError, "call stack overflow")
			break
		}
		end = base + m.frame
		t.top = end
		if m.Flags&MSynchronized != 0 && !m.IsStatic() && t.arena[base].R != nil {
			v, thrown = vm.runLocked(t, m, base)
		} else {
			v, thrown = vm.run(t, m, base)
		}
	}
	t.callDepth--
	t.top = top
	clear(t.arena[base:end])
	return v, thrown
}

// callNative hands a native method its receiver and a window on its
// arguments, with the thread's one Env pointed at the declaring namespace
// for the duration (restored after, so a native that re-entered the VM
// still sees its own namespace).
func (vm *VM) callNative(t *Thread, m *Method, base int) (Value, *Object) {
	end := base + len(m.argKinds)
	args := t.arena[base:end:end]
	var recv *Object
	if !m.IsStatic() {
		if recv = args[0].R; recv == nil {
			return Value{}, vm.Throwf(ClassNullPointerEx, "null receiver for %s.%s", m.Owner.Name, m.Name)
		}
		args = args[1:]
	}
	env := &t.env
	ns := env.NS
	env.NS = m.Owner.NS
	v, thrown := m.Native(env, recv, args)
	env.NS = ns
	return v, thrown
}

// runLocked runs a synchronized instance method under the receiver's
// monitor (static: skipped — the VM has no per-class lock object; shared
// classes forbid statics).
func (vm *VM) runLocked(t *Thread, m *Method, base int) (Value, *Object) {
	mon := t.arena[base].R
	mon.monEnter(t)
	defer mon.monExit(t)
	return vm.run(t, m, base)
}

// run interprets one bytecode frame on the window at base. The second
// result is a thrown throwable (nil on normal return).
func (vm *VM) run(t *Thread, m *Method, base int) (Value, *Object) {
	// frame is the whole window: locals are frame[:nlocals], and sp
	// indexes the operand stack above them, so an empty stack is
	// sp == nlocals.
	frame := t.arena[base : base+m.frame]
	nlocals := m.nlocals
	sp := nlocals
	pc := 0
	code := m.Code
	linked := m.linked

	push := func(v Value) { frame[sp] = v; sp++ }
	pop := func() Value { sp--; return frame[sp] }

	throwName := func(class, format string, a ...any) *Object {
		return vm.Throwf(class, format, a...)
	}

	var thrown *Object
	steps := int64(0)

	for {
		if thrown != nil {
			// Exception dispatch: find a handler covering pc whose type
			// accepts the throwable, else unwind.
			handler := -1
			for i, e := range m.Excs {
				if int32(pc) >= e.From && int32(pc) < e.To && thrown.Class.AssignableTo(m.excClasses[i]) {
					handler = int(e.Handler)
					break
				}
			}
			if handler < 0 {
				t.retire(steps)
				return Value{}, thrown
			}
			sp = nlocals
			push(RefVal(thrown))
			pc = handler
			thrown = nil
		}

		in := code[pc]
		steps++
		if steps >= stepsFlushEvery {
			t.steps += steps
			steps = 0
			t.Publish()
		}

		switch in.Op {
		case OpNop:

		case OpIConst:
			push(IntVal(in.I))
		case OpDConst:
			push(FloatVal(in.F))
		case OpSConst:
			push(RefVal(linked[pc].str))
		case OpNullConst:
			push(Null())

		case OpLoad:
			push(frame[in.I])
		case OpStore:
			frame[in.I] = pop()

		case OpPop:
			sp--
		case OpDup:
			frame[sp] = frame[sp-1]
			sp++
		case OpDupX1:
			a := frame[sp-1]
			b := frame[sp-2]
			frame[sp-2] = a
			frame[sp-1] = b
			frame[sp] = a
			sp++
		case OpSwap:
			frame[sp-1], frame[sp-2] = frame[sp-2], frame[sp-1]

		case OpIAdd:
			b, a := pop().I, pop().I
			push(IntVal(a + b))
		case OpISub:
			b, a := pop().I, pop().I
			push(IntVal(a - b))
		case OpIMul:
			b, a := pop().I, pop().I
			push(IntVal(a * b))
		case OpIDiv:
			b, a := pop().I, pop().I
			if b == 0 {
				thrown = throwName(ClassArithmeticEx, "division by zero")
				continue
			}
			push(IntVal(a / b))
		case OpIRem:
			b, a := pop().I, pop().I
			if b == 0 {
				thrown = throwName(ClassArithmeticEx, "division by zero")
				continue
			}
			push(IntVal(a % b))
		case OpINeg:
			push(IntVal(-pop().I))
		case OpIShl:
			b, a := pop().I, pop().I
			push(IntVal(a << (uint64(b) & 63)))
		case OpIShr:
			b, a := pop().I, pop().I
			push(IntVal(a >> (uint64(b) & 63)))
		case OpIUshr:
			b, a := pop().I, pop().I
			push(IntVal(int64(uint64(a) >> (uint64(b) & 63))))
		case OpIAnd:
			b, a := pop().I, pop().I
			push(IntVal(a & b))
		case OpIOr:
			b, a := pop().I, pop().I
			push(IntVal(a | b))
		case OpIXor:
			b, a := pop().I, pop().I
			push(IntVal(a ^ b))

		case OpDAdd:
			b, a := pop().Float(), pop().Float()
			push(FloatVal(a + b))
		case OpDSub:
			b, a := pop().Float(), pop().Float()
			push(FloatVal(a - b))
		case OpDMul:
			b, a := pop().Float(), pop().Float()
			push(FloatVal(a * b))
		case OpDDiv:
			b, a := pop().Float(), pop().Float()
			push(FloatVal(a / b))
		case OpDNeg:
			push(FloatVal(-pop().Float()))

		case OpI2D:
			push(FloatVal(float64(pop().I)))
		case OpD2I:
			push(IntVal(int64(pop().Float())))
		case OpDCmp:
			b, a := pop().Float(), pop().Float()
			switch {
			case a < b:
				push(IntVal(-1))
			case a > b:
				push(IntVal(1))
			default:
				push(IntVal(0))
			}

		case OpJmp:
			if int(in.I) <= pc {
				if th := t.safepoint(); th != nil {
					thrown = th
					continue
				}
			}
			pc = int(in.I)
			continue
		case OpIfEQ, OpIfNE, OpIfLT, OpIfLE, OpIfGT, OpIfGE:
			b, a := pop().I, pop().I
			var taken bool
			switch in.Op {
			case OpIfEQ:
				taken = a == b
			case OpIfNE:
				taken = a != b
			case OpIfLT:
				taken = a < b
			case OpIfLE:
				taken = a <= b
			case OpIfGT:
				taken = a > b
			case OpIfGE:
				taken = a >= b
			}
			if taken {
				if int(in.I) <= pc {
					if th := t.safepoint(); th != nil {
						thrown = th
						continue
					}
				}
				pc = int(in.I)
				continue
			}
		case OpIfZ, OpIfNZ:
			a := pop().I
			if (in.Op == OpIfZ) == (a == 0) {
				if int(in.I) <= pc {
					if th := t.safepoint(); th != nil {
						thrown = th
						continue
					}
				}
				pc = int(in.I)
				continue
			}
		case OpIfNull, OpIfNonNull:
			r := pop().R
			if (in.Op == OpIfNull) == (r == nil) {
				pc = int(in.I)
				continue
			}
		case OpIfACmpEQ, OpIfACmpNE:
			b, a := pop().R, pop().R
			if (in.Op == OpIfACmpEQ) == (a == b) {
				pc = int(in.I)
				continue
			}

		case OpNew:
			push(RefVal(newInstance(linked[pc].class, t.Account)))

		case OpGetF:
			r := pop().R
			if r == nil {
				thrown = throwName(ClassNullPointerEx, "getfield on null")
				continue
			}
			push(r.Fields[linked[pc].field.Slot])
		case OpPutF:
			v := pop()
			r := pop().R
			if r == nil {
				thrown = throwName(ClassNullPointerEx, "putfield on null")
				continue
			}
			r.Fields[linked[pc].field.Slot] = v
		case OpGetS:
			f := linked[pc].field
			push(f.Owner.Statics[f.Slot])
		case OpPutS:
			f := linked[pc].field
			f.Owner.Statics[f.Slot] = pop()

		case OpInvokeV, OpInvokeI:
			decl := linked[pc].method
			sp -= len(decl.argKinds)
			recv := frame[sp].R
			if recv == nil {
				thrown = throwName(ClassNullPointerEx, "invoke on null (%s)", decl.Sig())
				continue
			}
			var target *Method
			if in.Op == OpInvokeI && vm.Profile.LinearIfaceDispatch {
				// Profile A: resolve through the VM-global locked
				// interface table with a composite key built per call —
				// the expensive invokeinterface of Table 1.
				target = vm.ifaceDispatchSlow(recv.Class, decl.Name, decl.Desc)
			} else {
				target = recv.Class.dispatch(decl)
			}
			if target == nil || target.Flags&MAbstract != 0 {
				thrown = throwName(ClassError, "no implementation of %s in %s", decl.Sig(), recv.Class.Name)
				continue
			}
			// The arguments start at frame[sp]: that slot is the callee's
			// window. A growing arena may move, so re-derive ours after.
			v, th := vm.invoke(t, target, base+sp)
			frame = t.arena[base : base+m.frame]
			if th != nil {
				thrown = th
				continue
			}
			if target.ret != "" {
				push(v)
			}

		case OpInvokeS:
			ref := linked[pc]
			sp -= len(ref.method.argKinds)
			v, th := vm.invoke(t, ref.method, base+sp)
			frame = t.arena[base : base+m.frame]
			if th != nil {
				thrown = th
				continue
			}
			if ref.method.ret != "" {
				push(v)
			}

		case OpCast:
			r := frame[sp-1].R
			if r != nil && !r.Class.AssignableTo(linked[pc].class) {
				thrown = throwName(ClassCastEx, "%s is not a %s", r.Class.Name, in.S)
				continue
			}
		case OpInstOf:
			r := pop().R
			if r != nil && r.Class.AssignableTo(linked[pc].class) {
				push(IntVal(1))
			} else {
				push(IntVal(0))
			}

		case OpNewArr:
			n := pop().I
			c := linked[pc].class
			switch {
			case n < 0:
				thrown = throwName(ClassNegArraySizeEx, "array size %d", n)
				continue
			case n > maxArrayLen(c):
				thrown = throwName(ClassError, "%s", arrayTooLarge(c, n))
				continue
			}
			push(RefVal(newArray(c, int(n), t.Account)))

		case OpALoad:
			idx := pop().I
			arr := pop().R
			if arr == nil {
				thrown = throwName(ClassNullPointerEx, "aload on null")
				continue
			}
			if idx < 0 || int(idx) >= arr.Len() {
				thrown = throwName(ClassIndexEx, "index %d of %d", idx, arr.Len())
				continue
			}
			switch {
			case arr.Bytes == nil:
				push(arr.Fields[idx])
			case arr.Class.elem == "B":
				push(IntVal(int64(arr.Bytes[idx])))
			default:
				push(Value{I: arr.Word(int(idx))})
			}
		case OpAStore:
			v := pop()
			idx := pop().I
			arr := pop().R
			if arr == nil {
				thrown = throwName(ClassNullPointerEx, "astore on null")
				continue
			}
			if idx < 0 || int(idx) >= arr.Len() {
				thrown = throwName(ClassIndexEx, "index %d of %d", idx, arr.Len())
				continue
			}
			switch {
			case arr.Bytes == nil:
				if v.R != nil {
					ec := arr.Class.elemCls
					if ec != nil && !v.R.Class.AssignableTo(ec) {
						thrown = throwName(ClassCastEx, "array store of %s into %s", v.R.Class.Name, arr.Class.Name)
						continue
					}
				}
				arr.Fields[idx] = RefVal(v.R)
			case arr.Class.elem == "B":
				arr.Bytes[idx] = byte(v.I)
			default:
				arr.SetWord(int(idx), v.I)
			}
		case OpALen:
			arr := pop().R
			if arr == nil {
				thrown = throwName(ClassNullPointerEx, "arraylength on null")
				continue
			}
			push(IntVal(int64(arr.Len())))

		case OpThrow:
			r := pop().R
			if r == nil {
				thrown = throwName(ClassNullPointerEx, "throw null")
				continue
			}
			thrown = r
			continue

		case OpMonEnter:
			r := pop().R
			if r == nil {
				thrown = throwName(ClassNullPointerEx, "monitorenter on null")
				continue
			}
			r.monEnter(t)
		case OpMonExit:
			r := pop().R
			if r == nil {
				thrown = throwName(ClassNullPointerEx, "monitorexit on null")
				continue
			}
			if !r.monExit(t) {
				thrown = throwName(ClassIllegalStateEx, "monitorexit by non-owner")
				continue
			}

		case OpRet:
			t.retire(steps)
			return Value{}, nil
		case OpRetV:
			t.retire(steps)
			return pop(), nil

		default:
			thrown = throwName(ClassError, "bad opcode %d", in.Op)
			continue
		}
		pc++
	}
}

// MaxArrayBytes is the largest array payload newarr and NewArray build:
// element size × length, a reference element counted at its 16-byte Value.
// Past it, newarr throws jk/lang/Error rather than leave the Go runtime a
// length it panics on, or an allocation that ends the process.
const MaxArrayBytes = 1 << 28

// maxArrayLen is the longest array of class c within MaxArrayBytes.
func maxArrayLen(c *Class) int64 {
	switch c.elem {
	case "B":
		return MaxArrayBytes
	case "I", "D":
		return MaxArrayBytes / 8
	}
	return int64(MaxArrayBytes / valueBytes)
}

func arrayTooLarge(c *Class, n int64) string {
	return fmt.Sprintf("array %s of %d elements exceeds %d bytes", c.Name, n, MaxArrayBytes)
}

// NewArrayOfClass allocates an array of class c, which must be an array
// class, with 0 <= length <= maxArrayLen(c) elements, owned by ns's domain
// and paid for by its account. It is NewArray for a caller that holds the
// class and has checked the length already.
func (ns *Namespace) NewArrayOfClass(c *Class, length int) *Object {
	return newArray(c, length, ns.Account)
}
