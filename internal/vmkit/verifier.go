package vmkit

import (
	"fmt"
	"strings"
)

// The verifier performs abstract interpretation over value types, the
// vmkit analog of the JVM bytecode verifier: it proves that code cannot
// forge references, read uninitialized slots, underflow or overflow the
// operand stack, or call methods and touch fields at the wrong types. The
// J-Kernel's protection model rests on this check — domains are isolated
// because verified code can only reach objects it was given.

// vkind is the verification type lattice: Int, Float, Ref(C), Null (bottom
// of the reference order), and Top (unusable).
type vkind uint8

const (
	vtTop vkind = iota
	vtInt
	vtFloat
	vtRef
	vtNull
)

type vtype struct {
	k vkind
	c *Class // for vtRef
}

func (v vtype) String() string {
	switch v.k {
	case vtInt:
		return "int"
	case vtFloat:
		return "float"
	case vtNull:
		return "null"
	case vtRef:
		return "ref(" + v.c.Name + ")"
	default:
		return "top"
	}
}

// vstate is the abstract machine state at one instruction boundary.
type vstate struct {
	locals []vtype
	stack  []vtype
}

// copyFrom makes s a copy of src, reusing s's storage.
func (s *vstate) copyFrom(src *vstate) {
	s.locals = append(s.locals[:0], src.locals...)
	s.stack = append(s.stack[:0], src.stack...)
}

func (s *vstate) push(t vtype) { s.stack = append(s.stack, t) }

func (s *vstate) pop() (vtype, error) {
	if len(s.stack) == 0 {
		return vtype{}, fmt.Errorf("stack underflow")
	}
	t := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return t, nil
}

// popKind pops a value of kind k; vtRef also takes null.
func (s *vstate) popKind(k vkind) (vtype, error) {
	t, err := s.pop()
	if err != nil {
		return t, err
	}
	if k == vtRef {
		if t.k != vtRef && t.k != vtNull {
			return t, fmt.Errorf("expected ref, got %v", t)
		}
		return t, nil
	}
	if t.k != k {
		return t, fmt.Errorf("expected kind %d, got %v", k, t)
	}
	return t, nil
}

// mergeInto merges src into dst, returning true when dst changed. Stack
// heights must agree.
func mergeInto(dst, src *vstate) (bool, error) {
	if len(dst.stack) != len(src.stack) {
		return false, fmt.Errorf("stack height mismatch at merge: %d vs %d", len(dst.stack), len(src.stack))
	}
	changed := false
	for i := range dst.locals {
		m := mergeType(dst.locals[i], src.locals[i])
		if m != dst.locals[i] {
			dst.locals[i] = m
			changed = true
		}
	}
	for i := range dst.stack {
		m := mergeType(dst.stack[i], src.stack[i])
		if m == (vtype{k: vtTop}) && dst.stack[i].k != vtTop {
			// A Top on the stack can never be consumed; reject eagerly so
			// errors point at the merge, not a distant use.
			return false, fmt.Errorf("irreconcilable stack types %v / %v at depth %d", dst.stack[i], src.stack[i], i)
		}
		if m != dst.stack[i] {
			dst.stack[i] = m
			changed = true
		}
	}
	return changed, nil
}

func mergeType(a, b vtype) vtype {
	if a == b {
		return a
	}
	if a.k == vtNull && b.k == vtRef {
		return b
	}
	if b.k == vtNull && a.k == vtRef {
		return a
	}
	if a.k == vtRef && b.k == vtRef {
		return vtype{k: vtRef, c: commonAncestor(a.c, b.c)}
	}
	return vtype{k: vtTop}
}

// commonAncestor returns the nearest common superclass (interfaces and
// arrays generalize to Object, as in the JVM's verifier).
func commonAncestor(a, b *Class) *Class {
	d := 0
	for d < len(a.supers) && d < len(b.supers) && a.supers[d] == b.supers[d] {
		d++
	}
	if d > 0 {
		return a.supers[d-1]
	}
	// Distinct roots can only happen across namespaces; generalize to the
	// defining namespace's Object.
	if o := a.NS.Lookup(ClassObject); o != nil {
		return o
	}
	return a
}

// verifyClass verifies every concrete method of c. resolveCode must have
// run first so symbolic references are resolved.
func verifyClass(c *Class) error {
	for _, m := range c.methods {
		if m.Owner != c || m.Flags&(MNative|MAbstract) != 0 {
			continue
		}
		if err := verifyMethod(c, m); err != nil {
			return fmt.Errorf("%s.%s%s: %w", c.Name, m.Name, m.Desc, err)
		}
	}
	return nil
}

// The states a method's join points keep, the entry state included, may
// hold slotsPerInstr slots (locals and stack together) an instruction, plus
// slotsBase, so what verifying a method keeps follows the size of its code.
// No method in the tree keeps more than 2 slots an instruction.
const slotsPerInstr, slotsBase = 16, 64

// verifier checks one method. A join point is pc 0, a branch target or a
// handler entry; only join points keep a state, and the straight-line code
// between them runs in place through cur.
type verifier struct {
	c      *Class
	m      *Method
	ret    string
	join   []bool
	states []*vstate // a join point's entry state, once control reaches it
	work   []int     // join points whose state changed since their last run
	cur    vstate    // the working state
	exc    vstate    // a handler's entry state, on its way into flowTo
	slots  int       // the slots the kept states hold, at most bound
	bound  int
	depth  int // the deepest stack a transfer leaves
}

// verifyMethod verifies m and sets its frame: the arguments and every local
// a load or store names, then the deepest stack a transfer leaves.
func verifyMethod(c *Class, m *Method) error {
	if len(m.Code) == 0 {
		return fmt.Errorf("empty code")
	}
	params, ret, err := ParseMethodDesc(m.Desc)
	if err != nil {
		return err
	}
	v := &verifier{c: c, m: m, ret: ret, join: make([]bool, len(m.Code)), states: make([]*vstate, len(m.Code)),
		bound: slotsPerInstr*len(m.Code) + slotsBase}
	// Validate exception table ranges up front.
	for _, e := range m.Excs {
		if e.From < 0 || e.To < e.From || int(e.To) > len(m.Code) ||
			e.Handler < 0 || int(e.Handler) >= len(m.Code) {
			return fmt.Errorf("bad exception table entry %+v", e)
		}
		v.join[e.Handler] = true
	}
	v.join[0] = true
	nlocals := len(m.argKinds)
	for pc, in := range m.Code {
		switch {
		case in.Op == OpLoad || in.Op == OpStore:
			if in.I < 0 || in.I >= int64(v.bound) {
				return fmt.Errorf("pc=%d (%s): local %d is outside the method's bound of %d slots", pc, in, in.I, v.bound)
			}
			nlocals = max(nlocals, int(in.I)+1)
		case in.Op.IsBranch() && in.I >= 0 && in.I < int64(len(m.Code)):
			// A target out of range is left to flowTo, which rejects it if
			// control reaches the branch.
			v.join[in.I] = true
		}
	}
	s := &v.cur
	s.locals = make([]vtype, nlocals) // top past the arguments
	idx := 0
	if !m.IsStatic() {
		s.locals[0] = vtype{k: vtRef, c: c}
		idx = 1
	}
	for _, p := range params {
		t, err := descToVtype(c, p)
		if err != nil {
			return err
		}
		s.locals[idx] = t
		idx++
	}
	if err := v.flowTo(0, s); err != nil {
		return err
	}
	for len(v.work) > 0 {
		pc := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		if err := v.run(pc); err != nil {
			return err
		}
	}
	m.nlocals, m.frame = nlocals, nlocals+v.depth
	return nil
}

// run verifies the straight-line code from the join point at pc in the
// working state, until it ends in a terminal instruction or falls into the
// next join point.
func (v *verifier) run(pc int) error {
	s := &v.cur
	s.copyFrom(v.states[pc])
	for {
		fall, err := v.step(pc, s)
		if err == nil && fall {
			err = v.flowTo(pc+1, s)
		}
		if err != nil {
			return fmt.Errorf("pc=%d (%s): %w", pc, v.m.Code[pc], err)
		}
		if !fall || v.join[pc+1] {
			return nil
		}
		pc++
	}
}

// flowTo checks a transfer of s to pc. At a join point it merges s into the
// state kept there, queueing pc when that state changed. The transfer is
// monotone, so the state a join point last runs with covers every earlier
// one.
func (v *verifier) flowTo(pc int, s *vstate) error {
	if pc < 0 || pc >= len(v.m.Code) {
		return fmt.Errorf("control flows to invalid pc %d", pc)
	}
	v.depth = max(v.depth, len(s.stack))
	if !v.join[pc] {
		return nil
	}
	if v.states[pc] == nil {
		if v.slots += len(s.locals) + len(s.stack); v.slots > v.bound {
			return fmt.Errorf("join states take %d slots, past the bound of %d", v.slots, v.bound)
		}
		v.states[pc] = new(vstate)
		v.states[pc].copyFrom(s)
		v.work = append(v.work, pc)
		return nil
	}
	changed, err := mergeInto(v.states[pc], s)
	if err != nil {
		return err
	}
	if changed {
		v.work = append(v.work, pc)
	}
	return nil
}

// flowExc propagates the locals s holds at pc to every handler covering pc.
func (v *verifier) flowExc(pc int, s *vstate) error {
	for i, e := range v.m.Excs {
		if int32(pc) >= e.From && int32(pc) < e.To {
			v.exc.locals = s.locals
			v.exc.stack = append(v.exc.stack[:0], vtype{k: vtRef, c: v.m.excClasses[i]})
			if err := v.flowTo(int(e.Handler), &v.exc); err != nil {
				return fmt.Errorf("handler at %d: %w", e.Handler, err)
			}
		}
	}
	return nil
}

// step checks the instruction at pc against s and applies it to s in
// place. It reports whether control falls through to pc+1; a branch target
// it flows to itself.
func (v *verifier) step(pc int, s *vstate) (bool, error) {
	in := v.m.Code[pc]
	linked := v.m.linked[pc]

	// Any instruction that can throw propagates its *entry* locals to
	// covering handlers.
	if err := v.flowExc(pc, s); err != nil {
		return false, err
	}

	switch in.Op {
	case OpLoad:
		t := s.locals[in.I]
		if t.k == vtTop {
			return false, fmt.Errorf("load of uninitialized local %d", in.I)
		}
		s.push(t)
	case OpStore:
		t, err := s.pop()
		if err != nil {
			return false, err
		}
		s.locals[in.I] = t

	case OpPop:
		if _, err := s.pop(); err != nil {
			return false, err
		}
	case OpDup:
		t, err := s.pop()
		if err != nil {
			return false, err
		}
		s.push(t)
		s.push(t)
	case OpDupX1, OpSwap:
		a, err := s.pop()
		if err != nil {
			return false, err
		}
		b, err := s.pop()
		if err != nil {
			return false, err
		}
		s.push(a) // a b -> b a: swap
		s.push(b)
		if in.Op == OpDupX1 {
			s.push(a) // a b -> b a b
		}

	case OpGetF:
		t, err := s.popKind(vtRef)
		if err != nil {
			return false, err
		}
		if err := v.checkFieldAccess(linked.field); err != nil {
			return false, err
		}
		if err := v.checkRefAssignable(t, linked.field.Owner); err != nil {
			return false, err
		}
		ft, err := descToVtype(v.c, linked.field.Desc)
		if err != nil {
			return false, err
		}
		s.push(ft)
	case OpPutF:
		val, err := s.pop()
		if err != nil {
			return false, err
		}
		if err := v.checkFieldAccess(linked.field); err != nil {
			return false, err
		}
		if err := v.checkAssignableDesc(val, linked.field.Desc); err != nil {
			return false, err
		}
		t, err := s.popKind(vtRef)
		if err != nil {
			return false, err
		}
		if err := v.checkRefAssignable(t, linked.field.Owner); err != nil {
			return false, err
		}
	case OpGetS:
		if err := v.checkFieldAccess(linked.field); err != nil {
			return false, err
		}
		ft, err := descToVtype(v.c, linked.field.Desc)
		if err != nil {
			return false, err
		}
		s.push(ft)
	case OpPutS:
		val, err := s.pop()
		if err != nil {
			return false, err
		}
		if err := v.checkFieldAccess(linked.field); err != nil {
			return false, err
		}
		if err := v.checkAssignableDesc(val, linked.field.Desc); err != nil {
			return false, err
		}

	case OpInvokeV, OpInvokeI, OpInvokeS:
		if linked.method.Flags&MPrivate != 0 && linked.method.Owner != v.c {
			return false, fmt.Errorf("private method %s.%s not accessible from %s",
				linked.method.Owner.Name, linked.method.Name, v.c.Name)
		}
		params, _, err := ParseMethodDesc(linked.method.Desc)
		if err != nil {
			return false, err
		}
		for i := len(params) - 1; i >= 0; i-- {
			arg, err := s.pop()
			if err != nil {
				return false, err
			}
			if err := v.checkAssignableDesc(arg, params[i]); err != nil {
				return false, fmt.Errorf("arg %d: %w", i, err)
			}
		}
		if in.Op != OpInvokeS {
			recv, err := s.popKind(vtRef)
			if err != nil {
				return false, err
			}
			if err := v.checkRefAssignable(recv, linked.class); err != nil {
				return false, err
			}
		}
		if linked.method.ret != "" {
			rt, err := descToVtype(v.c, linked.method.ret)
			if err != nil {
				return false, err
			}
			s.push(rt)
		}

	case OpALoad:
		if _, err := s.popKind(vtInt); err != nil {
			return false, err
		}
		arr, err := s.popKind(vtRef)
		if err != nil {
			return false, err
		}
		et, err := arrayElemVtype(v.c, arr)
		if err != nil {
			return false, err
		}
		s.push(et)
	case OpAStore:
		val, err := s.pop()
		if err != nil {
			return false, err
		}
		if _, err := s.popKind(vtInt); err != nil {
			return false, err
		}
		arr, err := s.popKind(vtRef)
		if err != nil {
			return false, err
		}
		et, err := arrayElemVtype(v.c, arr)
		if err != nil {
			return false, err
		}
		switch et.k {
		case vtInt, vtFloat:
			if val.k != et.k {
				return false, fmt.Errorf("array store kind mismatch: %v into %v", val, arr)
			}
		default:
			if val.k != vtRef && val.k != vtNull {
				return false, fmt.Errorf("array store of %v into reference array", val)
			}
		}
	case OpALen:
		arr, err := s.popKind(vtRef)
		if err != nil {
			return false, err
		}
		if arr.k == vtRef && !arr.c.IsArray() && arr.c.Name != ClassObject {
			return false, fmt.Errorf("arraylength of non-array %v", arr)
		}
		s.push(vtype{k: vtInt})

	case OpThrow:
		t, err := s.popKind(vtRef)
		if err != nil {
			return false, err
		}
		if t.k == vtRef {
			thr, err := v.c.resolve(ClassThrowable)
			if err != nil {
				return false, err
			}
			if !t.c.AssignableTo(thr) {
				return false, fmt.Errorf("throw of non-throwable %v", t)
			}
		}
		return false, nil // terminal

	case OpRet:
		if v.ret != "" {
			return false, fmt.Errorf("ret in non-void method")
		}
		return false, nil
	case OpRetV:
		t, err := s.pop()
		if err != nil {
			return false, err
		}
		if v.ret == "" {
			return false, fmt.Errorf("retv in void method")
		}
		if err := v.checkAssignableDesc(t, v.ret); err != nil {
			return false, err
		}
		return false, nil

	default:
		// Every other opcode has a fixed stack effect in opTable.
		if in.Op >= opMax || opTable[in.Op].stack == "" {
			return false, fmt.Errorf("unverifiable opcode %s", in.Op.Name())
		}
		eff := opTable[in.Op].stack
		arrow := strings.IndexByte(eff, '>')
		for i := arrow - 1; i >= 0; i-- {
			if _, err := s.popKind(stackKind(eff[i])); err != nil {
				return false, err
			}
		}
		if arrow+1 < len(eff) {
			t := vtype{k: stackKind(eff[arrow+1])}
			if t.k == vtRef {
				t.c = linked.class
			}
			s.push(t)
		}
		if in.Op.IsBranch() {
			if err := v.flowTo(int(in.I), s); err != nil {
				return false, err
			}
		}
		return in.Op != OpJmp, nil
	}
	return true, nil
}

// stackKind reads one letter of an opTable stack effect.
func stackKind(c byte) vkind {
	switch c {
	case 'I':
		return vtInt
	case 'F':
		return vtFloat
	case 'R':
		return vtRef
	case 'N':
		return vtNull
	}
	return vtTop
}

// checkFieldAccess enforces private field visibility (the paper's static
// access control).
func (v *verifier) checkFieldAccess(f *Field) error {
	if f.Private && f.Owner != v.c {
		return fmt.Errorf("private field %s.%s not accessible from %s", f.Owner.Name, f.Name, v.c.Name)
	}
	return nil
}

// checkRefAssignable checks a ref/null vtype against a target class.
func (v *verifier) checkRefAssignable(t vtype, target *Class) error {
	if t.k == vtNull {
		return nil
	}
	if t.k != vtRef {
		return fmt.Errorf("expected ref, got %v", t)
	}
	if !t.c.AssignableTo(target) {
		return fmt.Errorf("%s is not assignable to %s", t.c.Name, target.Name)
	}
	return nil
}

// checkAssignableDesc checks a vtype against a descriptor.
func (v *verifier) checkAssignableDesc(t vtype, desc string) error {
	switch DescKind(desc) {
	case KInt:
		if t.k != vtInt {
			return fmt.Errorf("expected int (%s), got %v", desc, t)
		}
		return nil
	case KFloat:
		if t.k != vtFloat {
			return fmt.Errorf("expected float (%s), got %v", desc, t)
		}
		return nil
	case KRef:
		if t.k == vtNull {
			return nil
		}
		if t.k != vtRef {
			return fmt.Errorf("expected ref (%s), got %v", desc, t)
		}
		target, err := v.c.resolve(RefName(desc))
		if err != nil {
			return err
		}
		if !t.c.AssignableTo(target) {
			return fmt.Errorf("%s is not assignable to %s", t.c.Name, desc)
		}
		return nil
	default:
		return fmt.Errorf("bad descriptor %q", desc)
	}
}

// descToVtype converts a descriptor to its verification type, resolving
// a class for by's code.
func descToVtype(by *Class, desc string) (vtype, error) {
	switch DescKind(desc) {
	case KInt:
		return vtype{k: vtInt}, nil
	case KFloat:
		return vtype{k: vtFloat}, nil
	case KRef:
		c, err := by.resolve(RefName(desc))
		if err != nil {
			return vtype{}, err
		}
		return vtype{k: vtRef, c: c}, nil
	default:
		return vtype{}, fmt.Errorf("bad descriptor %q", desc)
	}
}

// arrayElemVtype returns the element type of an array vtype. Null yields
// Top (the access will NPE at run time; the result must go unused).
func arrayElemVtype(by *Class, arr vtype) (vtype, error) {
	if arr.k == vtNull {
		return vtype{k: vtTop}, nil
	}
	if arr.k != vtRef || !arr.c.IsArray() {
		return vtype{}, fmt.Errorf("array op on non-array %v", arr)
	}
	return descToVtype(by, arr.c.Elem())
}
