package vmkit

import "fmt"

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

func (s *vstate) clone() *vstate {
	ns := &vstate{
		locals: append([]vtype(nil), s.locals...),
		stack:  append([]vtype(nil), s.stack...),
	}
	return ns
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
	seen := map[*Class]bool{}
	for k := a; k != nil; k = k.Super {
		seen[k] = true
	}
	for k := b; k != nil; k = k.Super {
		if seen[k] {
			return k
		}
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

type verifier struct {
	c      *Class
	m      *Method
	states []*vstate
	work   []int
	ret    string
}

func verifyMethod(c *Class, m *Method) error {
	if len(m.Code) == 0 {
		return fmt.Errorf("empty code")
	}
	if m.MaxStack < 0 || m.MaxStack > 1<<16 {
		return fmt.Errorf("bad max stack %d", m.MaxStack)
	}
	if m.NumLoc < 0 || m.NumLoc > 1<<16 {
		return fmt.Errorf("bad local count %d", m.NumLoc)
	}
	params, ret, err := ParseMethodDesc(m.Desc)
	if err != nil {
		return err
	}
	nlocals := m.nargs + int(m.NumLoc)
	init := &vstate{locals: make([]vtype, nlocals)}
	idx := 0
	if !m.IsStatic() {
		init.locals[0] = vtype{k: vtRef, c: c}
		idx = 1
	}
	for _, p := range params {
		t, err := descToVtype(c.NS, p)
		if err != nil {
			return err
		}
		init.locals[idx] = t
		idx++
	}
	for ; idx < nlocals; idx++ {
		init.locals[idx] = vtype{k: vtTop}
	}

	v := &verifier{c: c, m: m, states: make([]*vstate, len(m.Code)), ret: ret}
	// Validate exception table ranges up front.
	for _, e := range m.Excs {
		if e.From < 0 || e.To < e.From || int(e.To) > len(m.Code) ||
			e.Handler < 0 || int(e.Handler) >= len(m.Code) {
			return fmt.Errorf("bad exception table entry %+v", e)
		}
	}
	v.states[0] = init
	v.work = append(v.work, 0)
	for len(v.work) > 0 {
		pc := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		if err := v.step(pc); err != nil {
			return fmt.Errorf("pc=%d (%s): %w", pc, m.Code[pc], err)
		}
	}
	return nil
}

// flowTo merges state into the target pc, queueing it when changed.
func (v *verifier) flowTo(pc int, s *vstate) error {
	if pc < 0 || pc >= len(v.m.Code) {
		return fmt.Errorf("control flows to invalid pc %d", pc)
	}
	if len(s.stack) > int(v.m.MaxStack) {
		return fmt.Errorf("operand stack exceeds max %d", v.m.MaxStack)
	}
	if v.states[pc] == nil {
		v.states[pc] = s.clone()
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

// flowExc propagates the current locals to every handler covering pc.
func (v *verifier) flowExc(pc int, s *vstate) error {
	for i, e := range v.m.Excs {
		if int32(pc) >= e.From && int32(pc) < e.To {
			hs := &vstate{
				locals: s.locals,
				stack:  []vtype{{k: vtRef, c: v.m.excClasses[i]}},
			}
			if err := v.flowTo(int(e.Handler), hs); err != nil {
				return fmt.Errorf("handler at %d: %w", e.Handler, err)
			}
		}
	}
	return nil
}

func (v *verifier) step(pc int) error {
	s := v.states[pc].clone()
	in := v.m.Code[pc]
	linked := v.m.linked[pc]
	ns := v.c.NS

	// Any instruction that can throw propagates its *entry* locals to
	// covering handlers.
	if err := v.flowExc(pc, v.states[pc]); err != nil {
		return err
	}

	pop := func() (vtype, error) {
		if len(s.stack) == 0 {
			return vtype{}, fmt.Errorf("stack underflow")
		}
		t := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		return t, nil
	}
	popKind := func(k vkind) (vtype, error) {
		t, err := pop()
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
	push := func(t vtype) { s.stack = append(s.stack, t) }
	next := func() error { return v.flowTo(pc+1, s) }
	branch := func() error {
		if err := v.flowTo(int(in.I), s); err != nil {
			return err
		}
		return next()
	}

	intBinop := func() error {
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		push(vtype{k: vtInt})
		return next()
	}
	floatBinop := func() error {
		if _, err := popKind(vtFloat); err != nil {
			return err
		}
		if _, err := popKind(vtFloat); err != nil {
			return err
		}
		push(vtype{k: vtFloat})
		return next()
	}

	switch in.Op {
	case OpNop:
		return next()

	case OpIConst:
		push(vtype{k: vtInt})
		return next()
	case OpDConst:
		push(vtype{k: vtFloat})
		return next()
	case OpSConst:
		sc, err := ns.Resolve(ClassString)
		if err != nil {
			return err
		}
		push(vtype{k: vtRef, c: sc})
		return next()
	case OpNullConst:
		push(vtype{k: vtNull})
		return next()

	case OpLoad:
		if in.I < 0 || int(in.I) >= len(s.locals) {
			return fmt.Errorf("load of local %d (have %d)", in.I, len(s.locals))
		}
		t := s.locals[in.I]
		if t.k == vtTop {
			return fmt.Errorf("load of uninitialized local %d", in.I)
		}
		push(t)
		return next()
	case OpStore:
		if in.I < 0 || int(in.I) >= len(s.locals) {
			return fmt.Errorf("store to local %d (have %d)", in.I, len(s.locals))
		}
		t, err := pop()
		if err != nil {
			return err
		}
		s.locals[in.I] = t
		return next()

	case OpPop:
		if _, err := pop(); err != nil {
			return err
		}
		return next()
	case OpDup:
		t, err := pop()
		if err != nil {
			return err
		}
		push(t)
		push(t)
		return next()
	case OpDupX1:
		a, err := pop()
		if err != nil {
			return err
		}
		b, err := pop()
		if err != nil {
			return err
		}
		push(a)
		push(b)
		push(a)
		return next()
	case OpSwap:
		a, err := pop()
		if err != nil {
			return err
		}
		b, err := pop()
		if err != nil {
			return err
		}
		push(a)
		push(b)
		return next()

	case OpIAdd, OpISub, OpIMul, OpIDiv, OpIRem, OpIShl, OpIShr, OpIUshr, OpIAnd, OpIOr, OpIXor:
		return intBinop()
	case OpINeg:
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		push(vtype{k: vtInt})
		return next()
	case OpDAdd, OpDSub, OpDMul, OpDDiv:
		return floatBinop()
	case OpDNeg:
		if _, err := popKind(vtFloat); err != nil {
			return err
		}
		push(vtype{k: vtFloat})
		return next()

	case OpI2D:
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		push(vtype{k: vtFloat})
		return next()
	case OpD2I:
		if _, err := popKind(vtFloat); err != nil {
			return err
		}
		push(vtype{k: vtInt})
		return next()
	case OpDCmp:
		if _, err := popKind(vtFloat); err != nil {
			return err
		}
		if _, err := popKind(vtFloat); err != nil {
			return err
		}
		push(vtype{k: vtInt})
		return next()

	case OpJmp:
		return v.flowTo(int(in.I), s)
	case OpIfEQ, OpIfNE, OpIfLT, OpIfLE, OpIfGT, OpIfGE:
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		return branch()
	case OpIfZ, OpIfNZ:
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		return branch()
	case OpIfNull, OpIfNonNull:
		if _, err := popKind(vtRef); err != nil {
			return err
		}
		return branch()
	case OpIfACmpEQ, OpIfACmpNE:
		if _, err := popKind(vtRef); err != nil {
			return err
		}
		if _, err := popKind(vtRef); err != nil {
			return err
		}
		return branch()

	case OpNew:
		push(vtype{k: vtRef, c: linked.class})
		return next()

	case OpGetF:
		t, err := popKind(vtRef)
		if err != nil {
			return err
		}
		if err := v.checkFieldAccess(linked.field); err != nil {
			return err
		}
		if err := v.checkRefAssignable(t, linked.field.Owner); err != nil {
			return err
		}
		ft, err := descToVtype(ns, linked.field.Desc)
		if err != nil {
			return err
		}
		push(ft)
		return next()
	case OpPutF:
		val, err := pop()
		if err != nil {
			return err
		}
		if err := v.checkFieldAccess(linked.field); err != nil {
			return err
		}
		if err := v.checkAssignableDesc(val, linked.field.Desc); err != nil {
			return err
		}
		t, err := popKind(vtRef)
		if err != nil {
			return err
		}
		if err := v.checkRefAssignable(t, linked.field.Owner); err != nil {
			return err
		}
		return next()
	case OpGetS:
		if err := v.checkFieldAccess(linked.field); err != nil {
			return err
		}
		ft, err := descToVtype(ns, linked.field.Desc)
		if err != nil {
			return err
		}
		push(ft)
		return next()
	case OpPutS:
		val, err := pop()
		if err != nil {
			return err
		}
		if err := v.checkFieldAccess(linked.field); err != nil {
			return err
		}
		if err := v.checkAssignableDesc(val, linked.field.Desc); err != nil {
			return err
		}
		return next()

	case OpInvokeV, OpInvokeI, OpInvokeS:
		if linked.method.Flags&MPrivate != 0 && linked.method.Owner != v.c {
			return fmt.Errorf("private method %s.%s not accessible from %s",
				linked.method.Owner.Name, linked.method.Name, v.c.Name)
		}
		params, _, err := ParseMethodDesc(linked.method.Desc)
		if err != nil {
			return err
		}
		for i := len(params) - 1; i >= 0; i-- {
			arg, err := pop()
			if err != nil {
				return err
			}
			if err := v.checkAssignableDesc(arg, params[i]); err != nil {
				return fmt.Errorf("arg %d: %w", i, err)
			}
		}
		if in.Op != OpInvokeS {
			recv, err := popKind(vtRef)
			if err != nil {
				return err
			}
			if err := v.checkRefAssignable(recv, linked.class); err != nil {
				return err
			}
		}
		if linked.method.ret != "" {
			rt, err := descToVtype(ns, linked.method.ret)
			if err != nil {
				return err
			}
			push(rt)
		}
		return next()

	case OpCast:
		if _, err := popKind(vtRef); err != nil {
			return err
		}
		push(vtype{k: vtRef, c: linked.class})
		return next()
	case OpInstOf:
		if _, err := popKind(vtRef); err != nil {
			return err
		}
		push(vtype{k: vtInt})
		return next()

	case OpNewArr:
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		push(vtype{k: vtRef, c: linked.class})
		return next()
	case OpALoad:
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		arr, err := popKind(vtRef)
		if err != nil {
			return err
		}
		et, err := arrayElemVtype(ns, arr)
		if err != nil {
			return err
		}
		push(et)
		return next()
	case OpAStore:
		val, err := pop()
		if err != nil {
			return err
		}
		if _, err := popKind(vtInt); err != nil {
			return err
		}
		arr, err := popKind(vtRef)
		if err != nil {
			return err
		}
		et, err := arrayElemVtype(ns, arr)
		if err != nil {
			return err
		}
		switch et.k {
		case vtInt, vtFloat:
			if val.k != et.k {
				return fmt.Errorf("array store kind mismatch: %v into %v", val, arr)
			}
		default:
			if val.k != vtRef && val.k != vtNull {
				return fmt.Errorf("array store of %v into reference array", val)
			}
		}
		return next()
	case OpALen:
		arr, err := popKind(vtRef)
		if err != nil {
			return err
		}
		if arr.k == vtRef && !arr.c.IsArray() && arr.c.Name != ClassObject {
			return fmt.Errorf("arraylength of non-array %v", arr)
		}
		push(vtype{k: vtInt})
		return next()

	case OpThrow:
		t, err := popKind(vtRef)
		if err != nil {
			return err
		}
		if t.k == vtRef {
			thr, err := ns.Resolve(ClassThrowable)
			if err != nil {
				return err
			}
			if !t.c.AssignableTo(thr) {
				return fmt.Errorf("throw of non-throwable %v", t)
			}
		}
		return nil // terminal

	case OpMonEnter, OpMonExit:
		if _, err := popKind(vtRef); err != nil {
			return err
		}
		return next()

	case OpRet:
		if v.ret != "" {
			return fmt.Errorf("ret in non-void method")
		}
		return nil
	case OpRetV:
		t, err := pop()
		if err != nil {
			return err
		}
		if v.ret == "" {
			return fmt.Errorf("retv in void method")
		}
		if err := v.checkAssignableDesc(t, v.ret); err != nil {
			return err
		}
		return nil

	default:
		return fmt.Errorf("unverifiable opcode %s", in.Op.Name())
	}
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
		var target *Class
		var err error
		if desc[0] == '[' {
			target, err = v.c.NS.arrayClass(desc)
		} else {
			target, err = v.c.NS.Resolve(RefName(desc))
		}
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

// descToVtype converts a descriptor to its verification type.
func descToVtype(ns *Namespace, desc string) (vtype, error) {
	switch DescKind(desc) {
	case KInt:
		return vtype{k: vtInt}, nil
	case KFloat:
		return vtype{k: vtFloat}, nil
	case KRef:
		var c *Class
		var err error
		if desc[0] == '[' {
			c, err = ns.arrayClass(desc)
		} else {
			c, err = ns.Resolve(RefName(desc))
		}
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
func arrayElemVtype(ns *Namespace, arr vtype) (vtype, error) {
	if arr.k == vtNull {
		return vtype{k: vtTop}, nil
	}
	if arr.k != vtRef || !arr.c.IsArray() {
		return vtype{}, fmt.Errorf("array op on non-array %v", arr)
	}
	return descToVtype(ns, arr.c.Elem())
}
