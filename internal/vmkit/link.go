package vmkit

import "fmt"

// linkedRef is the per-instruction resolution cache: symbolic operands are
// resolved once at class-link time (loading referenced classes recursively,
// as the paper's class loaders do) and stored parallel to the code.
type linkedRef struct {
	class  *Class  // OpNew/OpCast/OpInstOf/OpNewArr; jk/lang/String for OpSConst
	field  *Field  // field ops
	method *Method // OpInvokeS; for the others, what the receiver dispatches
	str    *Object // OpSConst interned literal
}

// resolveCode resolves every symbolic reference in c's methods through c's
// namespace. Because shared classes must transitively share their
// referenced classes, resolution through the defining namespace is valid in
// every namespace the class is bound into.
func resolveCode(c *Class) error {
	for _, m := range c.methods {
		if m.Owner != c || m.Flags&(MNative|MAbstract) != 0 {
			continue
		}
		if m.linked != nil {
			continue
		}
		linked := make([]linkedRef, len(m.Code))
		for pc, in := range m.Code {
			ref, err := resolveInstr(c, in)
			if err != nil {
				return fmt.Errorf("%s.%s pc=%d: %w", c.Name, m.Name, pc, err)
			}
			linked[pc] = ref
		}
		excs := make([]*Class, len(m.Excs))
		for i, e := range m.Excs {
			ec, err := c.resolve(e.Type)
			if err != nil {
				return fmt.Errorf("%s.%s catch[%d]: %w", c.Name, m.Name, i, err)
			}
			if !isThrowable(ec) {
				return fmt.Errorf("%s.%s catch[%d]: %s is not throwable", c.Name, m.Name, i, e.Type)
			}
			excs[i] = ec
		}
		m.linked = linked
		m.excClasses = excs
	}
	return nil
}

func isThrowable(c *Class) bool {
	for k := c; k != nil; k = k.Super {
		if k.Name == ClassThrowable {
			return true
		}
	}
	return false
}

func resolveInstr(c *Class, in Instr) (linkedRef, error) {
	switch in.Op {
	case OpSConst:
		s, err := c.NS.internString(in.S, c.linking)
		if err != nil {
			return linkedRef{}, err
		}
		return linkedRef{str: s, class: s.Class}, nil

	case OpNew:
		k, err := c.resolve(in.S)
		if err != nil {
			return linkedRef{}, err
		}
		if k.IsInterface() || k.IsArray() || (k.Def != nil && k.Def.Flags&FlagAbstract != 0) {
			return linkedRef{}, fmt.Errorf("cannot instantiate %s", in.S)
		}
		return linkedRef{class: k}, nil

	case OpCast, OpInstOf:
		k, err := c.resolve(in.S)
		if err != nil {
			return linkedRef{}, err
		}
		return linkedRef{class: k}, nil

	case OpNewArr:
		if !isArrayDesc(in.S) {
			return linkedRef{}, fmt.Errorf("newarr wants an array descriptor, got %q", in.S)
		}
		k, err := c.resolve(in.S)
		if err != nil {
			return linkedRef{}, err
		}
		return linkedRef{class: k}, nil

	case OpGetF, OpPutF, OpGetS, OpPutS:
		fr, err := ParseFieldRef(in.S)
		if err != nil {
			return linkedRef{}, err
		}
		k, err := c.resolve(fr.Class)
		if err != nil {
			return linkedRef{}, err
		}
		f := k.FieldByName(fr.Name)
		if f == nil {
			return linkedRef{}, fmt.Errorf("no field %s in %s", fr.Name, fr.Class)
		}
		if f.Desc != fr.Desc {
			return linkedRef{}, fmt.Errorf("field %s.%s has descriptor %s, not %s", fr.Class, fr.Name, f.Desc, fr.Desc)
		}
		wantStatic := in.Op == OpGetS || in.Op == OpPutS
		if f.Static != wantStatic {
			return linkedRef{}, fmt.Errorf("field %s.%s static mismatch", fr.Class, fr.Name)
		}
		return linkedRef{field: f, class: k}, nil

	case OpInvokeV, OpInvokeI, OpInvokeS:
		mr, err := ParseMethodRef(in.S)
		if err != nil {
			return linkedRef{}, err
		}
		k, err := c.resolve(mr.Class)
		if err != nil {
			return linkedRef{}, err
		}
		m := k.MethodBySig(mr.Name, mr.Desc)
		if m == nil {
			return linkedRef{}, fmt.Errorf("no method %s:%s in %s", mr.Name, mr.Desc, mr.Class)
		}
		switch in.Op {
		case OpInvokeS:
			if !m.IsStatic() {
				return linkedRef{}, fmt.Errorf("%s.%s is not static", mr.Class, mr.Name)
			}
		case OpInvokeI:
			if !k.IsInterface() {
				return linkedRef{}, fmt.Errorf("invokeinterface on class %s", mr.Class)
			}
			if m.IsStatic() {
				return linkedRef{}, fmt.Errorf("%s.%s is static", mr.Class, mr.Name)
			}
		default:
			if k.IsInterface() {
				return linkedRef{}, fmt.Errorf("invokevirtual on interface %s", mr.Class)
			}
			if m.IsStatic() {
				return linkedRef{}, fmt.Errorf("%s.%s is static", mr.Class, mr.Name)
			}
		}
		return linkedRef{method: m, class: k}, nil
	}
	return linkedRef{}, nil
}
