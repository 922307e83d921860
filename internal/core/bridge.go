package core

import (
	"fmt"

	"jkernel/internal/vmkit"
)

// This file bridges Go callers to VM capabilities and back: Go code (the
// web server bridge, examples, tools) can perform LRMI on capabilities
// whose targets are VM objects. Values convert at the boundary: integers,
// floats, strings, byte slices, and capabilities; anything richer must be
// expressed as a VM class and crosses under the normal calling convention.

// CapabilityFromStub wraps a VM stub object in a Go handle.
func (k *Kernel) CapabilityFromStub(stub *vmkit.Object) (*Capability, error) {
	g, th := k.gateOfStub(stub)
	if th != nil {
		return nil, fmt.Errorf("jkernel: %s", vmkit.ThrowableMessage(th))
	}
	return &Capability{g: g, Stub: stub}, nil
}

// IsVM reports whether the capability's target is a VM object.
func (c *Capability) IsVM() bool { return c.Stub != nil }

// InvokeVM performs an LRMI on a VM capability from Go code running under
// task. The method is named by its simple name (it must be unambiguous
// among the capability's remote methods). Go arguments convert to VM
// values in the caller's domain; the result converts back.
func (c *Capability) InvokeVM(task *Task, method string, args ...any) (any, error) {
	g := c.g
	if g.vmTarget.Load() == nil && !g.Revoked() {
		return nil, fmt.Errorf("jkernel: InvokeVM on a native capability (use Invoke)")
	}

	idx := -1
	for i := range g.plans {
		if g.plans[i].m.Name == method {
			if idx >= 0 {
				return nil, fmt.Errorf("jkernel: method %s is overloaded; use full signatures via VM code", method)
			}
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchMethod, method)
	}
	plan := &g.plans[idx]
	if len(plan.params) != len(args) {
		return nil, fmt.Errorf("jkernel: %s wants %d args, got %d", method, len(plan.params), len(args))
	}

	var buf [8]vmkit.Value
	vals := buf[:0]
	for i, a := range args {
		v, err := goToVM(task.Domain, a, plan.params[i].kind)
		if err != nil {
			return nil, fmt.Errorf("jkernel: argument %d of %s: %w", i, method, err)
		}
		vals = append(vals, v)
	}

	ret, thrown := g.callVM(task.Thread, plan.entry, int64(idx), vals)
	if thrown != nil {
		return nil, &ThrownVMError{Throwable: thrown}
	}
	return vmToGo(g.k, ret)
}

// goToVM converts a Go argument into the VM value a parameter of the
// given kind takes; references are allocated in the caller's domain.
func goToVM(caller *Domain, a any, kind vmkit.Kind) (vmkit.Value, error) {
	switch kind {
	case vmkit.KInt:
		switch v := a.(type) {
		case int:
			return vmkit.IntVal(int64(v)), nil
		case int64:
			return vmkit.IntVal(v), nil
		case byte:
			return vmkit.IntVal(int64(v)), nil
		case bool:
			if v {
				return vmkit.IntVal(1), nil
			}
			return vmkit.IntVal(0), nil
		}
	case vmkit.KFloat:
		if v, ok := a.(float64); ok {
			return vmkit.FloatVal(v), nil
		}
	case vmkit.KRef:
		switch v := a.(type) {
		case nil:
			return vmkit.Null(), nil
		case *Capability:
			if v.Stub == nil {
				return vmkit.Value{}, fmt.Errorf("native capability cannot enter the VM")
			}
			return vmkit.RefVal(v.Stub), nil
		case *vmkit.Object:
			return vmkit.RefVal(v), nil
		case string:
			s, err := caller.NS.NewString(v)
			return vmkit.RefVal(s), err
		case []byte:
			arr, err := caller.NS.NewArray("[B", len(v))
			if err != nil {
				return vmkit.Value{}, err
			}
			copy(arr.Bytes, v)
			return vmkit.RefVal(arr), nil
		}
	}
	return vmkit.Value{}, fmt.Errorf("unsupported Go type %T for this parameter at the VM boundary", a)
}

// vmToGo converts a VM return value (already copied into the caller's
// domain by callVM) to a Go value.
func vmToGo(k *Kernel, v vmkit.Value) (any, error) {
	switch v.K {
	case vmkit.KInt:
		return v.I, nil
	case vmkit.KFloat:
		return v.F, nil
	}
	if v.R == nil {
		return nil, nil
	}
	o := v.R
	switch {
	case o.Class.Name == vmkit.ClassString:
		return vmkit.StringText(o), nil
	case o.Class.Name == "[B":
		out := make([]byte, len(o.Bytes))
		copy(out, o.Bytes)
		return out, nil
	case o.Class.AssignableTo(k.capClass):
		return k.CapabilityFromStub(o)
	default:
		// Opaque VM object: hand back the reference for VM-side use.
		return o, nil
	}
}
