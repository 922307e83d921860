package core

import (
	"fmt"
	"reflect"

	"jkernel/internal/vmkit"
)

// This file bridges Go callers to VM capabilities and back: Go code (the
// web server bridge, examples, tools) can perform LRMI on capabilities
// whose targets are VM objects. Values convert at the boundary: integers,
// floats, strings, byte slices, and capabilities; anything richer must be
// expressed as a VM class and crosses under the normal calling convention.
// Bytecode callers go through callVM (lrmi.go), which this file leaves alone.

// CapabilityFromStub wraps a VM stub object in a Go handle.
func (k *Kernel) CapabilityFromStub(stub *vmkit.Object) (*Capability, error) {
	g, th := k.gateOfStub(stub)
	if th != nil {
		return nil, fmt.Errorf("jkernel: %s", vmkit.ThrowableMessage(th))
	}
	return &Capability{g: g, Stub: stub}, nil
}

// InvokeVM performs an LRMI on a VM capability from Go code running under
// task. The method is named by its simple name (it must be unambiguous
// among the capability's remote methods).
//
// The calling convention asks for one copy each way, and a Go string or
// []byte is not a VM object of any domain: converting it into the callee's
// namespace is that copy, and converting the callee's result into a Go
// value is the copy back. Nothing is first built in the caller's domain to
// be copied again. A *vmkit.Object argument is a VM object of the caller's
// and crosses like a bytecode caller's would (capabilities by reference,
// the rest by the class's copy mode); an object result other than a
// string, byte array or capability is copied into the caller's domain and
// handed back as a reference.
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
	return g.callVMFromGo(task, plan, args)
}

// callVMFromGo is callVM for a Go caller: the same checks, the same
// crossing (Gate.cross) and accounting (Gate.account), around the one-copy
// conversions InvokeVM documents.
func (g *Gate) callVMFromGo(task *Task, plan *vmMethodPlan, args []any) (any, error) {
	k := g.k
	vm := k.VM
	t := task.Thread
	m := plan.m

	target := g.vmTarget.Load()
	if target == nil {
		return nil, thrownError(g.revokedThrowable())
	}
	callerDomain := task.current()
	if callerDomain == nil {
		return nil, ErrNotEntered
	}
	if callerDomain.Terminated() {
		return nil, thrownError(vm.Throwf(classTerminatedEx, "calling domain %s terminated", callerDomain.Name))
	}

	// Arguments go straight into the callee's domain and are class-checked
	// there, as callVM checks a bytecode caller's.
	ctx := vmCopyCtx{k: k, dest: g.owner}
	var buf [9]vmkit.Value
	callArgs := append(buf[:0], vmkit.RefVal(target))
	for i, p := range plan.params {
		cv, err := ctx.fromGo(args[i], p.kind)
		if _, thrown := err.(*ThrownVMError); thrown {
			return nil, err // the copy's own exception, as a bytecode caller sees it
		}
		if err != nil {
			return nil, fmt.Errorf("jkernel: argument %d of %s: %w", i, m.Name, err)
		}
		if cv.R != nil && !cv.R.Class.AssignableTo(p.class) {
			return nil, thrownError(vm.Throwf(vmkit.ClassCastEx, "%s is not argument %d of %s", cv.R.Class.Name, i, m.Sig()))
		}
		callArgs = append(callArgs, cv)
	}

	tmStart := k.tm.callStart(task)

	ret, thrown := g.cross(task, t, callerDomain, m, callArgs)
	var out any
	var err error
	if thrown != nil {
		err = thrownError(thrown)
	} else {
		retCtx := vmCopyCtx{k: k, dest: callerDomain}
		out, err = retCtx.toGo(ret, plan.retKind)
		ctx.bytes += retCtx.bytes
	}
	g.account(task, callerDomain, m, tmStart, ctx.bytes, err != nil)
	task.Thread.Publish()
	return out, err
}

func thrownError(th *vmkit.Object) error { return &ThrownVMError{Throwable: th} }

// fromGo converts a Go argument into the VM value a parameter of the given
// kind takes, in ctx.dest — the callee's domain.
func (ctx *vmCopyCtx) fromGo(a any, kind vmkit.Kind) (vmkit.Value, error) {
	switch kind {
	case vmkit.KInt:
		ctx.bytes += 8
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
		ctx.bytes += 8
		if v, ok := a.(float64); ok {
			return vmkit.FloatVal(v), nil
		}
	case vmkit.KRef:
		switch v := a.(type) {
		case nil:
			ctx.bytes += 8
			return vmkit.Null(), nil
		case *Capability:
			if v.Stub == nil {
				return vmkit.Value{}, fmt.Errorf("native capability cannot enter the VM")
			}
			ctx.bytes += 8
			return vmkit.RefVal(v.Stub), nil
		case *vmkit.Object:
			cv, th := ctx.copyValue(vmkit.RefVal(v))
			if th != nil {
				return vmkit.Value{}, thrownError(th)
			}
			return cv, nil
		case string:
			ctx.bytes += int64(len(v))
			s, err := ctx.dest.NS.NewString(v)
			return vmkit.RefVal(s), err
		case []byte:
			ctx.bytes += int64(len(v))
			arr, err := ctx.dest.NS.NewArray("[B", len(v))
			if err != nil {
				return vmkit.Value{}, err
			}
			copy(arr.Bytes, v)
			return vmkit.RefVal(arr), nil
		}
	}
	return vmkit.Value{}, fmt.Errorf("unsupported Go type %v for this parameter at the VM boundary", reflect.TypeOf(a))
}

// toGo converts the callee's return value, of the given kind, to a Go
// value. What stays a VM object is copied into ctx.dest — the caller's
// domain.
func (ctx *vmCopyCtx) toGo(v vmkit.Value, kind vmkit.Kind) (any, error) {
	switch kind {
	case vmkit.KInvalid:
		return nil, nil // a void return copies nothing
	case vmkit.KInt:
		ctx.bytes += 8
		return v.I, nil
	case vmkit.KFloat:
		ctx.bytes += 8
		return v.Float(), nil
	}
	o := v.R
	switch {
	case o == nil:
		ctx.bytes += 8
		return nil, nil
	case o.Class.Name == vmkit.ClassString:
		s := vmkit.StringText(o)
		ctx.bytes += int64(len(s))
		return s, nil
	case o.Class.Name == "[B":
		out := make([]byte, len(o.Bytes))
		copy(out, o.Bytes)
		ctx.bytes += int64(len(out))
		return out, nil
	case gateOf(o) != nil:
		ctx.bytes += 8
		return ctx.k.CapabilityFromStub(o)
	default:
		// Opaque VM object: copied, and handed back for VM-side use.
		dup, th := ctx.copyObject(o)
		if th != nil {
			return nil, thrownError(th)
		}
		return dup, nil
	}
}
