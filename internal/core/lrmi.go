package core

import (
	"errors"
	"sync/atomic"
	"time"

	"jkernel/internal/threads"
	"jkernel/internal/vmkit"
)

// This file implements the VM-path LRMI: the code a generated stub's
// methods run (Gate.Native), and InvokeVM's for Go callers.
// The sequence matches the paper's stub description: check revocation,
// find the caller's task (the thread carries it), switch to the creating
// domain's thread segment (two lock acquire/release pairs: segment push
// and pop), copy every non-capability argument into the callee domain,
// invoke the target method, copy the result back, and restore the
// caller's segment.

// enter switches the task's carrier into domain d for one cross-domain
// call (the paper's lock pair #1; here no lock, and only the carrier's own
// chain is written): push a segment and have it name d, so that the slow
// poll finds d's end. Every crossing — VM, native, proxy — goes through
// enter and leave. Only a segment that a jk/lang/Thread object names is
// registered kernel-wide, by jk/lang/Thread.currentThread.
func (t *Task) enter(d *Domain) *threads.Seg {
	seg := t.Chain.Push(d.ID)
	seg.SetOwner(d)
	return seg
}

// leave returns from the segment enter pushed (lock pair #2). A handle
// minted on it dies here: the registry entry goes and the pop retires the
// id, so a stale Thread object finds "segment gone", never the next call.
func (t *Task) leave(seg *threads.Seg) {
	t.K.dropHandle(seg)
	t.Chain.Pop()
}

// charge books one crossing the task's carrier made from caller into
// callee along path p, copying bytes: the caller's call and the bytes it
// copied, the path's call counter and the
// caller→callee edge. It is all plain adds into the carrier's pending
// record (vmkit.Thread.Pending), which reaches the shared counters at the
// next publish (Thread.Publish): the thread's step flush inside bytecode,
// and every API that returns to Go from a crossing on its way out, so a
// Go caller holding its result sees the call's charges and counters in
// Stats and the registry. Every crossing — VM, native, proxy — books here.
func (t *Task) charge(p callPath, caller, callee *Domain, bytes int64) {
	var path, edge *atomic.Int64
	if m := t.K.tm; m != nil {
		if p != proxyCall {
			path = m.calls[p].Cell(t.stripe)
		}
		edge = m.edgeCell(t, caller, callee)
	}
	t.Thread.Pending.Cross(caller.acct, bytes, path, edge)
}

// vmParam is one parameter of a gate method as the gate checks it.
type vmParam struct {
	kind vmkit.Kind
	// class is what a reference argument must be assignable to, resolved
	// in the callee's namespace (nil for primitives).
	class *vmkit.Class
}

// vmMethodPlan is what callVM needs to know about one gate method,
// computed once at CreateVMCapability so the call path parses no
// descriptor and resolves no class.
type vmMethodPlan struct {
	m      *vmkit.Method
	params []vmParam
	// ret is the class a reference result must be assignable to, resolved
	// in the callee's namespace (nil for a primitive or void result), and
	// retKind the result's kind (KInvalid for void).
	ret     *vmkit.Class
	retKind vmkit.Kind
}

// planVMMethod builds the plan for gate method m.
func planVMMethod(m *vmkit.Method) (vmMethodPlan, error) {
	params, ret, err := vmkit.ParseMethodDesc(m.Desc)
	if err != nil {
		return vmMethodPlan{}, err
	}
	// The verifier resolved every parameter and return type when it
	// admitted m's class: an error here means the namespace has since lost
	// one.
	resolve := func(desc string) (*vmkit.Class, error) {
		if vmkit.DescKind(desc) != vmkit.KRef {
			return nil, nil
		}
		return m.Owner.NS.Resolve(vmkit.RefName(desc))
	}
	p := vmMethodPlan{m: m, params: make([]vmParam, len(params)), retKind: vmkit.DescKind(ret)}
	for i, desc := range params {
		p.params[i].kind = vmkit.DescKind(desc)
		if p.params[i].class, err = resolve(desc); err != nil {
			return vmMethodPlan{}, err
		}
	}
	if p.ret, err = resolve(ret); err != nil {
		return vmMethodPlan{}, err
	}
	return p, nil
}

// callVM performs one cross-domain call on a VM-target gate: the planned
// method on the caller's raw argument values, one a parameter, as the
// stub's native received them. args is only read — it is a window into
// the thread's frame arena.
func (g *Gate) callVM(t *vmkit.Thread, plan *vmMethodPlan, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
	k := g.k
	vm := k.VM
	m := plan.m

	// Revocation and termination checks. Termination revokes all gates, so
	// the revocation check alone propagates server death to clients.
	target := g.vmTarget.Load()
	if target == nil {
		return vmkit.Value{}, g.revokedThrowable()
	}

	task := k.taskForThread(t)
	if task == nil {
		return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "thread not managed by the kernel")
	}
	callerDomain := task.current()
	if callerDomain == nil {
		return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "caller domain is gone")
	}
	if callerDomain.Terminated() {
		return vmkit.Value{}, vm.Throwf(classTerminatedEx, "calling domain %s terminated", callerDomain.Name)
	}

	// Copy and check arguments under the calling convention. The gate does
	// not lean on the caller's verifier: a reference must be of the
	// parameter's class as the callee sees it. The copy goes first and
	// keeps the class: an object of a class the callee does not share fails
	// there (RemoteException), not here as a cast. A slot has no kind tag:
	// an argument of the wrong kind has something in the half of its slot
	// the parameter's kind leaves empty.
	ctx := vmCopyCtx{k: k, dest: g.owner}
	var buf [9]vmkit.Value
	callArgs := append(buf[:0], vmkit.RefVal(target))
	for i, p := range plan.params {
		v := args[i]
		if p.kind == vmkit.KRef && v.I != 0 || p.kind != vmkit.KRef && v.R != nil {
			return vmkit.Value{}, vm.Throwf(vmkit.ClassCastEx, "argument %d of %s has the wrong kind", i, m.Sig())
		}
		cv, thr := ctx.copyValue(v)
		if thr != nil {
			return vmkit.Value{}, thr
		}
		if cv.R != nil && !cv.R.Class.AssignableTo(p.class) {
			return vmkit.Value{}, vm.Throwf(vmkit.ClassCastEx, "%s is not argument %d of %s", cv.R.Class.Name, i, m.Sig())
		}
		callArgs = append(callArgs, cv)
	}

	tmStart := k.tm.callStart(task)

	ret, thrown := g.cross(task, t, callerDomain, m, callArgs)
	if thrown == nil && plan.retKind == vmkit.KRef {
		retCtx := vmCopyCtx{k: k, dest: callerDomain}
		ret, thrown = retCtx.copyValue(ret)
		ctx.bytes += retCtx.bytes
		if thrown == nil && ret.R != nil && !ret.R.Class.AssignableTo(plan.ret) {
			thrown = vm.Throwf(vmkit.ClassCastEx, "%s is not the result of %s", ret.R.Class.Name, m.Sig())
		}
	}
	g.account(task, callerDomain, m, tmStart, ctx.bytes, thrown != nil)
	if thrown != nil {
		return vmkit.Value{}, thrown
	}
	return ret, nil
}

// revokedThrowable is what a call through a gate without a target throws:
// termination revokes all of a domain's gates, so the fault tells which.
func (g *Gate) revokedThrowable() *vmkit.Object {
	fault, class := g.revocationFault(), classRevokedEx
	if errors.Is(fault, ErrDomainTerminated) {
		class = classTerminatedEx
	}
	return g.k.VM.Throwf(class, "%v (capability %d of domain %s)", fault, g.id, g.owner.Name)
}

// cross is the gate crossing every VM LRMI makes, whoever the caller: switch
// to the callee's segment, run m on callArgs (already in the callee's
// domain), switch back. The result is still the callee's; an exception is
// already the caller's copy.
func (g *Gate) cross(task *Task, t *vmkit.Thread, callerDomain *Domain, m *vmkit.Method, callArgs []vmkit.Value) (vmkit.Value, *vmkit.Object) {
	vm := g.k.VM

	// Segment switch: push the callee segment (lock pair #1), and have the
	// thread count steps for the callee's account; the caller's stay
	// pending on the thread, so work lands on the right domain without a
	// shared write. Under the heavy-lock profile each pair pays the
	// Sun-VM-style synchronization bookkeeping.
	vm.RecordHeavyLock(nil)
	seg := task.enter(g.owner)
	prevAcct := t.SwitchAccount(g.owner.acct)

	ret, thrown := vm.Invoke(t, m, callArgs)

	// Segment restore (lock pair #2).
	vm.RecordHeavyLock(nil)
	t.SwitchAccount(prevAcct)
	task.leave(seg)

	if thrown != nil {
		thrown = g.k.copyThrowable(callerDomain, thrown)
	}
	return ret, thrown
}

// account books a finished crossing on the carrier (Task.charge): the
// call and the bytes copied in both directions. A sampled call also
// records its span.
func (g *Gate) account(task *Task, callerDomain *Domain, m *vmkit.Method, tmStart time.Time, bytes int64, failed bool) {
	task.charge(vmCall, callerDomain, g.owner, bytes)
	if tm := g.k.tm; tm != nil {
		var callErr error
		if failed {
			callErr = errVMException
		}
		tm.span(vmCall, task, callerDomain, g.owner, m.Name, tmStart, callErr)
	}
}

var errVMException = errors.New("vm exception")

// copyThrowable transfers a callee exception to the caller. Bootstrap
// (system) throwables cross as fresh instances of the same shared class
// with a copied message; everything else is wrapped in RemoteException so
// no callee objects leak through the error path.
func (k *Kernel) copyThrowable(caller *Domain, thrown *vmkit.Object) *vmkit.Object {
	cls := thrown.Class
	msg := vmkit.ThrowableMessage(thrown)
	if cls.Def != nil && cls.Def.Flags&vmkit.FlagSystem != 0 {
		return k.VM.Throwf(cls.Name, "%s", msg)
	}
	return k.VM.Throwf(classRemoteEx, "remote %s: %s", cls.Name, msg)
}
