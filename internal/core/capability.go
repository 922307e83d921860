package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"jkernel/internal/vmkit"
)

// Gate is the kernel side of a capability: it holds the (revocable)
// pointer to the target and performs the cross-domain calling convention.
// Stubs — VM bytecode stubs and native reflect stubs alike — funnel every
// invocation through their gate.
type Gate struct {
	k     *Kernel
	id    int64
	owner *Domain

	// Exactly one of vmTarget/natTarget/proxy is used. Revocation nulls
	// the pointer, making the target collectable regardless of who holds
	// the stub (the paper's revoke semantics).
	vmTarget  atomic.Pointer[vmkit.Object]
	natTarget atomic.Pointer[nativeTarget]
	proxy     atomic.Pointer[proxyBox]

	// failure, when set before revocation, is the error subsequent
	// invokers receive instead of the bare ErrRevoked — e.g. "remote
	// connection lost" for proxies whose transport died.
	failure atomic.Pointer[error]

	// Revocation observers (transports push revocation to remote proxies
	// through these). Fired exactly once.
	hookMu     sync.Mutex
	hooksFired bool
	nextHook   int
	onRevoke   map[int]func()

	// futHead is the intrusive list of in-flight futures watching this
	// gate (hookMu). Registration and removal are pointer swaps — the
	// async hot path pays no closure or map allocation per call.
	futHead *Future

	// VM dispatch table: one plan per remote method, in stable (signature)
	// order; each of the stub class's natives is bound to one (Native).
	plans  []vmMethodPlan
	ifaces []*vmkit.Class
}

// Owner returns the creating domain.
func (g *Gate) Owner() *Domain { return g.owner }

// Revoked reports whether the gate has been revoked.
func (g *Gate) Revoked() bool {
	return g.vmTarget.Load() == nil && g.natTarget.Load() == nil && g.proxy.Load() == nil
}

// revoke severs the target pointers, then — exactly once, no matter how
// many paths revoke the gate — counts the revocation to its owner, drops
// the gate from the owner's created set and fires the revocation
// observers. From here the owner no longer names the gate: it lives as
// long as a stub, a Capability or a transport table still does.
func (g *Gate) revoke() {
	g.vmTarget.Store(nil)
	g.natTarget.Store(nil)
	g.proxy.Store(nil)
	g.hookMu.Lock()
	if g.hooksFired {
		g.hookMu.Unlock()
		return
	}
	g.hooksFired = true
	hooks := g.onRevoke
	g.onRevoke = nil
	// Detach the future watch list while still holding hookMu: once gw is
	// cleared, a racing resolve's unwatchFuture is a no-op, so the list
	// links below are exclusively this walker's.
	watchers := g.futHead
	g.futHead = nil
	for f := watchers; f != nil; f = f.nextW {
		f.gw.Store(nil)
	}
	g.hookMu.Unlock()
	g.owner.acct.RevokeCount(1)
	g.owner.dropGate(g)
	for _, h := range hooks {
		h()
	}
	for f := watchers; f != nil; {
		next := f.nextW
		f.prevW, f.nextW = nil, nil
		f.resolve(nil, g.revocationFault())
		f = next
	}
}

// OnRevoke registers fn to run when the gate is revoked (directly, or by
// domain termination). If the gate is already revoked, fn runs
// immediately. Transports use this to push revocation to remote proxies.
// The returned func unregisters fn; a transport must call it when its
// connection dies, or the closure (and everything it captures) stays
// pinned to the gate for the gate's lifetime.
func (g *Gate) OnRevoke(fn func()) (remove func()) {
	g.hookMu.Lock()
	if g.hooksFired {
		g.hookMu.Unlock()
		fn()
		return func() {}
	}
	if g.onRevoke == nil {
		g.onRevoke = make(map[int]func())
	}
	id := g.nextHook
	g.nextHook++
	g.onRevoke[id] = fn
	g.hookMu.Unlock()
	return func() {
		g.hookMu.Lock()
		delete(g.onRevoke, id)
		g.hookMu.Unlock()
	}
}

// watchFuture registers f to resolve with the capability fault when the
// gate is severed. The registration is intrusive — f links into the
// gate's watch list, no closure or map entry — and is undone by f's own
// resolution (unwatchFuture) or consumed by revoke. On an already-revoked
// gate f resolves inline before watchFuture returns.
func (g *Gate) watchFuture(f *Future) {
	g.hookMu.Lock()
	if g.hooksFired {
		g.hookMu.Unlock()
		f.resolve(nil, g.revocationFault())
		return
	}
	f.gw.Store(g)
	f.nextW = g.futHead
	if g.futHead != nil {
		g.futHead.prevW = f
	}
	g.futHead = f
	g.hookMu.Unlock()
}

// unwatchFuture unlinks f from the watch list; a no-op if revoke already
// detached it (the double-check under hookMu resolves that race).
func (g *Gate) unwatchFuture(f *Future) {
	g.hookMu.Lock()
	if f.gw.Load() == g {
		if f.prevW != nil {
			f.prevW.nextW = f.nextW
		} else {
			g.futHead = f.nextW
		}
		if f.nextW != nil {
			f.nextW.prevW = f.prevW
		}
		f.gw.Store(nil)
		f.prevW, f.nextW = nil, nil
	}
	g.hookMu.Unlock()
}

// RevokeHooks reports the number of registered revocation observers,
// including in-flight futures watching the gate. Diagnostics only: a
// transport must deregister its hooks when its connection dies or its
// export table entry is released, so a gate that accumulates hooks across
// connection churn is leaking.
func (g *Gate) RevokeHooks() int {
	g.hookMu.Lock()
	defer g.hookMu.Unlock()
	n := len(g.onRevoke)
	for f := g.futHead; f != nil; f = f.nextW {
		n++
	}
	return n
}

// failureReason returns the recorded failure, or nil.
func (g *Gate) failureReason() error {
	if p := g.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// Capability is the Go-facing handle on a capability. For VM capabilities
// Stub is the generated stub object that VM code receives; for native
// capabilities Stub is nil and Invoke/Bind are the entry points.
//
//jk:cap
type Capability struct {
	g    *Gate
	Stub *vmkit.Object
}

// Gate exposes the underlying gate (read-only uses: owner, identity,
// revocation hooks).
func (c *Capability) Gate() *Gate { return c.g }

// Revoke severs the capability. All subsequent uses fail with
// ErrRevoked / jk.kernel.RevokedException.
func (c *Capability) Revoke() { c.g.revoke() }

// RevokeWithReason severs the capability, recording reason as the error
// subsequent invokers receive. Wrap a kernel sentinel (ErrRevoked,
// ErrDomainTerminated) so errors.Is keeps working — transports use this to
// turn a lost worker connection into a descriptive capability fault. Only
// the first recorded reason sticks.
func (c *Capability) RevokeWithReason(reason error) {
	if reason != nil {
		c.g.failure.CompareAndSwap(nil, &reason)
	}
	c.Revoke()
}

// Revoked reports whether the capability has been revoked.
func (c *Capability) Revoked() bool { return c.g.Revoked() }

// Owner returns the domain that created the capability.
func (c *Capability) Owner() *Domain { return c.g.owner }

// remoteInterfacesOf collects the interfaces of c (transitively) that
// extend jk/kernel/Remote, excluding Remote itself.
func remoteInterfacesOf(k *Kernel, c *vmkit.Class) []*vmkit.Class {
	remote := k.VM.SystemClass(ifaceRemote)
	seen := map[*vmkit.Class]bool{}
	var out []*vmkit.Class
	var visit func(ifc *vmkit.Class)
	visit = func(ifc *vmkit.Class) {
		if seen[ifc] {
			return
		}
		seen[ifc] = true
		if ifc != remote && ifc.Implements(remote) {
			out = append(out, ifc)
		}
		for _, super := range ifc.Interfaces {
			visit(super)
		}
	}
	for cl := c; cl != nil; cl = cl.Super {
		for _, ifc := range cl.Interfaces {
			visit(ifc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateVMCapability implements Capability.create for a VM target object:
// it collects the target's remote interfaces, generates a stub class (as
// bytecode, loaded through the full decode/verify/link pipeline), and
// returns the stub object plus a Go handle. The capability is recorded as
// created by domain d and is revoked when d terminates.
func (k *Kernel) CreateVMCapability(d *Domain, target *vmkit.Object) (*Capability, error) {
	if d.Terminated() {
		return nil, ErrDomainTerminated
	}
	if target == nil || target.Class == nil {
		return nil, fmt.Errorf("jkernel: nil capability target")
	}
	ifaces := remoteInterfacesOf(k, target.Class)
	if len(ifaces) == 0 {
		return nil, ErrNotRemote
	}

	// Collect remote methods in stable order; the target must implement
	// every one of them concretely.
	var methods []*vmkit.Method
	seen := map[string]bool{}
	for _, ifc := range ifaces {
		for _, im := range ifc.Methods() {
			if im.Owner.Name == vmkit.ClassObject || im.IsStatic() {
				continue
			}
			sig := im.Sig()
			if seen[sig] {
				continue
			}
			impl := target.Class.MethodBySig(im.Name, im.Desc)
			if impl == nil || impl.Flags&vmkit.MAbstract != 0 {
				return nil, fmt.Errorf("jkernel: target %s does not implement %s", target.Class.Name, sig)
			}
			seen[sig] = true
			methods = append(methods, impl)
		}
	}
	if len(methods) == 0 {
		return nil, ErrNotRemote
	}
	sort.SliceStable(methods, func(i, j int) bool { return methods[i].Sig() < methods[j].Sig() })

	g := &Gate{k: k, id: k.nextGate.Add(1), owner: d, plans: make([]vmMethodPlan, len(methods)), ifaces: ifaces}
	for i, m := range methods {
		var err error
		if g.plans[i], err = planVMMethod(m); err != nil {
			return nil, fmt.Errorf("jkernel: gate method %s: %w", m.Sig(), err)
		}
	}
	g.vmTarget.Store(target)

	// The stub class is born carrying its gate: every object of it is a
	// stub of g, and nothing else is.
	stubDef := genStubClass(k, g, target.Class)
	stubBytes := vmkit.EncodeClass(stubDef)
	stubClass, err := d.NS.DefineGateClass(stubBytes, g)
	if err != nil {
		return nil, fmt.Errorf("jkernel: stub generation for %s: %w", target.Class.Name, err)
	}
	stub, ierr := d.NS.NewInstance(stubClass)
	if ierr != nil {
		return nil, ierr
	}
	if err := d.addGate(g); err != nil {
		g.vmTarget.Store(nil) // its class stays in d's namespace; the target need not
		return nil, err
	}
	return &Capability{g: g, Stub: stub}, nil
}

// gateOf returns the gate o is a stub of, or nil. An object is a
// capability exactly when its own class is a stub class the kernel
// generated: a user class extending jk/kernel/Capability, or extending a
// stub class, carries no gate and is an ordinary object.
func gateOf(o *vmkit.Object) *Gate {
	g, _ := o.Class.Gate.(*Gate)
	return g
}

// gateOfStub resolves a stub object to its gate.
func (k *Kernel) gateOfStub(stub *vmkit.Object) (*Gate, *vmkit.Object) {
	if stub != nil {
		if g := gateOf(stub); g != nil {
			return g, nil
		}
	}
	return nil, k.VM.Throwf(vmkit.ClassIllegalStateEx, "not a capability")
}

// currentDomainOfThread resolves the domain of the thread's controlling
// segment.
func (k *Kernel) currentDomainOfThread(t *vmkit.Thread) *Domain {
	task := k.taskForThread(t)
	if task == nil {
		return nil
	}
	return task.current()
}
