package core

import "fmt"

// Proxy targets: the third kind of gate target, behind which a transport
// (internal/remote) forwards invocations to a capability living in another
// kernel process. Callers cannot tell a proxy capability from a local one:
// Invoke, InvokeFrom, Bind, Revoke, and Revoked all behave identically,
// and errors come back as the same kernel sentinels (the wire maps
// RevokedException and TerminatedException onto ErrRevoked and
// ErrDomainTerminated).

// ProxyTarget is the transport half of a proxy gate. InvokeProxy performs
// one remote invocation; arguments and results follow the LRMI calling
// convention (the transport's serialization is the copy, and capabilities
// travel by reference). copied reports the bytes that crossed the wire,
// for the caller domain's account.
type ProxyTarget interface {
	InvokeProxy(method string, args []any) (results []any, copied int64, err error)
	// ProxyMethods lists the remote method names. A transport whose
	// import arrived without a manifest may fetch one on first call
	// (internal/remote does, with a single cached round trip), so callers
	// should treat this as potentially blocking.
	ProxyMethods() []string
}

// AsyncCompleter receives the outcome of one asynchronous wire
// invocation: CompleteWire must be called exactly once, from any
// goroutine, with the same results/copied/err contract as InvokeProxy.
// *Future implements it directly, so starting a wire call passes the
// future itself to the transport instead of allocating a completion
// closure per call.
type AsyncCompleter interface {
	CompleteWire(results []any, copied int64, err error)
}

// AsyncCanceler releases a transport's pending slot when the caller
// abandons an in-flight asynchronous call (the reply, if it still
// arrives, is dropped). It is an interface rather than a func so
// transports can hand back their per-call state object without
// allocating a closure.
type AsyncCanceler interface {
	CancelAsync()
}

// AsyncProxyTarget is the optional non-blocking half of a transport
// proxy. InvokeProxyAsync starts one remote invocation and returns
// without waiting; done.CompleteWire fires exactly once. Transports
// implement it so the kernel's InvokeAsync neither blocks nor burns a
// goroutine per call — which is what allows the wire layer to coalesce
// pending invokes into batched frames.
type AsyncProxyTarget interface {
	ProxyTarget
	InvokeProxyAsync(method string, args []any, done AsyncCompleter) AsyncCanceler
}

// proxyBox wraps the interface so the gate can hold it atomically.
type proxyBox struct{ t ProxyTarget }

// CreateProxyCapability creates a capability, owned by d, whose target is
// a transport proxy. Revoking it (or terminating d) severs the local gate;
// the transport is responsible for propagating revocations that originate
// on the remote side via Capability.RevokeWithReason.
func (k *Kernel) CreateProxyCapability(d *Domain, pt ProxyTarget) (*Capability, error) {
	if d.Terminated() {
		return nil, ErrDomainTerminated
	}
	if pt == nil {
		return nil, fmt.Errorf("jkernel: nil proxy target")
	}
	g := &Gate{k: k, id: k.nextGate.Add(1), owner: d}
	g.proxy.Store(&proxyBox{t: pt})
	k.gates.Store(g.id, g)
	d.addGate(g)
	return &Capability{g: g}, nil
}

// ProxyTargetOf returns c's proxy target, or nil for local capabilities
// (and for revoked proxies). Transports use it to recognize their own
// proxies when a capability travels back toward its owning kernel.
func ProxyTargetOf(c *Capability) ProxyTarget {
	if pb := c.g.proxy.Load(); pb != nil {
		return pb.t
	}
	return nil
}

// RetargetProxy atomically swaps the transport behind a live proxy
// capability. The capability object — and therefore every stub, argument
// vector, and repository binding that refers to it — is untouched: only
// the route its invocations take changes, which is what lets a redeemed
// three-party handoff unify with the import callers already hold instead
// of minting a second identity for the same remote gate. It fails (and
// changes nothing) when c is not a proxy or has been revoked; a
// revocation racing the swap wins either way, because revoke stores nil
// unconditionally after this CAS settles.
func RetargetProxy(c *Capability, pt ProxyTarget) bool {
	if pt == nil {
		return false
	}
	next := &proxyBox{t: pt}
	for {
		old := c.g.proxy.Load()
		if old == nil {
			return false // revoked, or never a proxy
		}
		if c.g.proxy.CompareAndSwap(old, next) {
			return true
		}
	}
}

// invokeProxy forwards one call through a proxy gate. The segment switch
// into the proxy's owning domain (the transport's connection domain) is
// kept so accounting, termination, and Thread.stop semantics are identical
// to local LRMI; argument copying is delegated to the transport, whose
// serialization already yields an isomorphic copy on the far side.
func (c *Capability) invokeProxy(task *Task, caller *Domain, pt ProxyTarget, name string, args []any) ([]any, error) {
	g := c.g
	k := g.k

	seg := task.enter(g.owner)

	var results []any
	var copied int64
	var err error
	// Traced transports receive the active context so it crosses the wire;
	// the type assertion is paid only when a trace is actually running.
	if tm := k.tm; tm != nil {
		if tc := task.effectiveTrace(); tc.Active() {
			if tpt, ok := pt.(TracedProxyTarget); ok {
				results, copied, err = tpt.InvokeProxyTraced(name, args, tc)
			} else {
				results, copied, err = pt.InvokeProxy(name, args)
			}
		} else {
			results, copied, err = pt.InvokeProxy(name, args)
		}
	} else {
		results, copied, err = pt.InvokeProxy(name, args)
	}

	task.leave(g.owner, seg)

	if perr := task.Chain.Poll(); perr != nil {
		return nil, perr
	}
	k.Meter.CrossCall(caller.ID, g.owner.ID, copied)
	// The transport records the wire client span (it sees the peer and the
	// reply timing); the kernel only keeps the call-graph edge.
	k.tm.edge(caller, g.owner).Inc()
	return results, err
}
