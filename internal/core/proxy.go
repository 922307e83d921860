package core

import (
	"fmt"
	"reflect"

	"jkernel/internal/telemetry"
)

// Proxy targets: the third kind of gate target, behind which a transport
// (internal/remote) forwards invocations to a capability living in another
// kernel process. Callers cannot tell a proxy capability from a local one:
// Invoke, InvokeFrom, Bind, Revoke, and Revoked all behave identically,
// and errors come back as the same kernel sentinels (the wire maps
// RevokedException and TerminatedException onto ErrRevoked and
// ErrDomainTerminated).

// ProxyCall is one invocation handed to a transport, by value: the call
// itself, the caller's trace context (zero when no trace is active) so it
// can cross the wire inside the invoke frame, and who to tell when it is
// over. Done == nil means the caller blocks for the outcome.
type ProxyCall struct {
	Method string
	Args   []any
	Trace  telemetry.TraceContext
	Done   AsyncCompleter
}

// ProxyTarget is the transport half of a proxy gate. InvokeProxy performs
// one remote invocation; arguments and results follow the LRMI calling
// convention (the transport's serialization is the copy, and capabilities
// travel by reference).
//
// With call.Done == nil InvokeProxy blocks and returns the outcome;
// copied reports the bytes that crossed the wire, for the caller domain's
// account. With a completer it starts the call and returns at once — so
// the kernel's InvokeAsync neither blocks nor burns a goroutine per call,
// which is what lets the wire layer coalesce pending invokes into batched
// frames — and the outcome goes to call.Done.CompleteWire exactly once,
// possibly before InvokeProxy returns; token then names the pending call
// for CancelProxy (0: it completed without taking a transport slot).
type ProxyTarget interface {
	InvokeProxy(call ProxyCall) (results []any, copied int64, token uint64, err error)
	// CancelProxy releases the transport slot of the asynchronous call
	// InvokeProxy named token; the reply, if it still arrives, is dropped.
	// A token whose call already completed is ignored.
	CancelProxy(token uint64)
	// ProxyMethods lists the remote method names. A transport whose
	// import arrived without a manifest may fetch one on first call
	// (internal/remote does, with a single cached round trip), so callers
	// should treat this as potentially blocking.
	ProxyMethods() []string
}

// AsyncCompleter receives the outcome of one asynchronous wire
// invocation: CompleteWire must be called exactly once, from any
// goroutine, with the same results/copied/err contract as a blocking
// InvokeProxy. It reports whether the outcome was delivered; on false
// nobody will ever see results, and the transport releases what decoding
// them created. *Future implements it directly, so starting a wire call
// passes the future itself to the transport instead of allocating a
// completion closure per call.
type AsyncCompleter interface {
	CompleteWire(results []any, copied int64, err error) bool
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
	if err := d.addGate(g); err != nil {
		return nil, err
	}
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

	call := ProxyCall{Method: name, Args: args}
	if k.tm != nil {
		call.Trace = task.Chain.Trace
	}
	results, copied, _, err := pt.InvokeProxy(call)

	task.leave(seg)

	if perr := task.Chain.Poll(); perr != nil {
		return nil, perr
	}
	// The transport records the wire client span (it sees the peer and the
	// reply timing); the kernel only keeps the call-graph edge.
	task.charge(proxyCall, caller, g.owner, copied)
	task.Thread.Publish()
	return results, err
}

// WireEncoder is the transport half of an inbound call, AsyncCompleter's
// counterpart on the callee side: EncodeResults serializes one result
// vector into the reply and reports the stream's length. A vector it cannot
// encode is the transport's to report (its reply carries the failure); it
// then answers 0.
type WireEncoder interface {
	EncodeResults(results []any) (streamLen int64)
}

// ServeWire performs one invocation a transport received for c — the
// mirror image of ProxyTarget.InvokeProxy, where the transport's
// serialization is the copy: one copy per direction, made by the codec and
// by nobody else.
//
// Ownership. args must be private to this call: the transport's decode
// made them, nothing else refers to them, and the callee may keep or change
// them as it may any argument (capabilities in them travel by reference, as
// always). They are not copied again. The results stay the callee's
// objects — they may be, or point into, its live state — and never leave
// ServeWire: out.EncodeResults runs on this goroutine, after the callee's
// segment is left and before ServeWire returns, and must retain neither the
// vector nor anything reachable from it. What the caller finally holds is
// what its own kernel decodes from that stream. The callee's error is
// copied out exactly as InvokeFrom copies it, and a failed call encodes
// nothing. task names the calling domain (the connection's), argBytes the
// length of the stream args were decoded from; the crossing is charged that
// plus the result stream's length.
//
//jk:blocking
func (c *Capability) ServeWire(task *Task, name string, args []any, argBytes int64, out WireEncoder) error {
	g := c.g
	k := g.k
	caller, m, pt, err := c.nativeCallee(task, name)
	if err != nil {
		return err
	}
	if pt != nil {
		// A relayed proxy: the next hop's decode made these results, and
		// its transport has charged the crossing.
		results, err := c.invokeProxy(task, caller, pt, name, args)
		if err == nil {
			out.EncodeResults(results)
		}
		return err
	}
	start := k.tm.callStart(task)
	var inBuf [5]reflect.Value
	in, _, err := k.nativeArgs(m, args, false, inBuf[:0])
	if err != nil {
		return err
	}
	results, merr, callErr := g.crossNative(task, m, in)
	if perr := task.Chain.Poll(); perr != nil {
		return perr
	}
	k.tm.span(nativeCall, task, caller, g.owner, name, start, callErr)
	if callErr == nil && merr == nil {
		argBytes += out.EncodeResults(results)
	}
	task.charge(nativeCall, caller, g.owner, argBytes)
	task.Thread.Publish()
	if callErr != nil {
		return callErr
	}
	if merr != nil {
		return copyErrorOut(merr)
	}
	return nil
}
