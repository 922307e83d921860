package core

import (
	"sync"
	"sync/atomic"

	"jkernel/internal/account"
)

// Asynchronous invocation: InvokeAsync starts a cross-domain call and
// returns a Future immediately, so a supervisor can fan one call out to
// every worker shard and join — the remote follow-on to the paper's
// Table 4 lesson that many small calls cost far more than one large one.
// Futures are gate-flavor agnostic: local native gates run the ordinary
// LRMI on a detached task, while a proxy gate's transport
// (internal/remote) starts a genuinely non-blocking wire invocation,
// which is what lets the connection coalesce many pending calls into one
// multi-invoke frame.
//
// Future semantics, proven equivalent for local and remote gates by the
// conformance table in future_conformance_test.go:
//
//   - resolve-once: a future resolves exactly once, whichever of
//     completion, Cancel, or revocation happens first; later outcomes are
//     dropped.
//   - fault propagation: callee failures surface from Wait exactly as
//     they would from a synchronous Invoke (same sentinels, RemoteError
//     copies).
//   - revocation-aware: revoking the capability (or terminating its
//     owner, or losing its connection) resolves every in-flight future
//     with the capability fault — a join never outlives the gate.
//   - Cancel is advisory: it resolves the future with ErrCancelled and
//     releases the transport slot, but the call it abandoned may still
//     execute on the callee (exactly like revocation mid-call).

// Future is the pending result of an asynchronous cross-domain call.
type Future struct {
	method string

	mu        sync.Mutex
	resolved  bool
	results   []any
	err       error
	onResolve func() // telemetry hook: runs exactly once, on resolution

	// The transport's pending slot for this call (ProxyTarget.CancelProxy
	// releases it); cancelVia is nil when there is nothing to release.
	cancelVia ProxyTarget
	cancelTok uint64

	// Wire completion context (CompleteWire): set before the transport
	// dispatch on the starting goroutine, read on the transport's reader.
	// The transport's own synchronization (its enqueue lock) orders the
	// writes before any CompleteWire call.
	wk      *Kernel
	wCaller *account.Account

	// done is created on demand (Done, or a Wait that actually blocks):
	// on the batched hot path most futures resolve before anyone waits,
	// so the eager channel was an allocation per call for nothing.
	done chan struct{}

	// Intrusive revocation watch (see Gate.watchFuture). gw is the gate
	// this future is registered on (written under that gate's hookMu,
	// read atomically by resolve); prevW/nextW link the gate's watch
	// list, guarded by hookMu.
	gw           atomic.Pointer[Gate]
	prevW, nextW *Future
}

// newFuture creates an unresolved future for method name.
func newFuture(method string) *Future {
	return &Future{method: method}
}

// resolvedFuture creates a future born resolved (immediate failures).
func resolvedFuture(method string, results []any, err error) *Future {
	f := newFuture(method)
	f.resolve(results, err)
	return f
}

// Method returns the remote method name the future is waiting on.
func (f *Future) Method() string { return f.method }

// resolve settles the future exactly once and reports whether this call
// did. The first caller wins; every later resolution (a late reply racing a
// cancellation, say) is dropped.
func (f *Future) resolve(results []any, err error) bool {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return false
	}
	f.resolved = true
	f.results = results
	f.err = err
	f.cancelVia = nil
	hook := f.onResolve
	f.onResolve = nil
	done := f.done
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
	if g := f.gw.Load(); g != nil {
		g.unwatchFuture(f)
	}
	if hook != nil {
		hook()
	}
	return true
}

// Done returns a channel closed when the future resolves. The channel is
// created on first use; callers that only Wait on an already-resolved
// future never allocate one.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.resolved {
			close(f.done)
		}
	}
	return f.done
}

// Resolved reports whether the future has settled.
func (f *Future) Resolved() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resolved
}

// Wait blocks until the future resolves and returns its results and
// error, following the same conventions as Invoke. It is idempotent:
// every call returns the same outcome.
//
//jk:blocking
func (f *Future) Wait() ([]any, error) {
	f.mu.Lock()
	if f.resolved {
		results, err := f.results, f.err
		f.mu.Unlock()
		return results, err
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	f.mu.Unlock()
	<-done
	return f.results, f.err
}

// Cancel abandons the call: the future resolves with ErrCancelled and the
// transport's pending slot is released. It is a no-op on a resolved
// future — in particular, a future already holding a revocation fault
// keeps it. The abandoned call may still run to completion on the callee;
// its result is dropped.
func (f *Future) Cancel() {
	f.mu.Lock()
	if f.resolved {
		f.mu.Unlock()
		return
	}
	via, tok := f.cancelVia, f.cancelTok
	f.mu.Unlock()
	if via != nil {
		via.CancelProxy(tok)
	}
	f.resolve(nil, ErrCancelled)
}

// setCancel records the transport slot to release on Cancel, unless the
// future already resolved (in which case the slot is released now).
func (f *Future) setCancel(via ProxyTarget, tok uint64) {
	f.mu.Lock()
	if !f.resolved {
		f.cancelVia, f.cancelTok = via, tok
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	via.CancelProxy(tok)
}

// CompleteWire implements AsyncCompleter: the transport resolves the
// future directly, charging the caller's account for the bytes copied
// across the wire on the way. It reports false when the future had already
// resolved (Cancel or revocation won the race), so results are dropped.
func (f *Future) CompleteWire(results []any, copied int64, err error) bool {
	f.wk.Meter.Cross(f.wCaller, copied)
	return f.resolve(results, err)
}

// WaitAll joins a fan-out: it waits for every future and returns the
// first error encountered (by argument order), or nil.
//
//jk:blocking
func WaitAll(futures ...*Future) error {
	var first error
	for _, f := range futures {
		if _, err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// revocationFault is the error an in-flight future resolves with when its
// gate is severed: the recorded failure reason when one exists (e.g. a
// transport's "connection lost"), else the termination or revocation
// sentinel — identical to what a fresh synchronous Invoke would return.
func (g *Gate) revocationFault() error {
	if reason := g.failureReason(); reason != nil {
		return reason
	}
	if g.owner != nil && g.owner.Terminated() {
		return ErrDomainTerminated
	}
	return ErrRevoked
}

// InvokeAsync starts a cross-domain call from the calling goroutine's
// task and returns immediately. The caller's task stays free for further
// calls (sync or async) while the future is in flight.
func (c *Capability) InvokeAsync(name string, args ...any) *Future {
	k := c.g.k
	task := k.currentTask()
	if task == nil {
		return resolvedFuture(name, nil, ErrNotEntered)
	}
	return c.invokeAsync(task, task.current(), name, args)
}

// InvokeAsyncFrom is InvokeAsync with an explicit task naming the calling
// domain. Unlike InvokeFrom, the task is not occupied by the call: the
// invocation runs detached, so one task can fan out any number of
// concurrent futures and keep making synchronous calls meanwhile.
func (c *Capability) InvokeAsyncFrom(task *Task, name string, args ...any) *Future {
	return c.invokeAsync(task, task.current(), name, args)
}

// invokeAsync starts the call on behalf of caller, from task (which stays
// free; it only contributes the calling context).
func (c *Capability) invokeAsync(task *Task, caller *Domain, name string, args []any) *Future {
	g := c.g
	k := g.k
	if caller == nil {
		return resolvedFuture(name, nil, ErrNotEntered)
	}
	if caller.Terminated() {
		return resolvedFuture(name, nil, ErrDomainTerminated)
	}
	f := newFuture(name)
	k.tm.asyncStart(f)
	// Revocation awareness: severing the gate — revocation, owner
	// termination, or a transport fault — resolves the future with the
	// capability fault. Registration is intrusive (the future links into
	// the gate's watch list, no closures); on an already-revoked gate it
	// resolves f inline, before any transport work happens.
	g.watchFuture(f)
	if f.Resolved() {
		return f
	}

	// Proxy gates take the wire path: the transport starts the call
	// without blocking, the completion runs on its reader, and pending
	// calls may be coalesced into batched frames. The future is its own
	// completion callback (CompleteWire), so no per-call closure crosses
	// into the transport.
	if pb := g.proxy.Load(); pb != nil {
		f.wk, f.wCaller = k, caller.acct
		call := ProxyCall{Method: name, Args: args, Done: f}
		if k.tm != nil {
			call.Trace = task.Chain.Trace
		}
		_, _, tok, _ := pb.t.InvokeProxy(call)
		k.tm.edgeInc(task, caller, g.owner)
		if tok != 0 {
			f.setCancel(pb.t, tok)
		}
		return f
	}

	// Local gates run the ordinary synchronous invoke on a detached task
	// of the caller's domain, so the full LRMI semantics — segment switch,
	// accounting, termination unwinding — hold unchanged.
	dt := caller.GetTask()
	if k.tm != nil {
		dt.Chain.Trace = task.Chain.Trace
	}
	go func() {
		results, err := c.invokeFrom(dt, name, args)
		dt.EndTrace()
		caller.PutTask(dt)
		f.resolve(results, err)
	}()
	return f
}
