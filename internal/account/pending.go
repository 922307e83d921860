package account

import "sync/atomic"

// Pending is one carrier's charges that are not published yet: plain adds
// into memory that only the carrier touches. A crossing books its call, its
// copied bytes and the shared counters it is counted on (Cross), and the
// carrier's interpreter steps land here when it sets them down (Steps);
// Publish moves everything to the accounts' and counters' atomics in one
// pass. A carrier publishes at its step flush and on every return to Go,
// so another goroutine's Snapshot lags the carrier by what it has pending.
//
// The zero Pending is ready to use. It is the carrier's alone: no two
// goroutines may use one at the same time.
type Pending struct {
	accts   [pendingSlots]pendingSteps
	crosses [pendingSlots]pendingCross
	na, nx  int
	// work is the steps booked since the last Publish, which the carrier
	// holds against its flush window.
	work int64
	// stripe picks the stripe of every account this record publishes to,
	// drawn at its first Publish (0: not yet).
	stripe uint64
}

// nextStripe hands records their stripes round-robin.
var nextStripe atomic.Uint64

// pendingSlots is how many accounts, and how many kinds of crossing, a
// record holds: a carrier alternates between few (a call's caller and
// callee). A record out of slots publishes and starts over.
const pendingSlots = 4

type pendingSteps struct {
	a     *Account
	steps int64
}

// pendingCross is the crossings of one kind: caller, callee and the
// counters they count on.
type pendingCross struct {
	caller, callee     *Account
	path, edge         *atomic.Int64
	calls              int64
	toCaller, toCallee int64
}

// Steps books n interpreter steps to a (nil: nowhere).
func (p *Pending) Steps(a *Account, n int64) {
	if n == 0 || a == nil {
		return
	}
	p.work += n
	for i := range p.na {
		if s := &p.accts[i]; s.a == a {
			s.steps += n
			return
		}
	}
	if p.na == len(p.accts) {
		p.Publish()
		p.work = n
	}
	p.accts[p.na] = pendingSteps{a: a, steps: n}
	p.na++
}

// Work returns the steps booked since the last Publish.
func (p *Pending) Work() int64 { return p.work }

// Cross books an LRMI initiated by caller into callee: the caller's call,
// the copy charge for bytes divided by policy — what Meter.Cross charges,
// once published — and one increment of each non-nil counter, path and
// edge (the kernel's call counter and call-graph edge).
func (p *Pending) Cross(policy CopyPolicy, caller, callee *Account, bytes int64, path, edge *atomic.Int64) {
	toCaller, toCallee := policy.split(bytes)
	for i := range p.nx {
		x := &p.crosses[i]
		if x.caller == caller && x.callee == callee && x.path == path && x.edge == edge {
			x.calls++
			x.toCaller += toCaller
			x.toCallee += toCallee
			return
		}
	}
	if p.nx == len(p.crosses) {
		p.Publish()
	}
	p.crosses[p.nx] = pendingCross{caller: caller, callee: callee, path: path, edge: edge,
		calls: 1, toCaller: toCaller, toCallee: toCallee}
	p.nx++
}

// Publish adds everything booked to the accounts and counters and empties
// the record. A frozen account takes none of its charges, however long
// before the freeze they were booked: a terminated domain's figures miss
// what its carriers had pending when it ended.
func (p *Pending) Publish() {
	if p.stripe == 0 {
		p.stripe = nextStripe.Add(1)
	}
	i := p.stripe & (stripes - 1)
	for j := range p.na {
		s := &p.accts[j]
		if !s.a.frozen.Load() {
			s.a.published[i].steps.Add(s.steps)
		}
		*s = pendingSteps{}
	}
	for j := range p.nx {
		x := &p.crosses[j]
		if !x.caller.frozen.Load() {
			x.caller.published[i].calls.Add(x.calls)
			add(&x.caller.published[i].copied, x.toCaller)
		}
		if x.toCallee != 0 && !x.callee.frozen.Load() {
			x.callee.published[i].copied.Add(x.toCallee)
		}
		if x.path != nil {
			x.path.Add(x.calls)
		}
		if x.edge != nil {
			x.edge.Add(x.calls)
		}
		*x = pendingCross{}
	}
	p.na, p.nx, p.work = 0, 0, 0
}

// add adds n to c, skipping the atomic when there is nothing to add.
func add(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}
