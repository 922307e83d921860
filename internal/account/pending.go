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

// pendingCross is the crossings of one kind: the caller and the counters
// they count on.
type pendingCross struct {
	caller        *Account
	path, edge    *atomic.Int64
	calls, copied int64
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

// Cross books an LRMI initiated by caller: its call and the bytes it
// copied — what Meter.Cross charges, once published — and one increment of
// each non-nil counter, path and edge (the kernel's call counter and
// call-graph edge).
func (p *Pending) Cross(caller *Account, bytes int64, path, edge *atomic.Int64) {
	for i := range p.nx {
		x := &p.crosses[i]
		if x.caller == caller && x.path == path && x.edge == edge {
			x.calls++
			x.copied += bytes
			return
		}
	}
	if p.nx == len(p.crosses) {
		p.Publish()
	}
	p.crosses[p.nx] = pendingCross{caller: caller, path: path, edge: edge, calls: 1, copied: bytes}
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
			add(&x.caller.published[i].copied, x.copied)
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
