// Package account implements per-domain resource accounting.
//
// The paper (§2, "Resource Accounting") observes that object sharing makes
// it unclear whom to charge for memory and CPU, quoting Hydra: "No one
// 'owns' an object ... thus it's very hard to know to whom the cost of
// maintaining it should be charged." The J-Kernel's copy-based calling
// convention makes ownership crisp again — every non-capability object
// lives in exactly one domain — so charges have an unambiguous home. This
// package meters allocation, interpreter work, copied bytes, loaded class
// metadata, and cross-domain calls per domain. The caller of an LRMI pays
// for the bytes it copies: it chose to pass the data.
package account

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of one domain's charges.
type Stats struct {
	AllocBytes int64 // heap allocation
	Steps      int64 // interpreter instructions
	CopyBytes  int64 // LRMI argument/result copying
	ClassBytes int64 // class metadata
	CrossCalls int64 // LRMI invocations initiated
	Revoked    int64 // capabilities revoked by/for this domain
}

// Account is one domain's charges: a set of counters each charge adds to
// atomically, so charging takes no lock and carriers charging different
// domains share nothing. What carriers publish (Pending) — steps, calls
// and copied bytes — is striped, so carriers publishing into one domain at
// once write different cache lines. The zero Account is ready to use, and
// belongs to domain 0.
type Account struct {
	published             [stripes]stripe
	alloc, class, revoked atomic.Int64
	frozen                atomic.Bool
	domain                int64
}

// stripes is the number of stripes of an account, a power of two.
const stripes = 8

// stripe is one cache line of an account's published charges.
type stripe struct {
	steps, calls, copied atomic.Int64
	_                    [40]byte
}

// charge adds n to c unless the account is frozen.
func (a *Account) charge(c *atomic.Int64, n int64) {
	if n != 0 && !a.frozen.Load() {
		c.Add(n)
	}
}

// Alloc charges bytes of heap allocation.
func (a *Account) Alloc(bytes int64) { a.charge(&a.alloc, bytes) }

// Domain returns the id of the domain the Meter created a for.
func (a *Account) Domain() int64 { return a.domain }

// Steps charges interpreter work.
func (a *Account) Steps(n int64) { a.charge(&a.published[0].steps, n) }

// Class charges class metadata.
func (a *Account) Class(bytes int64) { a.charge(&a.class, bytes) }

// RevokeCount records n capability revocations.
func (a *Account) RevokeCount(n int64) { a.revoked.Add(n) }

// Freeze stops further charges (used at domain termination: a dead domain
// cannot accrue new costs, reproducing "clean semantics of domain
// termination" for the accounting dimension). A charge racing the freeze
// lands or not; one started after it does not.
func (a *Account) Freeze() { a.frozen.Store(true) }

// Snapshot reads the counters one by one: every finished charge is in it,
// but it is not a consistent cut across fields while charges are in flight.
func (a *Account) Snapshot() Stats {
	s := Stats{
		AllocBytes: a.alloc.Load(),
		ClassBytes: a.class.Load(),
		Revoked:    a.revoked.Load(),
	}
	for i := range a.published {
		p := &a.published[i]
		s.Steps += p.steps.Load()
		s.CrossCalls += p.calls.Load()
		s.CopyBytes += p.copied.Load()
	}
	return s
}

// Meter holds the accounts by domain id. The zero Meter is ready to use.
type Meter struct {
	// accounts is copy-on-write: Account reads it without a lock, and mu
	// serializes the inserts that replace it.
	accounts atomic.Pointer[map[int64]*Account]
	mu       sync.Mutex
}

// NewMeter creates a Meter.
func NewMeter() *Meter { return &Meter{} }

// table returns the current accounts, to read only.
func (m *Meter) table() map[int64]*Account {
	if t := m.accounts.Load(); t != nil {
		return *t
	}
	return nil
}

// Account resolves domain's account, creating it on first use. Whoever
// charges one domain repeatedly resolves once and keeps the pointer.
func (m *Meter) Account(domain int64) *Account {
	if a := m.table()[domain]; a != nil {
		return a
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.table()
	if a := old[domain]; a != nil {
		return a
	}
	next := make(map[int64]*Account, len(old)+1)
	for id, a := range old {
		next[id] = a
	}
	a := &Account{domain: domain}
	next[domain] = a
	m.accounts.Store(&next)
	return a
}

// CrossCall is Cross by domain id. callee is not read: the caller pays.
func (m *Meter) CrossCall(caller, callee, bytes int64) {
	m.Cross(m.Account(caller), bytes)
}

// Cross records an LRMI initiated by caller and charges it the bytes
// copied. A frozen caller takes nothing: no call, no bytes.
func (m *Meter) Cross(caller *Account, bytes int64) {
	caller.charge(&caller.published[0].calls, 1)
	caller.charge(&caller.published[0].copied, bytes)
}

// Snapshot returns a copy of domain's stats (see Account.Snapshot); zero
// for a domain with no account.
func (m *Meter) Snapshot(domain int64) Stats {
	if a := m.table()[domain]; a != nil {
		return a.Snapshot()
	}
	return Stats{}
}

// Domains returns the ids that have an account, sorted.
func (m *Meter) Domains() []int64 {
	var ids []int64
	for id := range m.table() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// GrandTotal sums a field across all domains; used by conservation tests:
// the sum over unfrozen domains equals the bytes charged, once the charges
// have finished.
func (m *Meter) GrandTotal(f func(Stats) int64) int64 {
	var total int64
	for _, a := range m.table() {
		total += f(a.Snapshot())
	}
	return total
}
