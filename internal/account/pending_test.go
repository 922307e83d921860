package account

import (
	"sync/atomic"
	"testing"
)

// TestPendingPublishIsCross: a crossing booked on a carrier's record and
// published lands exactly as Meter.Cross would have charged it, under every
// policy and with either side frozen, and counts once on each counter.
func TestPendingPublishIsCross(t *testing.T) {
	for _, policy := range []CopyPolicy{ChargeCaller, ChargeCallee, ChargeSplit} {
		for _, frozen := range []int64{0, 1, 2} {
			direct, booked := NewMeter(policy), NewMeter(policy)
			for _, m := range []*Meter{direct, booked} {
				if frozen != 0 {
					m.Account(frozen).Freeze()
				}
			}
			var p Pending
			var path, edge atomic.Int64
			for _, bytes := range []int64{101, 0, 7} {
				direct.Cross(direct.Account(1), direct.Account(2), bytes)
				p.Cross(policy, booked.Account(1), booked.Account(2), bytes, &path, &edge)
			}
			if booked.Snapshot(1) != (Stats{}) || path.Load() != 0 {
				t.Fatalf("%v: a booked crossing was published before Publish", policy)
			}
			p.Publish()
			for _, id := range []int64{1, 2} {
				if got, want := booked.Snapshot(id), direct.Snapshot(id); got != want {
					t.Errorf("%v, domain %d frozen: domain %d published %+v, Meter.Cross charged %+v", policy, frozen, id, got, want)
				}
			}
			if path.Load() != 3 || edge.Load() != 3 {
				t.Errorf("%v: counters %d and %d after 3 crossings", policy, path.Load(), edge.Load())
			}
		}
	}
}

// TestPendingPublishAfterFreezeIsDropped: steps and calls booked before an
// account froze and published after it are dropped; the live side's land.
func TestPendingPublishAfterFreezeIsDropped(t *testing.T) {
	m := NewMeter(ChargeCaller)
	a, b := m.Account(1), m.Account(2)
	var p Pending
	p.Steps(a, 10)
	p.Steps(b, 20)
	p.Cross(m.Policy(), b, a, 5, nil, nil)
	a.Freeze()
	b.Freeze()
	p.Publish()
	if s := m.Snapshot(1); s != (Stats{}) {
		t.Errorf("frozen account took %+v at the publish", s)
	}
	if s := m.Snapshot(2); s != (Stats{}) {
		t.Errorf("frozen account took %+v at the publish", s)
	}
	c := m.Account(3)
	p.Steps(c, 4)
	p.Publish()
	if got := m.Snapshot(3).Steps; got != 4 {
		t.Errorf("live account took %d steps, want 4", got)
	}
}

// TestPendingOutOfSlots: a record asked to hold more accounts and kinds of
// crossing than it has slots publishes and starts over, and nothing is
// lost or counted twice.
func TestPendingOutOfSlots(t *testing.T) {
	m := NewMeter(ChargeSplit)
	var p Pending
	var cells [3]atomic.Int64
	const accounts = 3*pendingSlots + 1
	for round := 0; round < 3; round++ {
		for id := int64(1); id <= accounts; id++ {
			p.Steps(m.Account(id), id)
			p.Cross(m.Policy(), m.Account(id), m.Account(id%accounts+1), 2*id, &cells[id%3], nil)
		}
	}
	p.Publish()
	if p.Work() != 0 {
		t.Errorf("work %d after Publish", p.Work())
	}
	var calls int64
	for id := int64(1); id <= accounts; id++ {
		s := m.Snapshot(id)
		callee := (id+accounts-2)%accounts + 1 // the id whose crossings this one receives
		if s.Steps != 3*id || s.CrossCalls != 3 || s.CopyBytes != 3*(id+callee) {
			t.Errorf("domain %d: %+v, want steps %d, 3 calls, copy bytes %d", id, s, 3*id, 3*(id+callee))
		}
	}
	for i := range cells {
		calls += cells[i].Load()
	}
	if calls != 3*accounts {
		t.Errorf("counters hold %d calls, want %d", calls, 3*accounts)
	}
}
