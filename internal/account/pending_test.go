package account

import (
	"sync/atomic"
	"testing"
)

// TestPendingPublishIsCross: a crossing booked on a carrier's record and
// published lands exactly as Meter.Cross would have charged it, with either
// side frozen, and counts once on each counter.
func TestPendingPublishIsCross(t *testing.T) {
	for _, frozen := range []int64{0, 1, 2} {
		direct, booked := NewMeter(), NewMeter()
		for _, m := range []*Meter{direct, booked} {
			if frozen != 0 {
				m.Account(frozen).Freeze()
			}
		}
		var p Pending
		var path, edge atomic.Int64
		for _, bytes := range []int64{101, 0, 7} {
			direct.Cross(direct.Account(1), bytes)
			p.Cross(booked.Account(1), bytes, &path, &edge)
		}
		if booked.Snapshot(1) != (Stats{}) || path.Load() != 0 {
			t.Fatalf("domain %d frozen: a booked crossing was published before Publish", frozen)
		}
		p.Publish()
		for _, id := range []int64{1, 2} {
			if got, want := booked.Snapshot(id), direct.Snapshot(id); got != want {
				t.Errorf("domain %d frozen: domain %d published %+v, Meter.Cross charged %+v", frozen, id, got, want)
			}
		}
		if path.Load() != 3 || edge.Load() != 3 {
			t.Errorf("domain %d frozen: counters %d and %d after 3 crossings", frozen, path.Load(), edge.Load())
		}
	}
}

// TestPendingPublishAfterFreezeIsDropped: steps and calls booked before an
// account froze and published after it are dropped; the live side's land.
func TestPendingPublishAfterFreezeIsDropped(t *testing.T) {
	m := NewMeter()
	a, b := m.Account(1), m.Account(2)
	var p Pending
	p.Steps(a, 10)
	p.Steps(b, 20)
	p.Cross(b, 5, nil, nil)
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
	m := NewMeter()
	var p Pending
	var cells [3]atomic.Int64
	const accounts = 3*pendingSlots + 1
	for round := 0; round < 3; round++ {
		for id := int64(1); id <= accounts; id++ {
			p.Steps(m.Account(id), id)
			p.Cross(m.Account(id), 2*id, &cells[id%3], nil)
		}
	}
	p.Publish()
	if p.Work() != 0 {
		t.Errorf("work %d after Publish", p.Work())
	}
	var calls int64
	for id := int64(1); id <= accounts; id++ {
		s := m.Snapshot(id)
		if s.Steps != 3*id || s.CrossCalls != 3 || s.CopyBytes != 3*2*id {
			t.Errorf("domain %d: %+v, want steps %d, 3 calls, copy bytes %d", id, s, 3*id, 3*2*id)
		}
	}
	for i := range cells {
		calls += cells[i].Load()
	}
	if calls != 3*accounts {
		t.Errorf("counters hold %d calls, want %d", calls, 3*accounts)
	}
}
