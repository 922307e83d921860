package account

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestBasicCharges(t *testing.T) {
	m := NewMeter(ChargeCaller)
	m.Account(1).Alloc(100)
	m.Account(1).Alloc(50)
	m.Account(1).Steps(7)
	m.Account(2).Class(300)
	s1 := m.Snapshot(1)
	if s1.AllocBytes != 150 || s1.Steps != 7 {
		t.Errorf("domain1 = %+v", s1)
	}
	if m.Snapshot(2).ClassBytes != 300 {
		t.Errorf("domain2 = %+v", m.Snapshot(2))
	}
	if m.Snapshot(99) != (Stats{}) {
		t.Error("unknown domain should be zero")
	}
}

func TestCopyPolicies(t *testing.T) {
	cases := []struct {
		policy                 CopyPolicy
		wantCaller, wantCallee int64
	}{
		{ChargeCaller, 101, 0},
		{ChargeCallee, 0, 101},
		{ChargeSplit, 51, 50},
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			m := NewMeter(tc.policy)
			m.CrossCall(1, 2, 101)
			if got := m.Snapshot(1).CopyBytes; got != tc.wantCaller {
				t.Errorf("caller copy = %d, want %d", got, tc.wantCaller)
			}
			if got := m.Snapshot(2).CopyBytes; got != tc.wantCallee {
				t.Errorf("callee copy = %d, want %d", got, tc.wantCallee)
			}
			if m.Snapshot(1).CrossCalls != 1 {
				t.Error("cross call not counted")
			}
		})
	}
}

// Conservation: whatever the policy, total copy charges equal total bytes.
func TestCopyConservationProperty(t *testing.T) {
	f := func(seed int64, policyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := CopyPolicy(policyRaw % 3)
		m := NewMeter(policy)
		var want int64
		for i := 0; i < 50; i++ {
			caller := int64(rng.Intn(4) + 1)
			callee := int64(rng.Intn(4) + 5)
			bytes := int64(rng.Intn(10000))
			m.CrossCall(caller, callee, bytes)
			want += bytes
		}
		return m.GrandTotal(func(s Stats) int64 { return s.CopyBytes }) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreezeStopsCharges(t *testing.T) {
	m := NewMeter(ChargeCaller)
	m.Account(1).Alloc(10)
	m.Account(1).Freeze()
	m.Account(1).Alloc(10)
	m.Account(1).Steps(10)
	m.Account(1).Class(10)
	s := m.Snapshot(1)
	if s.AllocBytes != 10 || s.Steps != 0 || s.ClassBytes != 0 {
		t.Errorf("frozen domain accrued charges: %+v", s)
	}

	// A call in flight when its caller (or callee) was terminated bills the
	// dead account nothing on return; the live side still pays its share.
	for _, tc := range []struct {
		policy     CopyPolicy
		frozen     int64
		wantCaller int64
		wantCallee int64
	}{
		{ChargeCaller, 1, 0, 0},
		{ChargeCaller, 2, 101, 0},
		{ChargeCallee, 1, 0, 101},
		{ChargeCallee, 2, 0, 0},
		{ChargeSplit, 1, 0, 50},
		{ChargeSplit, 2, 51, 0},
	} {
		m := NewMeter(tc.policy)
		m.Account(tc.frozen).Freeze()
		m.CrossCall(1, 2, 101)
		caller, callee := m.Snapshot(1), m.Snapshot(2)
		if caller.CopyBytes != tc.wantCaller || callee.CopyBytes != tc.wantCallee {
			t.Errorf("%v, domain %d frozen: copy bytes caller %d callee %d, want %d and %d",
				tc.policy, tc.frozen, caller.CopyBytes, callee.CopyBytes, tc.wantCaller, tc.wantCallee)
		}
		if wantCalls := tc.frozen - 1; caller.CrossCalls != wantCalls { // a frozen caller counts no call either
			t.Errorf("%v, domain %d frozen: caller cross calls = %d, want %d", tc.policy, tc.frozen, caller.CrossCalls, wantCalls)
		}
	}
}

// TestChargeTakesNoLock pins the charge path: once an account exists,
// charging it — by pointer or by id — never waits for the meter's mutex.
func TestChargeTakesNoLock(t *testing.T) {
	m := NewMeter(ChargeSplit)
	a, b := m.Account(1), m.Account(2)
	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			m.Account(1).Steps(1)
			m.Account(1).Alloc(1)
			m.Account(2).Class(1)
			m.CrossCall(1, 2, 2)
			m.Cross(a, b, 2)
			m.Snapshot(1)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("charges did not finish with the meter's mutex held: a charge takes the lock")
	}
}

// TestConcurrentChargesConserve: eight goroutines charge crossings between
// overlapping domains, some of them first seen mid-run, under every policy;
// once they are done the copy bytes on the books are the bytes charged. Run
// it under -race.
func TestConcurrentChargesConserve(t *testing.T) {
	for _, policy := range []CopyPolicy{ChargeCaller, ChargeCallee, ChargeSplit} {
		t.Run(policy.String(), func(t *testing.T) {
			m := NewMeter(policy)
			var want atomic.Int64
			var wg sync.WaitGroup
			for g := int64(0); g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int64(0); i < 2000; i++ {
						bytes := i%7 + g
						m.CrossCall(g%3+1, i/500+10, bytes)
						want.Add(bytes)
					}
				}()
			}
			wg.Wait()
			if got := m.GrandTotal(func(s Stats) int64 { return s.CopyBytes }); got != want.Load() {
				t.Errorf("copy bytes on the books = %d, charged %d", got, want.Load())
			}
			if got := m.GrandTotal(func(s Stats) int64 { return s.CrossCalls }); got != 8*2000 {
				t.Errorf("cross calls = %d, want %d", got, 8*2000)
			}
		})
	}
}

func TestDomainsSorted(t *testing.T) {
	m := NewMeter(ChargeCaller)
	m.Account(3).Alloc(1)
	m.Account(1).Alloc(1)
	m.Account(2).Alloc(1)
	ids := m.Domains()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("Domains() = %v", ids)
	}
}

func TestConcurrentCharging(t *testing.T) {
	m := NewMeter(ChargeSplit)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Account(1).Alloc(1)
				m.CrossCall(1, 2, 2)
			}
		}()
	}
	wg.Wait()
	if got := m.Snapshot(1).AllocBytes; got != 8000 {
		t.Errorf("alloc = %d, want 8000", got)
	}
	total := m.GrandTotal(func(s Stats) int64 { return s.CopyBytes })
	if total != 16000 {
		t.Errorf("copy total = %d, want 16000", total)
	}
}
