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
	m := NewMeter()
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

// TestCopyPolicies: one policy is left, the caller's. The caller pays for
// the bytes a crossing copies and counts the call; the callee pays nothing.
func TestCopyPolicies(t *testing.T) {
	t.Run("caller", func(t *testing.T) {
		m := NewMeter()
		m.CrossCall(1, 2, 101)
		if got := m.Snapshot(1); got.CopyBytes != 101 || got.CrossCalls != 1 {
			t.Errorf("caller = %+v, want 101 copy bytes and 1 call", got)
		}
		if got := m.Snapshot(2); got != (Stats{}) {
			t.Errorf("callee = %+v, want nothing", got)
		}
	})
}

// Conservation: total copy charges equal total bytes.
func TestCopyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMeter()
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
	m := NewMeter()
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
		frozen     int64
		wantCaller int64
		wantCallee int64
	}{
		{1, 0, 0},
		{2, 101, 0},
	} {
		m := NewMeter()
		m.Account(tc.frozen).Freeze()
		m.CrossCall(1, 2, 101)
		caller, callee := m.Snapshot(1), m.Snapshot(2)
		if caller.CopyBytes != tc.wantCaller || callee.CopyBytes != tc.wantCallee {
			t.Errorf("domain %d frozen: copy bytes caller %d callee %d, want %d and %d",
				tc.frozen, caller.CopyBytes, callee.CopyBytes, tc.wantCaller, tc.wantCallee)
		}
		if wantCalls := tc.frozen - 1; caller.CrossCalls != wantCalls { // a frozen caller counts no call either
			t.Errorf("domain %d frozen: caller cross calls = %d, want %d", tc.frozen, caller.CrossCalls, wantCalls)
		}
	}
}

// TestChargeTakesNoLock pins the charge path: once an account exists,
// charging it — by pointer or by id — never waits for the meter's mutex.
func TestChargeTakesNoLock(t *testing.T) {
	m := NewMeter()
	a := m.Account(1)
	m.Account(2)
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
			m.Cross(a, 2)
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
// overlapping domains, some of them first seen mid-run, under the caller's
// policy; once they are done the copy bytes on the books are the bytes
// charged. Run it under -race.
func TestConcurrentChargesConserve(t *testing.T) {
	t.Run("caller", func(t *testing.T) {
		m := NewMeter()
		var want atomic.Int64
		var wg sync.WaitGroup
		for g := int64(0); g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < 2000; i++ {
					bytes := i%7 + g
					m.CrossCall(g%3+i/500+1, 10, bytes)
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

func TestDomainsSorted(t *testing.T) {
	m := NewMeter()
	m.Account(3).Alloc(1)
	m.Account(1).Alloc(1)
	m.Account(2).Alloc(1)
	ids := m.Domains()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("Domains() = %v", ids)
	}
}

func TestConcurrentCharging(t *testing.T) {
	m := NewMeter()
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
