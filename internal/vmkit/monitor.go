package vmkit

import (
	"sync"
	"sync/atomic"
)

// monitor is an object's side struct: its per-object recursive lock
// (monitorenter/monitorexit and synchronized methods), whose owners are VM
// threads, and its identity hash. An object has none until its first
// monitorenter or its first hashCode (see inflate), so the objects that
// are never locked or hashed — nearly all of them — carry one pointer for
// both.
type monitor struct {
	mu    sync.Mutex
	cv    sync.Cond
	owner *Thread
	depth int

	// hash is the identity hash, 0 until the first hashCode assigns it
	// (see identityHash).
	hash atomic.Int64
}

// inflate returns o's side struct, installing a fresh one if o has none.
// Of threads racing to install, one CAS wins and every thread uses its
// struct.
func (o *Object) inflate() *monitor {
	if m := o.mon.Load(); m != nil {
		return m
	}
	m := new(monitor)
	m.cv.L = &m.mu
	if o.mon.CompareAndSwap(nil, m) {
		return m
	}
	return o.mon.Load()
}

// Enter blocks until the calling thread owns the monitor.
func (o *Object) monEnter(t *Thread) {
	m := o.inflate()
	m.mu.Lock()
	for m.owner != nil && m.owner != t {
		m.cv.Wait()
	}
	m.owner = t
	m.depth++
	m.mu.Unlock()
	if t.VM.Profile.HeavyLocks {
		t.VM.lockStatRecord(o)
	}
}

// monExit releases one level of the monitor. It returns false when the
// calling thread does not own the monitor (IllegalMonitorState).
func (o *Object) monExit(t *Thread) bool {
	m := o.mon.Load()
	if m == nil {
		return false
	}
	m.mu.Lock()
	if m.owner != t || m.depth == 0 {
		m.mu.Unlock()
		return false
	}
	m.depth--
	if m.depth == 0 {
		m.owner = nil
		m.cv.Signal()
	}
	m.mu.Unlock()
	if t.VM.Profile.HeavyLocks {
		t.VM.lockStatRecord(o)
	}
	return true
}

// MonitorOwner returns the owning thread for tests (nil when unlocked).
// It installs no monitor.
func (o *Object) MonitorOwner() *Thread {
	m := o.mon.Load()
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owner
}
