package vmkit

import "sync"

// monitor implements per-object recursive locks (monitorenter/monitorexit
// and synchronized methods). Owners are VM threads. An object has no
// monitor until its first monitorenter (see inflate), so the objects that
// are never locked — nearly all of them — carry one pointer for it.
type monitor struct {
	mu    sync.Mutex
	cv    sync.Cond
	owner *Thread
	depth int
}

// inflate returns o's monitor, installing a fresh one if o has none. Of
// threads racing to install, one CAS wins and every thread uses its
// monitor.
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
