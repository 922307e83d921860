// Package sched is the cluster control plane of the remote playground: it
// sits between the HTTP bridge (internal/httpd) and the worker kernel
// pool (internal/remote) and owns the three policies the mechanisms below
// it deliberately left open —
//
//   - placement: which worker kernel hosts each servlet (pluggable
//     Strategy: least-loaded or consistent-hash);
//   - autoscaling: how many workers exist, grown and shrunk between
//     Min/Max bounds from the mean wire queue depth per worker, with
//     hysteresis and a cooldown so the pool does not flap;
//   - health: a periodic probe per worker; an unhealthy worker drains (no
//     new placements, in-flight calls finish), a crashed worker's
//     servlets are re-placed onto survivors, and a restarted worker
//     rejoins — and, under a sticky strategy, attracts its servlets back
//     — once it passes the readiness probe.
//
// The scheduler installs itself as the bridge's Control: uploads are
// sharded across workers, terminations route to the owning worker, and a
// capability fault observed by the bridge triggers re-placement. Every
// decision (placement, move, drain, scale event) lands in the kernel's
// telemetry event log and gauges, so /debug/jk shows the control plane's
// state live.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/remote"
	"jkernel/internal/telemetry"
)

// Options configures Start.
type Options struct {
	// Kernel is the front (supervisor) kernel hosting the bridge.
	Kernel *core.Kernel
	// Bridge is the HTTP bridge the scheduler mounts servlets on. The
	// scheduler installs itself as its Control.
	Bridge *httpd.Bridge
	// Pool configures the worker pool the scheduler starts and owns.
	// Workers is overridden by MinWorkers.
	Pool remote.PoolOptions
	// MinWorkers and MaxWorkers bound the pool size (defaults 1 and
	// max(MinWorkers, 1)). The autoscaler moves inside these bounds.
	MinWorkers, MaxWorkers int
	// Strategy places servlets (default LeastLoaded).
	Strategy Strategy
	// ProbeInterval paces the health loop (default 250ms). The
	// autoscaler's evaluation interval and cooldown are multiples of it.
	ProbeInterval time.Duration
	// Autoscale switches the feedback loop off.
	Autoscale AutoscaleConfig
	// Log, when set, receives control-plane decisions (also in telemetry).
	Log func(format string, args ...any)
}

// The control plane's health and RPC bounds.
const (
	// probeTimeout bounds one health probe, a protocol ping.
	probeTimeout = 2 * time.Second
	// deadAfter is how many consecutive probe failures turn a draining
	// worker into a dead one.
	deadAfter = 2
	// dialTimeout bounds a worker (re)connect.
	dialTimeout = 10 * time.Second
	// deployTimeout bounds one deploy or undeploy RPC.
	deployTimeout = 10 * time.Second
)

// memberState is the drain state machine of one worker:
//
//	starting ──ready──▶ ready ──probe fail──▶ draining ──deadAfter──▶ dead
//	   ▲                  ▲                      │                      │
//	   │                  └──────probe ok────────┘                      │
//	   └────────────────── reconnect + readiness ◀──────────────────────┘
//
// An admin drain (Drain, or a scale-down pick) overlays the state: the
// worker takes no new placements regardless of health, and a removing
// worker is evacuated and reaped once empty.
type memberState int

const (
	stateStarting memberState = iota
	stateReady
	stateDraining
	stateDead
)

func (st memberState) String() string {
	switch st {
	case stateStarting:
		return "starting"
	case stateReady:
		return "ready"
	case stateDraining:
		return "draining"
	default:
		return "dead"
	}
}

// member is one worker kernel under management.
type member struct {
	w          *remote.PoolWorker
	state      memberState
	adminDrain bool // operator drain: sticky until Undrain or removal
	removing   bool // scale-down: evacuate, then reap the slot
	fails      int  // consecutive probe failures
	connecting bool // one async (re)connect in flight
	teardowns  int  // moved-off instances not yet undeployed (reap waits)
	conn       *remote.Conn
	deployer   *core.Capability
}

// placeable reports whether new placements may land on m.
func (m *member) placeable() bool {
	return m.state == stateReady && !m.adminDrain && !m.removing
}

// placementRec is one servlet the control plane owns.
type placementRec struct {
	name, prefix string
	spec         DeploySpec
	worker       int // owning worker index; -1 = unplaced (awaiting repair)
	cap          *core.Capability
	placing      bool // a place/move RPC is in flight
}

// Scheduler is the cluster control plane. Create one with Start.
type Scheduler struct {
	opts   Options
	k      *core.Kernel
	bridge *httpd.Bridge
	pool   *remote.Pool
	reg    *telemetry.Registry
	dom    *core.Domain // the control plane's own; its idle tasks make the RPCs

	mu         sync.Mutex
	members    map[int]*member // by pool slot index
	placements map[string]*placementRec

	// autoscaler state (loop goroutine only).
	lastScaleEval time.Time
	lastScale     time.Time
	lowTicks      int

	done      chan struct{}
	kickCh    chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	cPlace, cReplace, cMove, cUp, cDown, cDrain *telemetry.Counter
}

// Start launches the control plane: it spawns the worker pool at
// MinWorkers, connects to every worker, installs itself on the bridge,
// and starts the health/autoscale loop. At least one worker must pass
// readiness or Start fails and tears the pool down.
func Start(opts Options) (*Scheduler, error) {
	if opts.Kernel == nil || opts.Bridge == nil {
		return nil, errors.New("sched: Options.Kernel and Options.Bridge are required")
	}
	if opts.MinWorkers <= 0 {
		opts.MinWorkers = 1
	}
	if opts.MaxWorkers < opts.MinWorkers {
		opts.MaxWorkers = opts.MinWorkers
	}
	if opts.Strategy == nil {
		opts.Strategy = LeastLoaded()
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	RegisterWireTypes(opts.Kernel)

	opts.Pool.Workers = opts.MinWorkers
	pool, err := remote.StartPool(opts.Pool)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		opts:       opts,
		k:          opts.Kernel,
		bridge:     opts.Bridge,
		pool:       pool,
		reg:        opts.Kernel.Telemetry(),
		members:    map[int]*member{},
		placements: map[string]*placementRec{},
		done:       make(chan struct{}),
		kickCh:     make(chan struct{}, 1),
	}
	dom, err := opts.Kernel.NewDomain(core.DomainConfig{Name: "sched"})
	if err != nil {
		pool.Close()
		return nil, err
	}
	s.dom = dom
	s.cPlace = s.reg.Counter("sched.placements.total")
	s.cReplace = s.reg.Counter("sched.replacements")
	s.cMove = s.reg.Counter("sched.moves")
	s.cUp = s.reg.Counter("sched.scale.up")
	s.cDown = s.reg.Counter("sched.scale.down")
	s.cDrain = s.reg.Counter("sched.drains")
	s.reg.GaugeFunc("sched.workers", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.members))
	})
	s.reg.GaugeFunc("sched.workers.ready", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, m := range s.members {
			if m.placeable() {
				n++
			}
		}
		return n
	})
	s.reg.GaugeFunc("sched.placements", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.placements))
	})

	for _, w := range pool.Workers() {
		s.addMemberLocked(w) // no contention yet: loop not started
	}

	// First connect wave, in parallel; workers spawn concurrently and a
	// fresh exec+listen takes a moment each.
	var wg sync.WaitGroup
	for _, m := range s.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			s.connectNow(m)
		}(m)
	}
	wg.Wait()
	readyN := 0
	for _, m := range s.members {
		if m.state == stateReady {
			readyN++
		}
	}
	if readyN == 0 {
		pool.Close()
		return nil, errors.New("sched: no worker passed readiness")
	}

	opts.Bridge.SetControl(s)
	s.wg.Add(1)
	go s.run()
	s.eventf("control plane up: %d/%d workers ready, strategy %s",
		readyN, opts.MinWorkers, opts.Strategy.Name())
	return s, nil
}

// addMemberLocked registers a pool slot as a managed member.
func (s *Scheduler) addMemberLocked(w *remote.PoolWorker) *member {
	m := &member{w: w, state: stateStarting}
	s.members[w.Index] = m
	return m
}

// eventf records a control-plane decision in telemetry and the Log hook.
func (s *Scheduler) eventf(format string, args ...any) {
	s.reg.Eventf("sched: "+format, args...)
	s.opts.Log(format, args...)
}

// kick wakes the control loop early (placement lost, member died).
func (s *Scheduler) kick() {
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// Pool exposes the managed worker pool (failure drills kill its workers).
func (s *Scheduler) Pool() *remote.Pool { return s.pool }

// Close tears the control plane down: loop stopped, bridge detached,
// connections closed, pool killed. Mounted routes are left in place; the
// owning bridge usually outlives its scheduler only in tests.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.bridge.SetControl(nil)
		s.mu.Lock()
		conns := make([]*remote.Conn, 0, len(s.members))
		for _, m := range s.members {
			if m.conn != nil {
				conns = append(conns, m.conn)
			}
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		s.pool.Close()
	})
}

// --- connection management --------------------------------------------------

// connectNow dials a member's worker and imports its deployer, marking it
// ready on success. Blocking; callers decide whether to background it.
func (s *Scheduler) connectNow(m *member) {
	conn, err := m.w.Dial(s.k, dialTimeout)
	if err != nil {
		s.mu.Lock()
		m.connecting = false
		if m.state != stateDead {
			m.state = stateDead
		}
		s.mu.Unlock()
		s.eventf("worker %d unreachable: %v", m.w.Index, err)
		return
	}
	dep, err := conn.Import(DeployerExport)
	if err != nil {
		conn.Close()
		s.mu.Lock()
		m.connecting = false
		m.state = stateDead
		s.mu.Unlock()
		s.eventf("worker %d has no deployer (%v) — is ServeWorker in its setup?", m.w.Index, err)
		return
	}
	s.mu.Lock()
	m.connecting = false
	if m.removing {
		s.mu.Unlock()
		conn.Close()
		return
	}
	m.conn, m.deployer = conn, dep
	m.state = stateReady
	m.fails = 0
	s.mu.Unlock()
	go func() {
		<-conn.Done()
		s.onConnDown(m, conn)
	}()
	s.eventf("worker %d ready", m.w.Index)
	s.kick()
}

// onConnDown reacts to a lost worker connection: the member is dead and
// its servlets need a new home now, not at the next probe.
func (s *Scheduler) onConnDown(m *member, conn *remote.Conn) {
	s.mu.Lock()
	if m.conn == conn {
		s.declareDeadLocked(m, "connection lost")
	}
	s.mu.Unlock()
	s.kick()
}

// declareDeadLocked transitions a member to dead and orphans its
// placements so repair re-places them onto survivors.
func (s *Scheduler) declareDeadLocked(m *member, cause string) {
	if m.state == stateDead {
		return
	}
	m.state = stateDead
	if m.conn != nil {
		// Close triggers onConnDown asynchronously; the m.conn==nil store
		// below makes it a no-op.
		go m.conn.Close()
	}
	m.conn, m.deployer = nil, nil
	lost := 0
	for _, p := range s.placements {
		if p.worker == m.w.Index {
			p.worker, p.cap = -1, nil
			lost++
		}
	}
	s.eventf("worker %d dead (%s); %d servlet(s) orphaned", m.w.Index, cause, lost)
}

// --- the control loop -------------------------------------------------------

func (s *Scheduler) run() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-s.kickCh:
		case <-t.C:
		}
		s.probe()
		s.reconnect()
		s.repair()
		s.rebalance()
		s.autoscale()
		s.reap()
	}
}

// probe pings every connected member and advances the drain state
// machine: ready → draining on the first failure, draining → dead after
// deadAfter consecutive failures, draining → ready on recovery.
func (s *Scheduler) probe() {
	s.mu.Lock()
	type probeTarget struct {
		m    *member
		conn *remote.Conn
	}
	var targets []probeTarget
	for _, m := range s.members {
		if m.conn != nil && (m.state == stateReady || m.state == stateDraining) {
			targets = append(targets, probeTarget{m, m.conn})
		}
	}
	s.mu.Unlock()

	results := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, conn *remote.Conn) {
			defer wg.Done()
			results[i] = conn.Ping(probeTimeout)
		}(i, t.conn)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, t := range targets {
		m := t.m
		if m.conn != t.conn {
			continue // reconnected or died while we probed
		}
		if results[i] == nil {
			m.fails = 0
			if m.state == stateDraining {
				m.state = stateReady
				s.eventf("worker %d recovered; serving again", m.w.Index)
			}
			continue
		}
		m.fails++
		if m.state == stateReady {
			m.state = stateDraining
			s.cDrain.Inc()
			s.eventf("worker %d unhealthy (%v); draining", m.w.Index, results[i])
		}
		if m.fails >= deadAfter {
			s.declareDeadLocked(m, fmt.Sprintf("%d failed probes", m.fails))
		}
	}
}

// reconnect starts one background (re)connect per disconnected member.
// The pool supervisor restarts crashed processes on its own; this side
// just keeps knocking until the new process answers the readiness
// handshake.
func (s *Scheduler) reconnect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.members {
		if m.conn == nil && !m.connecting && !m.removing &&
			(m.state == stateDead || m.state == stateStarting) {
			m.connecting = true
			go s.connectNow(m)
		}
	}
}

// repair re-places orphaned servlets onto surviving workers.
func (s *Scheduler) repair() {
	for {
		s.mu.Lock()
		var target *placementRec
		for _, p := range s.placements {
			if p.worker == -1 && !p.placing {
				target = p
				break
			}
		}
		s.mu.Unlock()
		if target == nil {
			return
		}
		if err := s.place(target); err != nil {
			// No ready workers or every deploy failed; next tick retries.
			return
		}
		s.cReplace.Inc()
	}
}

// --- placement --------------------------------------------------------------

// Deploy instantiates a servlet somewhere in the pool and mounts it on
// the bridge. The strategy picks the worker; a worker crash later moves
// the servlet automatically.
func (s *Scheduler) Deploy(name, prefix string, spec DeploySpec) error {
	spec.Name = name
	s.mu.Lock()
	if _, dup := s.placements[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("sched: servlet %q already deployed", name)
	}
	p := &placementRec{name: name, prefix: prefix, spec: spec, worker: -1}
	s.placements[name] = p
	s.mu.Unlock()
	if err := s.place(p); err != nil {
		s.mu.Lock()
		if s.placements[name] == p {
			delete(s.placements, name)
		}
		s.mu.Unlock()
		return err
	}
	return nil
}

// Terminate undeploys a servlet cluster-wide: route unmounted, worker
// domain terminated, proxy released.
func (s *Scheduler) Terminate(name string) error {
	s.mu.Lock()
	p := s.placements[name]
	if p == nil {
		s.mu.Unlock()
		return fmt.Errorf("sched: no servlet %q", name)
	}
	delete(s.placements, name)
	m := s.members[p.worker]
	cap := p.cap
	s.mu.Unlock()
	s.bridge.Router.Unmount(name)
	if m != nil {
		s.undeployOn(m, name)
	}
	if cap != nil {
		remote.ReleaseProxy(cap)
	}
	s.eventf("servlet %q terminated", name)
	return nil
}

// pickMember runs the strategy over the placeable members, excluding
// losers of earlier attempts. Returns nil when no worker qualifies.
func (s *Scheduler) pickMember(servlet string, exclude map[int]bool) *member {
	s.mu.Lock()
	defer s.mu.Unlock()
	views, byView := s.viewsLocked(exclude)
	if len(views) == 0 {
		return nil
	}
	i := s.opts.Strategy.Pick(servlet, views)
	if i < 0 || i >= len(views) {
		return nil
	}
	return byView[i]
}

// viewsLocked snapshots placeable members as strategy input.
func (s *Scheduler) viewsLocked(exclude map[int]bool) ([]MemberView, []*member) {
	counts := map[int]int{}
	for _, p := range s.placements {
		if p.worker >= 0 {
			counts[p.worker]++
		}
	}
	var views []MemberView
	var byView []*member
	// Stable iteration keeps strategies deterministic.
	idxs := make([]int, 0, len(s.members))
	for i := range s.members {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		m := s.members[i]
		if !m.placeable() || exclude[i] {
			continue
		}
		views = append(views, MemberView{
			Worker:     i,
			InFlight:   m.conn.PendingCalls(),
			Placements: counts[i],
		})
		byView = append(byView, m)
	}
	return views, byView
}

// place finds a home for an unplaced servlet: pick, deploy RPC, mount.
// Failed workers are excluded and the next candidate tried.
func (s *Scheduler) place(p *placementRec) error {
	s.mu.Lock()
	if p.placing {
		s.mu.Unlock()
		return nil
	}
	p.placing = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		p.placing = false
		s.mu.Unlock()
	}()

	exclude := map[int]bool{}
	var lastErr error = errors.New("no ready workers")
	for attempt := 0; attempt < 8; attempt++ {
		m := s.pickMember(p.name, exclude)
		if m == nil {
			return fmt.Errorf("sched: cannot place %q: %w", p.name, lastErr)
		}
		cap, err := s.deployOn(m, p.spec)
		if err != nil {
			lastErr = err
			exclude[m.w.Index] = true
			continue
		}
		s.mu.Lock()
		if s.placements[p.name] != p {
			// Terminated while the RPC ran; roll the deploy back.
			s.mu.Unlock()
			s.undeployOn(m, p.name)
			return nil
		}
		p.worker = m.w.Index
		p.cap = cap
		s.mu.Unlock()
		if _, err := s.bridge.Router.Remount(p.name, p.prefix, cap); err != nil {
			s.mu.Lock()
			p.worker, p.cap = -1, nil
			s.mu.Unlock()
			s.undeployOn(m, p.name)
			return fmt.Errorf("sched: mount %q: %w", p.name, err)
		}
		s.cPlace.Inc()
		s.eventf("servlet %q placed on worker %d (%s)", p.name, m.w.Index, s.opts.Strategy.Name())
		return nil
	}
	return fmt.Errorf("sched: cannot place %q: %w", p.name, lastErr)
}

// deployOn runs one Deploy RPC against a member, bounded by
// deployTimeout so a wedged worker cannot stall the control plane.
//
//jk:blocking
func (s *Scheduler) deployOn(m *member, spec DeploySpec) (*core.Capability, error) {
	s.mu.Lock()
	conn, dep := m.conn, m.deployer
	s.mu.Unlock()
	if conn == nil || dep == nil {
		return nil, errors.New("worker not connected")
	}
	task := s.dom.GetTask()
	defer s.dom.PutTask(task)
	fut := dep.InvokeAsyncFrom(task, "Deploy", &spec)
	conn.Flush()
	select {
	case <-fut.Done():
	case <-time.After(deployTimeout):
		fut.Cancel()
		return nil, fmt.Errorf("deploy of %q timed out after %v", spec.Name, deployTimeout)
	}
	res, err := fut.Wait()
	if err != nil {
		return nil, err
	}
	var cap *core.Capability
	if len(res) > 0 {
		cap, _ = res[0].(*core.Capability)
	}
	if cap == nil {
		return nil, errors.New("deployer returned no capability")
	}
	return cap, nil
}

// undeployOn is the best-effort inverse: terminate the servlet's domain
// on its (possibly dying) worker.
//
//jk:blocking
func (s *Scheduler) undeployOn(m *member, name string) {
	s.mu.Lock()
	conn, dep := m.conn, m.deployer
	s.mu.Unlock()
	if conn == nil || dep == nil {
		return
	}
	task := s.dom.GetTask()
	defer s.dom.PutTask(task)
	fut := dep.InvokeAsyncFrom(task, "Undeploy", name)
	conn.Flush()
	select {
	case <-fut.Done():
	case <-time.After(deployTimeout):
		fut.Cancel()
	}
}

// rebalance moves servlets when the membership has drifted from what the
// strategy wants: a sticky strategy pulls every servlet to its preferred
// worker (a restarted worker attracts its consistent-hash shard back); a
// non-sticky strategy only evacuates workers being removed and smooths
// placement-count imbalance beyond one.
func (s *Scheduler) rebalance() {
	type move struct {
		p  *placementRec
		to *member
	}
	var moves []move

	s.mu.Lock()
	views, byView := s.viewsLocked(nil)
	if len(views) == 0 {
		s.mu.Unlock()
		return
	}
	names := make([]string, 0, len(s.placements))
	for n := range s.placements {
		names = append(names, n)
	}
	sort.Strings(names)
	counts := map[int]int{}
	for _, p := range s.placements {
		if p.worker >= 0 {
			counts[p.worker]++
		}
	}
	for _, n := range names {
		p := s.placements[n]
		if p.worker < 0 || p.placing {
			continue // repair's job
		}
		cur := s.members[p.worker]
		evacuate := cur == nil || cur.removing
		if s.opts.Strategy.Sticky() {
			i := s.opts.Strategy.Pick(p.name, views)
			if i >= 0 && views[i].Worker != p.worker {
				moves = append(moves, move{p, byView[i]})
			} else if evacuate && i >= 0 {
				moves = append(moves, move{p, byView[i]})
			}
			continue
		}
		if evacuate {
			i := s.opts.Strategy.Pick(p.name, views)
			if i >= 0 {
				moves = append(moves, move{p, byView[i]})
				counts[p.worker]--
				counts[views[i].Worker]++
			}
			continue
		}
		// Imbalance smoothing: move only when it strictly helps.
		minC := counts[views[0].Worker]
		minI := 0
		for i, v := range views {
			if counts[v.Worker] < minC {
				minC, minI = counts[v.Worker], i
			}
		}
		if counts[p.worker] > minC+1 && views[minI].Worker != p.worker {
			moves = append(moves, move{p, byView[minI]})
			counts[p.worker]--
			counts[views[minI].Worker]++
		}
	}
	for _, mv := range moves {
		mv.p.placing = true
	}
	s.mu.Unlock()

	for _, mv := range moves {
		s.movePlacement(mv.p, mv.to)
	}
}

// movePlacement deploys p on its new worker, swaps the mount, and
// undeploys the old instance once no request is in flight on the old
// route, so a request that resolved the old route before the swap finishes
// there instead of meeting a torn-down instance or connection.
func (s *Scheduler) movePlacement(p *placementRec, to *member) {
	defer func() {
		s.mu.Lock()
		p.placing = false
		s.mu.Unlock()
	}()
	cap, err := s.deployOn(to, p.spec)
	if err != nil {
		s.eventf("move of %q to worker %d failed: %v", p.name, to.w.Index, err)
		return
	}
	s.mu.Lock()
	if s.placements[p.name] != p {
		s.mu.Unlock()
		s.undeployOn(to, p.name)
		return
	}
	from := s.members[p.worker]
	oldCap := p.cap
	p.worker = to.w.Index
	p.cap = cap
	s.mu.Unlock()
	old, err := s.bridge.Router.Remount(p.name, p.prefix, cap)
	if err != nil {
		s.eventf("re-mount of %q failed: %v", p.name, err)
		return
	}
	s.cMove.Inc()
	s.eventf("servlet %q moved to worker %d", p.name, to.w.Index)
	if from == nil && oldCap == nil {
		return
	}
	// The control loop runs reap after this returns, so from is busy by
	// then and keeps its connection until the teardown is done.
	s.mu.Lock()
	if from != nil {
		from.teardowns++
	}
	s.mu.Unlock()
	go func() {
		// Grace: let the requests in flight on the old route finish.
		deadline := time.Now().Add(2 * time.Second)
		for old != nil && old.InFlight() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if from != nil {
			s.undeployOn(from, p.name)
			s.mu.Lock()
			from.teardowns--
			s.mu.Unlock()
		}
		if oldCap != nil {
			remote.ReleaseProxy(oldCap)
		}
	}()
}

// --- admin ------------------------------------------------------------------

// Drain marks a worker as draining (on=true): it keeps serving what it
// has, but receives no new placements until undrained.
func (s *Scheduler) Drain(worker int, on bool) error {
	s.mu.Lock()
	m := s.members[worker]
	if m == nil {
		s.mu.Unlock()
		return fmt.Errorf("sched: no worker %d", worker)
	}
	m.adminDrain = on
	s.mu.Unlock()
	if on {
		s.cDrain.Inc()
		s.eventf("worker %d drained by admin", worker)
	} else {
		s.eventf("worker %d undrained", worker)
	}
	s.kick()
	return nil
}

// RemoveWorker drains a worker, moves its servlets off, and removes the
// slot once it is empty. Asynchronous: the control loop finishes the job.
func (s *Scheduler) RemoveWorker(worker int) error {
	s.mu.Lock()
	m := s.members[worker]
	if m == nil {
		s.mu.Unlock()
		return fmt.Errorf("sched: no worker %d", worker)
	}
	others := 0
	for i, o := range s.members {
		if i != worker && !o.removing {
			others++
		}
	}
	if others == 0 {
		s.mu.Unlock()
		return errors.New("sched: refusing to remove the last worker")
	}
	m.adminDrain = true
	m.removing = true
	s.mu.Unlock()
	s.eventf("worker %d marked for removal", worker)
	s.kick()
	return nil
}

// reap finishes pending removals: once a removing member has no
// placements, no instance left to tear down and no in-flight calls, its
// connection closes and the pool slot is deleted.
func (s *Scheduler) reap() {
	s.mu.Lock()
	var victims []*member
	for idx, m := range s.members {
		if !m.removing {
			continue
		}
		busy := false
		for _, p := range s.placements {
			if p.worker == idx || (p.placing && p.worker == -1) {
				busy = true
				break
			}
		}
		if busy || m.teardowns > 0 {
			continue
		}
		if m.conn != nil && m.conn.PendingCalls() > 0 {
			continue
		}
		victims = append(victims, m)
	}
	s.mu.Unlock()
	for _, m := range victims {
		s.mu.Lock()
		conn := m.conn
		m.conn, m.deployer = nil, nil
		m.state = stateDead
		s.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		if err := s.pool.Remove(m.w, 2*time.Second); err != nil {
			s.eventf("worker %d removal pending: %v", m.w.Index, err)
			continue // other clients still hold conns; retry next tick
		}
		s.mu.Lock()
		delete(s.members, m.w.Index)
		s.mu.Unlock()
		s.eventf("worker %d removed", m.w.Index)
	}
}

// --- bridge Control ---------------------------------------------------------

// UploadServlet shards an admin upload across the pool: the bundle
// becomes a portable DeploySpec and the strategy picks the worker.
func (s *Scheduler) UploadServlet(name, prefix, main string, bundle map[string][]byte) error {
	return s.Deploy(name, prefix, DeploySpec{
		Kind:   "vm",
		Impl:   main,
		Bundle: httpd.EncodeBundle(bundle),
	})
}

// TerminateServlet routes admin termination to the owning worker.
func (s *Scheduler) TerminateServlet(name string) (bool, error) {
	s.mu.Lock()
	_, owned := s.placements[name]
	s.mu.Unlock()
	if !owned {
		return false, nil // a locally-mounted servlet; bridge handles it
	}
	return true, s.Terminate(name)
}

// ServletFault reacts to a capability fault the bridge observed: if the
// placement's capability really is dead, orphan it for repair.
func (s *Scheduler) ServletFault(name string, err error) {
	s.mu.Lock()
	p := s.placements[name]
	if p != nil && p.worker >= 0 && p.cap != nil && p.cap.Revoked() {
		p.worker, p.cap = -1, nil
	}
	s.mu.Unlock()
	s.kick()
}

// --- snapshot ---------------------------------------------------------------

// WorkerStatus is one worker's control-plane view.
type WorkerStatus struct {
	Worker   int      `json:"worker"`
	State    string   `json:"state"`
	Draining bool     `json:"draining,omitempty"`
	Removing bool     `json:"removing,omitempty"`
	Pending  int      `json:"pending"`
	Restarts int      `json:"restarts"`
	Servlets []string `json:"servlets,omitempty"`
}

// ServletStatus is one placement.
type ServletStatus struct {
	Name   string `json:"name"`
	Prefix string `json:"prefix"`
	Kind   string `json:"kind"`
	Worker int    `json:"worker"` // -1 while awaiting re-placement
}

// Snapshot is the control plane's point-in-time state.
type Snapshot struct {
	Strategy   string          `json:"strategy"`
	Workers    []WorkerStatus  `json:"workers"`
	Servlets   []ServletStatus `json:"servlets"`
	ScaleUps   int64           `json:"scale_ups"`
	ScaleDowns int64           `json:"scale_downs"`
	Moves      int64           `json:"moves"`
	Replaces   int64           `json:"replacements"`
}

// Snapshot captures workers, placements, and scale counters.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Strategy:   s.opts.Strategy.Name(),
		ScaleUps:   s.cUp.Value(),
		ScaleDowns: s.cDown.Value(),
		Moves:      s.cMove.Value(),
		Replaces:   s.cReplace.Value(),
	}
	byWorker := map[int][]string{}
	names := make([]string, 0, len(s.placements))
	for n := range s.placements {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := s.placements[n]
		if p.worker >= 0 {
			byWorker[p.worker] = append(byWorker[p.worker], n)
		}
		snap.Servlets = append(snap.Servlets, ServletStatus{
			Name: n, Prefix: p.prefix, Kind: p.spec.Kind, Worker: p.worker,
		})
	}
	idxs := make([]int, 0, len(s.members))
	for i := range s.members {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		m := s.members[i]
		snap.Workers = append(snap.Workers, WorkerStatus{
			Worker:   i,
			State:    m.state.String(),
			Draining: m.adminDrain || m.state == stateDraining,
			Removing: m.removing,
			Pending:  m.conn.PendingCalls(),
			Restarts: m.w.Restarts(),
			Servlets: byWorker[i],
		})
	}
	return snap
}
