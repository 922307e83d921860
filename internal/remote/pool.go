package remote

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

// PoolOptions configures a worker pool.
type PoolOptions struct {
	// Workers is the number of worker processes (default 1).
	Workers int
	// Dir holds the workers' unix sockets (default: fresh temp dir,
	// removed on Close).
	Dir string
	// Command builds the worker process for index i listening on
	// network/addr. Default: re-exec the current binary with the worker
	// environment variable set (pair with MaybeRunWorker in main).
	Command func(i int, network, addr string) *exec.Cmd
	// Stderr receives worker stderr (default: the supervisor's stderr).
	Stderr *os.File
	// Log, when set, receives pool lifecycle events.
	Log func(format string, args ...any)
	// Telemetry receives pool metrics and lifecycle events (spawn counts,
	// restart counts with exit reasons, dial latency). Default: the
	// process-global registry.
	Telemetry *telemetry.Registry
}

// Pool supervises worker kernel processes: it spawns them, watches for
// exits, and restarts crashed workers — the supervisor keeps running and
// its proxies fault instead (the remote-playground failure model). Slots
// can be added (Add) and removed (Remove) at runtime, which is how a
// control plane autoscales the pool.
type Pool struct {
	opts   PoolOptions
	dir    string
	ownDir bool
	closed atomic.Bool
	wg     sync.WaitGroup

	// mu guards the workers slice and the next slot index; slots come and
	// go at runtime once a scheduler drives Add/Remove.
	mu      sync.Mutex
	workers []*PoolWorker
	nextIdx int

	// Pool telemetry. Worker restarts were once silent unless the caller
	// wired a Log func; now every exit is counted and its reason (exit
	// code, signal, spawn failure) lands in the registry's event log.
	spawns      *telemetry.Counter
	restarts    *telemetry.Counter
	dialLatency *telemetry.Histogram
}

// restartDelay paces respawns after a crash.
const restartDelay = 200 * time.Millisecond

// PoolWorker is one supervised worker slot. The process occupying it may
// be restarted any number of times; the socket address is stable. Slot
// indices are monotonic — a removed slot's index is never reused, so a
// scheduler can key state by index without ABA confusion.
type PoolWorker struct {
	pool    *Pool
	Index   int
	network string
	addr    string

	// live counts connections Dial handed out that have not shut down;
	// Remove is drain-aware and refuses to kill a slot that still serves.
	live    atomic.Int64
	removed atomic.Bool

	mu       sync.Mutex
	cmd      *exec.Cmd
	restarts int
}

// SelfExecCommand re-executes the current binary as a worker child. The
// child must call MaybeRunWorker early in main.
func SelfExecCommand(i int, network, addr string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), EnvWorkerAddr+"="+network+":"+addr)
	return cmd
}

// StartPool spawns the workers and begins supervising them.
func StartPool(opts PoolOptions) (*Pool, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Command == nil {
		opts.Command = SelfExecCommand
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.Default()
	}
	p := &Pool{opts: opts, dir: opts.Dir}
	p.spawns = opts.Telemetry.Counter("remote.pool.spawns")
	p.restarts = opts.Telemetry.Counter("remote.pool.restarts")
	p.dialLatency = opts.Telemetry.Histogram("remote.pool.dial.latency_ns")
	if p.dir == "" {
		dir, err := os.MkdirTemp("", "jkpool-")
		if err != nil {
			return nil, err
		}
		p.dir = dir
		p.ownDir = true
	}
	for i := 0; i < opts.Workers; i++ {
		if _, err := p.Add(); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// Add appends a fresh worker slot to the pool and spawns its process. The
// new slot gets the next monotonic index; it is supervised exactly like
// the initial workers. This is the scale-up primitive.
func (p *Pool) Add() (*PoolWorker, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("remote: pool closed")
	}
	p.mu.Lock()
	i := p.nextIdx
	p.nextIdx++
	w := &PoolWorker{
		pool:    p,
		Index:   i,
		network: "unix",
		addr:    filepath.Join(p.dir, fmt.Sprintf("worker-%d.sock", i)),
	}
	p.workers = append(p.workers, w)
	p.mu.Unlock()
	if err := w.spawn(); err != nil {
		p.detach(w)
		return nil, err
	}
	return w, nil
}

// Remove drains and deletes a worker slot: it stops future respawns, waits
// up to wait for connections handed out by Dial to shut down, and only
// then kills the process. A slot that still serves live connections after
// the wait is NOT killed — Remove re-arms the slot and returns an error,
// so a control plane cannot yank a worker out from under in-flight calls
// by accident. Callers drain first (close their conns), then Remove.
func (p *Pool) Remove(w *PoolWorker, wait time.Duration) error {
	if w.pool != p {
		return fmt.Errorf("remote: worker %d is not from this pool", w.Index)
	}
	w.removed.Store(true) // monitor stops respawning
	deadline := time.Now().Add(wait)
	for w.live.Load() > 0 {
		if time.Now().After(deadline) {
			w.removed.Store(false)
			return fmt.Errorf("remote: worker %d still has %d live connection(s)", w.Index, w.live.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.mu.Lock()
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.mu.Unlock()
	p.detach(w)
	if w.network == "unix" {
		os.Remove(w.addr)
	}
	p.opts.Telemetry.Eventf("pool worker %d removed", w.Index)
	p.opts.Log("worker %d: removed", w.Index)
	return nil
}

// detach forgets a slot without touching its process.
func (p *Pool) detach(w *PoolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.workers {
		if x == w {
			p.workers = append(p.workers[:i], p.workers[i+1:]...)
			return
		}
	}
}

// Worker returns slot i (by position, not index; see Workers for slots of
// a dynamic pool).
func (p *Pool) Worker(i int) *PoolWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers[i]
}

// Workers snapshots the current slots.
func (p *Pool) Workers() []*PoolWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*PoolWorker, len(p.workers))
	copy(out, p.workers)
	return out
}

// Size returns the number of worker slots.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Close kills every worker and stops supervision.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for _, w := range p.Workers() {
		w.mu.Lock()
		if w.cmd != nil && w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
		w.mu.Unlock()
	}
	p.wg.Wait()
	if p.ownDir {
		os.RemoveAll(p.dir)
	}
}

// Network and Addr identify the worker's stable listen endpoint.
func (w *PoolWorker) Network() string { return w.network }
func (w *PoolWorker) Addr() string    { return w.addr }

// Restarts reports how many times this slot's process was respawned.
func (w *PoolWorker) Restarts() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.restarts
}

// LiveConns reports how many connections handed out by Dial are still up —
// the drain signal Remove waits on.
func (w *PoolWorker) LiveConns() int { return int(w.live.Load()) }

// Kill terminates the current worker process (the supervisor will restart
// it). Used by failure drills and tests.
func (w *PoolWorker) Kill() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cmd == nil || w.cmd.Process == nil {
		return fmt.Errorf("remote: worker %d has no process", w.Index)
	}
	return w.cmd.Process.Kill()
}

// Handshake pacing: one probe never waits longer than pingProbeMax (a
// healthy worker answers in microseconds; anything slower is a process
// that accepted us into its backlog while dying), and retries are paced
// by retryPause — both clipped to whatever remains of the caller's
// deadline, so Dial returns within its timeout, never at timeout plus a
// probe.
const (
	pingProbeMax = 2 * time.Second
	retryPause   = 20 * time.Millisecond
)

// Dial connects kernel k to the worker, retrying until the worker's
// listener is up (fresh spawns and restarts take a moment) or timeout
// elapses. Each attempt is a deadline-bound handshake — connect, then a
// protocol ping with the remaining time budget: a dying worker can still
// accept a connection into its listen backlog (or be SIGKILLed between
// accept and serve), and only an answered ping proves the kernel behind
// the socket is serving.
func (w *PoolWorker) Dial(k *core.Kernel, timeout time.Duration) (*Conn, error) {
	// A PoolWorker can be built bare (tests, ad-hoc endpoints); telemetry
	// instruments are nil-safe, so a missing pool just goes unobserved.
	var reg *telemetry.Registry
	var dialLat *telemetry.Histogram
	if w.pool != nil {
		reg = w.pool.opts.Telemetry
		dialLat = w.pool.dialLatency
	}
	start := time.Now()
	deadline := start.Add(timeout)
	var lastErr error = fmt.Errorf("no attempt completed")
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			reg.Eventf("pool worker %d unreachable after %v: %v", w.Index, timeout, lastErr)
			return nil, fmt.Errorf("remote: worker %d not reachable after %v: %w", w.Index, timeout, lastErr)
		}
		conn, err := dialHandshake(k, w.network, w.addr, remaining)
		if err == nil {
			// Dial latency covers spawn-to-readiness retries, so it is the
			// observed worker warm-up time, not one TCP connect.
			dialLat.ObserveSince(start)
			// Track the connection for drain-aware Remove: the slot counts
			// as serving until every conn Dial handed out has shut down.
			w.live.Add(1)
			go func() {
				<-conn.Done()
				w.live.Add(-1)
			}()
			return conn, nil
		}
		lastErr = err
		pause := retryPause
		if rem := time.Until(deadline); pause > rem {
			pause = rem
		}
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// dialHandshake performs one connect-and-ping handshake within budget.
// Both phases share the budget: the connect may consume most of it, and
// the readiness ping gets what is left (capped at pingProbeMax).
//
//jk:blocking
func dialHandshake(k *core.Kernel, network, addr string, budget time.Duration) (*Conn, error) {
	deadline := time.Now().Add(budget)
	nc, err := net.DialTimeout(network, addr, budget)
	if err != nil {
		return nil, err
	}
	conn, err := NewConn(k, nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	conn.setDialTarget(network, addr)
	probe := time.Until(deadline)
	if probe > pingProbeMax {
		probe = pingProbeMax
	}
	if probe <= 0 {
		conn.Close()
		return nil, fmt.Errorf("remote: %s: connected with no time left to probe", addr)
	}
	if perr := conn.Ping(probe); perr != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: %s: connected but unresponsive: %w", addr, perr)
	}
	return conn, nil
}

// spawn starts the worker process and its monitor.
func (w *PoolWorker) spawn() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spawnLocked()
}

// spawnLocked starts the process under w.mu. The closed check and the cmd
// store share the mutex with Pool.Close's kill loop, so a respawn cannot
// slip past a concurrent Close and leak an orphan process.
func (w *PoolWorker) spawnLocked() error {
	if w.pool.closed.Load() || w.removed.Load() {
		return nil
	}
	if w.network == "unix" {
		os.Remove(w.addr)
	}
	cmd := w.pool.opts.Command(w.Index, w.network, w.addr)
	if cmd.Stderr == nil {
		if w.pool.opts.Stderr != nil {
			cmd.Stderr = w.pool.opts.Stderr
		} else {
			cmd.Stderr = os.Stderr
		}
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("remote: spawn worker %d: %w", w.Index, err)
	}
	w.cmd = cmd
	w.pool.spawns.Inc()
	w.pool.opts.Log("worker %d: started pid %d (%s)", w.Index, cmd.Process.Pid, w.addr)
	w.pool.wg.Add(1)
	go w.monitor(cmd)
	return nil
}

// monitor reaps one process incarnation and respawns unless the pool is
// closing.
func (w *PoolWorker) monitor(cmd *exec.Cmd) {
	defer w.pool.wg.Done()
	err := cmd.Wait()
	if w.pool.closed.Load() || w.removed.Load() {
		return
	}
	reason := exitReason(cmd, err)
	w.pool.restarts.Inc()
	w.pool.opts.Telemetry.Eventf("pool worker %d exited: %s; restarting in %v",
		w.Index, reason, restartDelay)
	w.pool.opts.Log("worker %d: exited (%s); restarting in %v", w.Index, reason, restartDelay)
	time.Sleep(restartDelay)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pool.closed.Load() || w.removed.Load() {
		return
	}
	w.restarts++
	if serr := w.spawnLocked(); serr != nil {
		w.pool.opts.Telemetry.Eventf("pool worker %d respawn failed: %v", w.Index, serr)
		w.pool.opts.Log("worker %d: respawn failed: %v", w.Index, serr)
	}
}

// exitReason renders why a worker process died: the exit code or signal
// when the process ran, otherwise the Wait error itself.
func exitReason(cmd *exec.Cmd, err error) string {
	if st := cmd.ProcessState; st != nil {
		if code := st.ExitCode(); code >= 0 {
			return fmt.Sprintf("exit code %d", code)
		}
		// ExitCode is -1 for signal deaths; String spells the signal.
		return st.String()
	}
	if err != nil {
		return err.Error()
	}
	return "unknown"
}
