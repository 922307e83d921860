package main

import (
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The load generator: seeded input plans, per-caller recorders, and the
// trial runner shared by every workload. Callers never share a recorder,
// and a step allocates nothing in steady state, so allocs_per_op counts
// the kernels and not the harness (loadgen.allocs_per_op asserts it).

// newRand returns the deterministic generator for one input stream of a
// run: the same (seed, stream) always yields the same sequence.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shuffledPlan returns a sequence of class indexes holding exactly
// weights[c] copies of each class c, in seeded random order. Workloads
// cycle over the plan, so every seed runs the same mix — only the order
// differs — and a metric does not move because a seed drew more large
// payloads than another.
func shuffledPlan(rng *rand.Rand, weights []int) []uint8 {
	var plan []uint8
	for c, w := range weights {
		for i := 0; i < w; i++ {
			plan = append(plan, uint8(c))
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc is the checksum callees and the generator verify payloads with.
func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// sampleCap bounds one caller's latency samples per trial (4 MiB). When
// it fills, the recorder drops every other sample and halves its
// sampling rate, so long trials keep an unbiased subsample.
const sampleCap = 1 << 20

// recorder collects one caller's outcome for one trial.
type recorder struct {
	lat    []uint32 // per-op latency samples, ns
	stride int      // record every stride-th op
	skip   int
	ops    int64    // attempted
	failed int64    // errors + refusals + wrong outputs
	late   []uint32 // open loop: how late each send ran, ns
	tr     *tracer  // non-nil in the traced trial
}

// discard is the recorder the no-op-target probes write into (small: a
// full recorder thins itself out).
var discard = &recorder{lat: make([]uint32, 0, 4096), stride: 1}

func newRecorder() *recorder {
	return &recorder{lat: make([]uint32, 0, sampleCap), late: make([]uint32, 0, lateCap), stride: 1}
}

func (r *recorder) reset(tr *tracer) {
	r.lat, r.late = r.lat[:0], r.late[:0]
	r.stride, r.skip, r.ops, r.failed = 1, 0, 0, 0
	r.tr = tr
}

func clampNS(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// observe records one latency sample standing for n ops.
func (r *recorder) observe(d time.Duration, n int64, ok bool) {
	r.ops += n
	if !ok {
		r.failed += n
	}
	if r.skip++; r.skip < r.stride {
		return
	}
	r.skip = 0
	if len(r.lat) == cap(r.lat) {
		keep := r.lat[:0]
		for i := 0; i < len(r.lat); i += 2 {
			keep = append(keep, r.lat[i])
		}
		r.lat = keep
		r.stride *= 2
	}
	r.lat = append(r.lat, clampNS(d))
}

// window is one measured interval.
type window struct{ start, end time.Time }

// stepFunc performs one caller's next unit of work — an op, a timed
// batch, or a window of async calls — and records it. Paced callers
// schedule their sends inside win.
type stepFunc func(r *recorder, win window)

// trialResult is one measured window.
type trialResult struct {
	Ops        int64
	Failed     int64
	Wall       time.Duration
	Samples    int
	P50us      float64
	P99us      float64
	CPUSeconds float64
	Mallocs    uint64
	AllocBytes uint64
	LagP99us   float64
	// Over5ms counts latency samples above 5 ms (the open-loop workload's
	// service-level limit).
	Over5ms int64
	// HostSpeed is the reference loop's speed around the window, as a
	// share of refNominal (untraced pass).
	HostSpeed float64
}

// procSet is the set of processes whose CPU and memory a workload is
// charged for: the benchmark process and any workers it spawned.
type procSet struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

// addCmd registers a worker the pool is about to start (the
// PoolOptions.Command hook sees the command before it has a pid).
func (p *procSet) addCmd(cmd *exec.Cmd) {
	p.mu.Lock()
	p.cmds = append(p.cmds, cmd)
	p.mu.Unlock()
}

func (p *procSet) all() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pids := []int{os.Getpid()}
	for _, cmd := range p.cmds {
		if cmd.Process != nil {
			pids = append(pids, cmd.Process.Pid)
		}
	}
	return pids
}

func (p *procSet) cpuSeconds() float64 {
	var total float64
	for _, pid := range p.all() {
		if s, err := procCPU(pid); err == nil {
			total += s
		}
	}
	return total
}

func (p *procSet) peakRSSMiB() float64 {
	var total float64
	for _, pid := range p.all() {
		if m, err := procPeakRSS(pid); err == nil {
			total += m
		}
	}
	return total
}

// sketchSize is how many evenly spaced order statistics of a slice's
// latency samples go into the run's pooled distribution.
const sketchSize = 4096

// latencyPool holds a run's latency distribution: each measured window
// contributes a sketch of its sorted samples, so the pooled 99th
// percentile weighs every window alike and stays a few MiB.
type latencyPool struct {
	scratch []uint32
	pooled  []uint32
}

// add sorts one window's samples in place of the pool's scratch buffer,
// keeps a sketch of them and returns the sorted samples (valid until the
// next add).
func (p *latencyPool) add(recs []*recorder) []uint32 {
	p.scratch = p.scratch[:0]
	for _, r := range recs {
		p.scratch = append(p.scratch, r.lat...)
	}
	slices.Sort(p.scratch)
	step := max(len(p.scratch)/sketchSize, 1)
	for i := step / 2; i < len(p.scratch); i += step {
		p.pooled = append(p.pooled, p.scratch[i])
	}
	return p.scratch
}

// p99us returns the pooled 99th percentile in µs.
func (p *latencyPool) p99us() float64 {
	slices.Sort(p.pooled)
	return quantile(p.pooled, 0.99) / 1e3
}

// runTrial drives every caller's step function until the window closes
// and measures the window from outside: wall time, CPU of the charged
// processes, and the Go heap's allocation counters.
func runTrial(steps []stepFunc, recs []*recorder, length time.Duration, procs *procSet, tr *tracer, pool *latencyPool) trialResult {
	for _, r := range recs {
		r.reset(tr)
	}
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := procs.cpuSeconds()
	win := window{start: time.Now()}
	win.end = win.start.Add(length)
	for i, step := range steps {
		wg.Add(1)
		go func(step stepFunc, r *recorder) {
			defer wg.Done()
			for time.Now().Before(win.end) {
				step(r, win)
			}
		}(step, recs[i])
	}
	wg.Wait()
	wall := time.Since(win.start)
	cpu1 := procs.cpuSeconds()
	runtime.ReadMemStats(&m1)

	res := trialResult{
		Wall:       wall,
		CPUSeconds: cpu1 - cpu0,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	var late []uint32
	for _, r := range recs {
		res.Ops += r.ops
		res.Failed += r.failed
		late = append(late, r.late...)
	}
	lat := pool.add(recs)
	first, _ := slices.BinarySearch(lat, uint32(clusterSLO)+1)
	res.Over5ms = int64(len(lat) - first)
	res.Samples = len(lat)
	res.P50us = quantile(lat, 0.50) / 1e3
	res.P99us = quantile(lat, 0.99) / 1e3
	if len(late) > 0 {
		slices.Sort(late)
		res.LagP99us = quantile(late, 0.99) / 1e3
	}
	return res
}

// --- host-speed reference ------------------------------------------------------

// The host this benchmark runs on — a few vCPUs of a shared machine —
// moves between speeds: code that touches memory (this kernel, the Go
// allocator, the network stack) runs at anything from 0.45 to 1 of its
// best speed, for a second or for an hour, while CPU time per op rises
// with wall time and the hypervisor reports no steal. Runs of the same
// code minutes apart differ by 1.6x, which no bound survives. So the
// untraced pass times a fixed reference loop between its slices and
// reports each timing metric scaled to a host that runs the reference at
// its nominal speed. The loop is half load-and-store over a 256 KiB
// buffer and half small heap allocations: measured against slices of the
// workloads, either half alone tracks some workloads and not others
// (ten-run spreads of 1-12 %), their geometric mean tracks all of them
// (1-4 %). A pure ALU loop does not see the host's states at all.
const (
	// refBurst is how long one reading of the reference loop takes.
	refBurst = 20 * time.Millisecond
	// The reference loop's speed on this host at its best: the scale's
	// fixed point. A host speed of 1 means "as fast as that".
	refWalkNominal  = 1.4e9 // buffer elements per second
	refAllocNominal = 2.9e7 // 80-byte allocations per second
	// refNominal names the scale in the output.
	refNominal = "1.4e9 elements/s and 2.9e7 allocations/s"
)

var (
	refBuf  = make([]uint64, 32<<10) // 256 KiB: beyond L1, inside L2
	refSum  uint64
	refSink []byte
)

// referenceSpeed runs the reference loop for refBurst and returns the
// host's speed as a share of nominal.
func referenceSpeed() float64 {
	start := time.Now()
	n, sum := 0, refSum
	for time.Since(start) < refBurst/2 {
		for i := range refBuf {
			sum += refBuf[i]
			refBuf[i] = sum
		}
		n += len(refBuf)
	}
	refSum = sum
	walk := float64(n) / time.Since(start).Seconds() / refWalkNominal

	start = time.Now()
	n = 0
	for time.Since(start) < refBurst/2 {
		for i := 0; i < 2000; i++ {
			refSink = make([]byte, 80)
		}
		n += 2000
	}
	alloc := float64(n) / time.Since(start).Seconds() / refAllocNominal
	return math.Sqrt(walk * alloc)
}

// pacer turns a per-request function into an open-loop caller: request i
// of a window is due at win.start + offset + i*interval whatever happened
// to the requests before it, and its latency runs from that due time. A
// stall therefore charges every request it delays (no coordinated
// omission).
type pacer struct {
	interval time.Duration
	offset   time.Duration
	do       func(r *recorder) bool

	win      time.Time // start of the window the schedule belongs to
	next     int64
	lastDone time.Time
}

// spinMargin is how long before a due time the pacer stops sleeping and
// polls the clock instead; it has to cover how late the kernel wakes a
// sleeping thread on a busy 2-core host.
const spinMargin = 40 * time.Microsecond

// sleepUntil blocks the calling thread until due. The Go runtime's timers
// are no use here: with every P idle the scheduler waits in epoll, whose
// timeout is whole milliseconds, so a sleeping goroutine wakes up to 1 ms
// late — and every such wake-up would be charged to the request as
// latency. nanosleep is a high-resolution kernel timer.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due) - spinMargin
		if wait <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) //nolint: an early return (EINTR) just loops
	}
	for time.Now().Before(due) {
	}
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK: the calling thread's
// timer slack in nanoseconds (50 µs by default, which nanosleep would
// add to every wait).
const prSetTimerSlack = 29

// pinSender dedicates an OS thread to the calling sender goroutine and
// gives it the smallest timer slack, so sleepUntil wakes on time. The
// thread goes away with the goroutine at the end of the trial.
func pinSender() {
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //nolint: best effort; a refusal only means later wake-ups
}

// lateCap bounds the lag samples kept per caller per trial.
const lateCap = 1 << 18

func (p *pacer) step(r *recorder, win window) {
	if p.win != win.start {
		p.win, p.next, p.lastDone = win.start, 0, time.Time{}
		pinSender()
	}
	due := win.start.Add(p.offset + time.Duration(p.next)*p.interval)
	if !due.Before(win.end) {
		// Nothing more is due inside this window.
		sleepUntil(win.end)
		return
	}
	p.next++
	sleepUntil(due)
	sent := time.Now()
	// Lag is the generator's own lateness: time past the due moment that
	// is not explained by the previous reply still being outstanding
	// (that backlog is the system's, and is in the latency).
	free := due
	if p.lastDone.After(free) {
		free = p.lastDone
	}
	if len(r.late) < lateCap {
		r.late = append(r.late, clampNS(sent.Sub(free)))
	}
	ok := p.do(r)
	p.lastDone = time.Now()
	r.observe(p.lastDone.Sub(due), 1, ok)
}
