package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/remote"
	"jkernel/internal/seri"
	"jkernel/internal/telemetry"
)

// The two remote workloads: a front kernel and a peer kernel in this
// process, joined by one TCP loopback connection.
//
//   - remote_sync_null: the sync invoke path. Each caller goroutine has
//     its own Task and calls Null on its own imported proxy (all proxies
//     share the one connection): one frame out and one frame back per
//     call, no serializer (zero-arg, void), batcher idle.
//   - remote_async_echo: the batched path used the other way. One caller
//     issues windows of 128 InvokeAsyncFrom(Echo, payload), flushes, and
//     waits for all; payload sizes are 64 B / 1 KiB / 16 KiB at 50/40/10 %.

// nullSvc is the sync workload's callee. One instance serves one caller,
// so the entry and exit stamps of a call belong to that caller's op.
type nullSvc struct {
	calls       atomic.Int64
	stamp       atomic.Bool
	entry, exit atomic.Int64
}

// Null counts the call (the output the generator checks).
func (s *nullSvc) Null() error {
	if s.stamp.Load() {
		s.entry.Store(sinceEpoch())
		s.calls.Add(1)
		s.exit.Store(sinceEpoch())
		return nil
	}
	s.calls.Add(1)
	return nil
}

// echoMsg is the async workload's payload; registered as a wire type, so
// it crosses by its compiled seri plan.
type echoMsg struct {
	Seq  int64
	Data []byte
}

// echoSvc returns its argument. Stamps are kept per Seq: at most one
// window (128 calls, distinct Seqs) is in flight.
type echoSvc struct {
	calls       atomic.Int64
	stamp       atomic.Bool
	entry, exit []atomic.Int64
}

// Echo returns m.
func (s *echoSvc) Echo(m echoMsg) (echoMsg, error) {
	stamp := s.stamp.Load() && m.Seq >= 0 && int(m.Seq) < len(s.entry)
	if stamp {
		s.entry[m.Seq].Store(sinceEpoch())
	}
	s.calls.Add(1)
	if stamp {
		s.exit[m.Seq].Store(sinceEpoch())
	}
	return m, nil
}

// makerSvc mints a fresh capability per call: the server half of the
// churn probe (export -> inline import -> invoke -> release).
type makerSvc struct {
	k *core.Kernel
	d *core.Domain
}

// Make returns a fresh null-service capability.
func (m *makerSvc) Make() (*core.Capability, error) {
	return m.k.CreateNativeCapability(m.d, &nullSvc{})
}

// remotePair is two kernels in this process and the connection between
// them.
type remotePair struct {
	front, peer *core.Kernel
	app, svc    *core.Domain
	ln          *remote.Listener
	conn        *remote.Conn
	dial        time.Duration // listen + dial (imports are added by the caller)
}

func newRemotePair(opts core.Options, export func(peer *core.Kernel, svc *core.Domain) error) (*remotePair, error) {
	p := &remotePair{}
	var err error
	frontOpts, peerOpts := opts, opts
	frontOpts.TelemetryNode, peerOpts.TelemetryNode = "bench-front", "bench-peer"
	if p.front, err = core.New(frontOpts); err != nil {
		return nil, err
	}
	if p.peer, err = core.New(peerOpts); err != nil {
		return nil, err
	}
	if p.app, err = p.front.NewDomain(core.DomainConfig{Name: "app"}); err != nil {
		return nil, err
	}
	if p.svc, err = p.peer.NewDomain(core.DomainConfig{Name: "svc"}); err != nil {
		return nil, err
	}
	p.front.RegisterWireType("bench.echoMsg", echoMsg{})
	p.peer.RegisterWireType("bench.echoMsg", echoMsg{})
	if err := export(p.peer, p.svc); err != nil {
		return nil, err
	}
	start := time.Now()
	if p.ln, err = remote.Listen(p.peer, "tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if p.conn, err = remote.Dial(p.front, "tcp", p.ln.Addr().String()); err != nil {
		p.ln.Close()
		return nil, err
	}
	p.dial = time.Since(start)
	return p, nil
}

func (p *remotePair) close() {
	p.conn.Close()
	p.ln.Close()
}

// exportNative creates a native capability in d and exports it.
func exportNative(k *core.Kernel, d *core.Domain, name string, target any) error {
	c, err := k.CreateNativeCapability(d, target)
	if err != nil {
		return err
	}
	return k.Export(name, c)
}

// procIO reads this process's cumulative read/write system-call and byte
// counts from /proc/self/io. Both kernels live in this process, so the
// deltas cover both ends of the connection. (A counting net.Conn wrapper
// would change what it counts: net.Buffers only issues writev on the net
// package's own connection types, so a wrapped connection turns every
// frame into one write per segment.)
type procIO struct{ syscr, syscw, rchar, wchar float64 }

func readProcIO() procIO {
	var io procIO
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return io
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(val, 64)
		switch key {
		case "syscr":
			io.syscr = v
		case "syscw":
			io.syscw = v
		case "rchar":
			io.rchar = v
		case "wchar":
			io.wchar = v
		}
	}
	return io
}

// wireCounters is what the remote layer's own instruments and the
// process's I/O account read before and after a traced window.
type wireCounters struct {
	framesOut, framesIn float64
	io                  procIO
}

func sumCounters(snap *telemetry.Snapshot, prefix string) float64 {
	var total float64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			total += float64(v)
		}
	}
	return total
}

func (p *remotePair) counters() wireCounters {
	snap := p.front.Telemetry().Snapshot()
	return wireCounters{
		framesOut: sumCounters(snap, "remote.frames_out."),
		framesIn:  sumCounters(snap, "remote.frames_in."),
		io:        readProcIO(),
	}
}

// reportWire fills the remote.* counters shared by both workloads from
// snapshots taken around the traced trial.
func (p *remotePair) reportWire(rep *layerReport, before, after wireCounters, ops float64, pendingPeak int) {
	rep.set("remote.frames_out_per_op", (after.framesOut-before.framesOut)/ops)
	rep.set("remote.frames_in_per_op", (after.framesIn-before.framesIn)/ops)
	// Process-wide system calls: each side's share is half on a
	// symmetric request/reply exchange.
	rep.set("remote.writes_per_op", (after.io.syscw-before.io.syscw)/ops)
	rep.set("remote.reads_per_op", (after.io.syscr-before.io.syscr)/ops)
	rep.set("remote.wire_bytes_per_op", (after.io.wchar-before.io.wchar)/ops)
	rep.set("remote.pending_peak", float64(pendingPeak))
	rep.set("remote.dial_import_ms", p.dial.Seconds()*1e3)
	rep.set("remote.batch_occupancy_p50", p.front.Telemetry().Histogram("remote.batch.occupancy").Snapshot().P50)
	var exec int64
	for name, v := range p.peer.Telemetry().Snapshot().Gauges {
		if strings.HasSuffix(name, ".exec_workers") {
			exec = max(exec, v)
		}
	}
	rep.set("remote.exec_workers", float64(exec))
	rep.set("seri.planned_type_ratio", plannedRatio(p.front.SeriRegistry()))
	snap, _ := probe(func() { p.front.Telemetry().Snapshot() })
	rep.set("telemetry.snapshot_ms", snap/1e6)
}

// watchPeak samples a queue depth every interval until stop is closed and
// returns the peak it saw.
func watchPeak(sample func() int, every time.Duration, stop <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
				peak = max(peak, sample())
			}
		}
	}()
	return out
}

// loopbackOneWayUs measures what the host's TCP loopback charges for one
// frame of n bytes going one way, with no kernel of ours involved: a
// goroutine blocked in Read on one end of a fresh 127.0.0.1 connection
// (parked in the runtime's poller, like the remote layer's reader), one
// Write of n bytes on the other end, the Reads that collect them. It
// times ping-pong round trips and returns half of one, in µs.
func loopbackOneWayUs(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		buf := make([]byte, n)
		for {
			if _, err := io.ReadFull(nc, buf); err != nil {
				served <- nil // the prober hung up
				return
			}
			if _, err := nc.Write(buf); err != nil {
				served <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, n)
	var failed error
	rtt, _ := probe(func() {
		if failed != nil {
			return
		}
		if _, err := nc.Write(buf); err != nil {
			failed = err
			return
		}
		_, failed = io.ReadFull(nc, buf)
	})
	nc.Close()
	if err := <-served; err != nil && failed == nil {
		failed = err
	}
	return rtt / 2 / 1e3, failed
}

// handoffUs measures one goroutine waking another and parking itself —
// what the remote layer pays to pass a decoded call from a connection's
// reader to an executor, or a reply to the waiting caller. It times
// ping-pong round trips over unbuffered channels and returns half of one,
// in µs.
func handoffUs() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	rtt, _ := probe(func() {
		ping <- struct{}{}
		<-pong
	})
	close(ping)
	return rtt / 2 / 1e3
}

// gcCPUSeconds is the Go runtime's own estimate of the CPU time this
// process has spent collecting garbage (updated at the end of each cycle).
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// nativeNull measures the local native null LRMI on the front kernel: the
// gate-crossing floor under every remote call.
func (p *remotePair) nativeNull(task *core.Task) (ns, allocs float64, err error) {
	d, err := p.front.NewDomain(core.DomainConfig{Name: fmt.Sprintf("floor-%d", sinceEpoch())})
	if err != nil {
		return 0, 0, err
	}
	c, err := p.front.CreateNativeCapability(d, &nullSvc{})
	if err != nil {
		return 0, 0, err
	}
	ns, allocs = probe(func() {
		if _, err := c.InvokeFrom(task, "Null"); err != nil {
			panic(err)
		}
	})
	return ns, allocs, nil
}

// asyncNullWindow issues one window of async null calls and joins it.
func asyncNullWindow(conn *remote.Conn, proxy *core.Capability, task *core.Task, futs []*core.Future) {
	for i := range futs {
		futs[i] = proxy.InvokeAsyncFrom(task, "Null")
	}
	conn.Flush()
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			panic(err)
		}
	}
}

// tracedTrial runs the traced window with the callees stamping their
// entry and exit, and reports what the remote layer's instruments, the
// process's I/O account and the spans saw around it: the wire counters
// and the three legs of a call. The legs tile the op by construction, so
// they say where the time goes but reconcile nothing; each workload's
// layers builds its ledger from probes that never see the op.
func (p *remotePair) tracedTrial(rep *layerReport, trial func() trialResult, stamp func(on bool)) trialResult {
	stamp(true)
	stop := make(chan struct{})
	peak := watchPeak(p.conn.PendingCalls, 500*time.Microsecond, stop)
	before := p.counters()
	gc := gcCPUSeconds()
	res := trial()
	gc = gcCPUSeconds() - gc
	after := p.counters()
	close(stop)
	stamp(false)
	p.reportWire(rep, before, after, float64(res.Ops), <-peak)
	rep.counters["go.gc_cpu_us_per_op"] = gc * 1e6 / float64(res.Ops)

	rep.set("remote.request_leg_us", rep.tr.spanP50us("remote.request_leg"))
	rep.set("remote.callee_us", rep.tr.spanP50us("remote.callee"))
	rep.set("remote.reply_leg_us", rep.tr.spanP50us("remote.reply_leg"))
	return res
}

// nullRatios measures the in-run, host-independent ratios on one caller:
// sync remote null call over native null LRMI, and async-batched null
// call over sync null call. issued is told how many calls reached null's
// callee.
func (p *remotePair) nullRatios(rep *layerReport, task *core.Task, null *core.Capability, issued func(n int64)) {
	nativeNS, nativeAllocs, err := p.nativeNull(task)
	if err != nil {
		panic(err)
	}
	rep.set("core.lrmi_native_null_ns", nativeNS)
	rep.set("core.lrmi_native_null_allocs", nativeAllocs)
	syncNS, _ := probe(func() {
		issued(1)
		if _, err := null.InvokeFrom(task, "Null"); err != nil {
			panic(err)
		}
	})
	futs := make([]*core.Future, asyncWindow)
	asyncNS, asyncAllocs := probe(func() {
		issued(asyncWindow)
		asyncNullWindow(p.conn, null, task, futs)
	})
	rep.set("remote.sync_over_native_ratio", syncNS/nativeNS)
	rep.set("remote.async_over_sync_ratio", asyncNS/asyncWindow/syncNS)
	rep.counters["remote.sync_null_serial_us"] = syncNS / 1e3
	rep.counters["remote.async_null_us_per_call"] = asyncNS / asyncWindow / 1e3
	rep.counters["remote.async_null_allocs_per_call"] = asyncAllocs / asyncWindow
}

// churn runs cycles of export -> inline import -> invoke -> release and
// reports the cycle time and how many table entries, on either end, did
// not return to baseline.
func (p *remotePair) churn(rep *layerReport, task *core.Task, cycles int) error {
	maker, err := p.conn.Import("maker")
	if err != nil {
		return err
	}
	p.conn.Flush()
	settle := func(c *remote.Conn, base remote.TableSizes) float64 {
		deadline := time.Now().Add(5 * time.Second)
		sz := c.TableSizes()
		for sz != base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			sz = c.TableSizes()
		}
		return float64(sz.Exports - base.Exports + sz.ExportIDs - base.ExportIDs + sz.Imports - base.Imports +
			sz.PreRevoked - base.PreRevoked + sz.Unhook - base.Unhook + sz.Pending - base.Pending)
	}
	clientBase := p.conn.TableSizes()
	var serverConn *remote.Conn
	var serverBase remote.TableSizes
	if conns := p.ln.Conns(); len(conns) == 1 {
		serverConn, serverBase = conns[0], conns[0].TableSizes()
	}
	start := time.Now()
	for i := 0; i < cycles; i++ {
		res, err := maker.InvokeFrom(task, "Make")
		if err != nil {
			return err
		}
		c, ok := res[0].(*core.Capability)
		if !ok {
			return fmt.Errorf("churn: Make returned %T", res[0])
		}
		if _, err := c.InvokeFrom(task, "Null"); err != nil {
			return err
		}
		remote.ReleaseProxy(c)
	}
	rep.set("remote.churn_cycle_us", float64(time.Since(start).Microseconds())/float64(cycles))
	p.conn.Flush()
	leaked := settle(p.conn, clientBase)
	if serverConn != nil {
		leaked += settle(serverConn, serverBase)
	}
	rep.set("remote.tables_leaked", leaked)
	return nil
}

const churnCycles = 2000

// --- remote_sync_null --------------------------------------------------------

type syncCaller struct {
	task   *core.Task
	proxy  *core.Capability
	callee *nullSvc
	issued int64
	ops    int64 // op id within the traced trial
}

type remoteSyncNull struct {
	p       *remotePair
	callers []*syncCaller
}

func setupRemoteSyncNull(e *env) (instance, error) {
	w := &remoteSyncNull{}
	callees := make([]*nullSvc, e.callers)
	p, err := newRemotePair(core.Options{}, func(peer *core.Kernel, svc *core.Domain) error {
		for i := range callees {
			callees[i] = &nullSvc{}
			if err := exportNative(peer, svc, fmt.Sprintf("null%d", i), callees[i]); err != nil {
				return err
			}
		}
		return exportNative(peer, svc, "maker", &makerSvc{k: peer, d: svc})
	})
	if err != nil {
		return nil, err
	}
	w.p = p
	start := time.Now()
	for i := range callees {
		proxy, err := p.conn.Import(fmt.Sprintf("null%d", i))
		if err != nil {
			p.close()
			return nil, err
		}
		w.callers = append(w.callers, &syncCaller{
			task: p.front.NewDetachedTask(p.app, fmt.Sprintf("caller-%d", i)), proxy: proxy, callee: callees[i],
		})
	}
	p.dial += time.Since(start)
	return w, nil
}

func (c *syncCaller) call() bool {
	c.issued++
	_, err := c.proxy.InvokeFrom(c.task, "Null")
	return err == nil
}

func (c *syncCaller) step(r *recorder, _ window) {
	t0 := time.Now()
	ok := c.call()
	t1 := time.Now()
	r.observe(t1.Sub(t0), 1, ok)
	if r.tr == nil || !ok {
		return
	}
	c.ops++
	entry, exit := epoch.Add(time.Duration(c.callee.entry.Load())), epoch.Add(time.Duration(c.callee.exit.Load()))
	if r.tr.full(4) {
		return
	}
	root := r.tr.add("op", c.ops, t0, t1, -1)
	r.tr.add("remote.request_leg", c.ops, t0, entry, root)
	r.tr.add("remote.callee", c.ops, entry, exit, root)
	r.tr.add("remote.reply_leg", c.ops, exit, t1, root)
}

func (w *remoteSyncNull) steps() []stepFunc {
	steps := make([]stepFunc, len(w.callers))
	for i, c := range w.callers {
		steps[i] = c.step
	}
	return steps
}

const remoteWarmupOps = 5000

func (w *remoteSyncNull) warmup() {
	for i := 0; i < remoteWarmupOps; i++ {
		w.callers[i%len(w.callers)].call()
	}
}

func (w *remoteSyncNull) verify() []string {
	var out []string
	for i, c := range w.callers {
		if got := c.callee.calls.Load(); got != c.issued {
			out = append(out, fmt.Sprintf("callee %d counted %d calls, caller issued %d", i, got, c.issued))
		}
	}
	return out
}

func (w *remoteSyncNull) close() { w.p.close() }

func (w *remoteSyncNull) layers(rep *layerReport, trial func() trialResult) {
	p := w.p
	res := p.tracedTrial(rep, trial, func(on bool) {
		for _, c := range w.callers {
			c.callee.stamp.Store(on)
		}
	})
	ops := float64(res.Ops)

	c0 := w.callers[0]
	p.nullRatios(rep, c0.task, c0.proxy, func(n int64) { c0.issued += n })

	// Generator against a no-op target: two clock reads and the recorder.
	self, selfAllocs := probe(func() {
		t0 := time.Now()
		discard.observe(time.Since(t0), 1, true)
	})
	rep.set("loadgen.self_us_per_op", self/1e3)
	rep.set("loadgen.allocs_per_op", selfAllocs)
	// No serializer pass on a zero-arg void call: everything the call
	// allocates beyond the generator is the remote layer's (plus the
	// native gate crossing at the callee).
	rep.set("remote.overhead_allocs_per_op", float64(res.Mallocs)/ops-selfAllocs)

	// Ledger: the steps on the blocking path of one call that a probe can
	// price without seeing the workload's op, held against the traced
	// trial's p50. What is left is the remote layer's own work — frame
	// encode and decode, the pending and export tables, completion,
	// telemetry, which no exported function reaches — plus what two
	// callers sharing one connection and two cores cost each other.
	frame := int(rep.metrics["remote.wire_bytes_per_op"]/rep.metrics["remote.writes_per_op"] + 0.5)
	oneWay, err := loopbackOneWayUs(frame)
	if err != nil {
		panic(err)
	}
	hand := handoffUs()
	native := rep.metrics["core.lrmi_native_null_ns"]
	rep.row("loadgen (clock reads, recorder)", self/1e3, "probe")
	rep.row(fmt.Sprintf("net: TCP loopback, %d-byte request frame one way (write, poller wake-up, read)", frame), oneWay, "probe")
	rep.row(fmt.Sprintf("net: TCP loopback, %d-byte reply frame one way", frame), oneWay, "probe")
	rep.row("go: goroutine hand-off, peer's reader to an executor", hand, "probe")
	rep.row("go: goroutine hand-off, front's reader to the waiting caller", hand, "probe")
	rep.row("core: native null LRMI at the callee", native/1e3, "probe")
	if err := p.churn(rep, c0.task, churnCycles); err != nil {
		panic(err)
	}
}

// --- remote_async_echo -------------------------------------------------------

const (
	asyncWindow = 128
	// echoPlanLen is how many distinct prebuilt messages the generator
	// cycles over: ten windows, far more than are ever in flight.
	echoPlanLen = 10 * asyncWindow
)

// echoSizes is the payload mix: bytes and share of the plan (per mille).
var echoSizes = []struct{ bytes, share int }{{64, 500}, {1024, 400}, {16384, 100}}

type remoteAsyncEcho struct {
	p      *remotePair
	task   *core.Task
	proxy  *core.Capability
	null   *core.Capability
	callee *echoSvc

	argv  [][]any  // argv[i] is the prebuilt argument vector of message i
	want  []uint32 // checksum of message i's data
	next  int
	futs  []*core.Future
	issue []time.Time

	issued int64
	ops    int64
	nullN  *nullSvc
}

func setupRemoteAsyncEcho(e *env) (instance, error) {
	w := &remoteAsyncEcho{
		callee: &echoSvc{entry: make([]atomic.Int64, echoPlanLen), exit: make([]atomic.Int64, echoPlanLen)},
		nullN:  &nullSvc{},
		futs:   make([]*core.Future, asyncWindow),
		issue:  make([]time.Time, asyncWindow),
	}
	p, err := newRemotePair(core.Options{}, func(peer *core.Kernel, svc *core.Domain) error {
		if err := exportNative(peer, svc, "echo", w.callee); err != nil {
			return err
		}
		if err := exportNative(peer, svc, "null", w.nullN); err != nil {
			return err
		}
		return exportNative(peer, svc, "maker", &makerSvc{k: peer, d: svc})
	})
	if err != nil {
		return nil, err
	}
	w.p = p
	start := time.Now()
	if w.proxy, err = p.conn.Import("echo"); err != nil {
		p.close()
		return nil, err
	}
	if w.null, err = p.conn.Import("null"); err != nil {
		p.close()
		return nil, err
	}
	p.dial += time.Since(start)
	w.task = p.front.NewDetachedTask(p.app, "caller")
	w.buildPlan(newRand(e.seed, 3), nil)
	return w, nil
}

// buildPlan prebuilds the message cycle: exact shares of each payload
// size in seeded order, each message boxed once so issuing it allocates
// nothing in the generator. only, when set, restricts the plan to one
// payload size.
func (w *remoteAsyncEcho) buildPlan(rng *rand.Rand, only *int) {
	const buffersPerSize = 4
	weights := make([]int, len(echoSizes))
	bufs := make([][][]byte, len(echoSizes))
	for c, s := range echoSizes {
		weights[c] = echoPlanLen * s.share / 1000
		if only != nil {
			weights[c] = 0
			if s.bytes == *only {
				weights[c] = echoPlanLen
			}
		}
		for b := 0; b < buffersPerSize; b++ {
			data := make([]byte, s.bytes)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			bufs[c] = append(bufs[c], data)
		}
	}
	var plan []uint8
	for c, n := range weights {
		for i := 0; i < n; i++ {
			plan = append(plan, uint8(c))
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	w.argv, w.want = w.argv[:0], w.want[:0]
	for i, c := range plan {
		data := bufs[c][i%buffersPerSize]
		w.argv = append(w.argv, []any{echoMsg{Seq: int64(i), Data: data}})
		w.want = append(w.want, crc(data))
	}
	w.next = 0
}

// window issues one window of echo calls, flushes, and joins it,
// recording each call's issue -> resolved latency.
func (w *remoteAsyncEcho) window(r *recorder) {
	base := w.next
	for j := 0; j < asyncWindow; j++ {
		w.issue[j] = time.Now()
		w.futs[j] = w.proxy.InvokeAsyncFrom(w.task, "Echo", w.argv[base+j]...)
	}
	w.issued += asyncWindow
	w.p.conn.Flush()
	for j := 0; j < asyncWindow; j++ {
		res, err := w.futs[j].Wait()
		done := time.Now()
		idx := base + j
		ok := err == nil && len(res) == 1
		if ok {
			m, isMsg := res[0].(echoMsg)
			ok = isMsg && m.Seq == int64(idx) && crc(m.Data) == w.want[idx]
		}
		if r == nil {
			continue
		}
		r.observe(done.Sub(w.issue[j]), 1, ok)
		if r.tr == nil || !ok || r.tr.full(4) {
			continue
		}
		w.ops++
		entry := epoch.Add(time.Duration(w.callee.entry[idx].Load()))
		exit := epoch.Add(time.Duration(w.callee.exit[idx].Load()))
		root := r.tr.add("op", w.ops, w.issue[j], done, -1)
		r.tr.add("remote.request_leg", w.ops, w.issue[j], entry, root)
		r.tr.add("remote.callee", w.ops, entry, exit, root)
		r.tr.add("remote.reply_leg", w.ops, exit, done, root)
	}
	if w.next += asyncWindow; w.next == len(w.argv) {
		w.next = 0
	}
}

func (w *remoteAsyncEcho) steps() []stepFunc {
	return []stepFunc{func(r *recorder, _ window) { w.window(r) }}
}

func (w *remoteAsyncEcho) warmup() {
	for i := 0; i < 4*echoPlanLen/asyncWindow; i++ {
		w.window(nil)
	}
}

func (w *remoteAsyncEcho) verify() []string {
	if got := w.callee.calls.Load(); got != w.issued {
		return []string{fmt.Sprintf("echo callee counted %d calls, caller issued %d", got, w.issued)}
	}
	return nil
}

func (w *remoteAsyncEcho) close() { w.p.close() }

// allocsPerOp runs f (which performs ops calls) and returns the heap
// allocations per call, process-wide.
func allocsPerOp(ops int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

func (w *remoteAsyncEcho) layers(rep *layerReport, trial func() trialResult) {
	p := w.p
	res := p.tracedTrial(rep, trial, w.callee.stamp.Store)
	ops := float64(res.Ops)

	// seri on the workload's own payload set: one marshal and one
	// unmarshal per message of the plan. A call makes each pass twice
	// (arguments and reply).
	reg := p.front.SeriRegistry()
	wires := make([][]byte, len(w.argv))
	var wireBytes float64
	i := 0
	marshalNS, _ := probe(func() {
		var err error
		if wires[i], err = seri.Marshal(reg, w.argv[i][0]); err != nil {
			panic(err)
		}
		i = (i + 1) % len(w.argv)
	})
	for i := range wires {
		if wires[i] == nil {
			wires[i], _ = seri.Marshal(reg, w.argv[i][0])
		}
		wireBytes += float64(len(wires[i]))
	}
	i = 0
	unmarshalNS, _ := probe(func() {
		if _, err := seri.Unmarshal(reg, wires[i]); err != nil {
			panic(err)
		}
		i = (i + 1) % len(w.argv)
	})
	roundtripAllocs := allocsPerOp(len(w.argv), func() {
		for i := range w.argv {
			data, _ := seri.Marshal(reg, w.argv[i][0])
			if _, err := seri.Unmarshal(reg, data); err != nil {
				panic(err)
			}
		}
	})
	rep.set("seri.marshal_ns", marshalNS)
	rep.set("seri.unmarshal_ns", unmarshalNS)
	rep.set("seri.roundtrip_allocs", roundtripAllocs)
	rep.set("seri.bytes_per_msg", wireBytes/float64(len(w.argv)))

	// Local future round trip on the front kernel (no wire).
	floorDomain, err := p.front.NewDomain(core.DomainConfig{Name: "future-floor"})
	if err != nil {
		panic(err)
	}
	local, err := p.front.CreateNativeCapability(floorDomain, &nullSvc{})
	if err != nil {
		panic(err)
	}
	futNS, futAllocs := probe(func() {
		if _, err := local.InvokeAsyncFrom(w.task, "Null").Wait(); err != nil {
			panic(err)
		}
	})
	rep.set("core.future_roundtrip_ns", futNS)
	rep.set("core.future_allocs", futAllocs)

	// Generator against a no-op target: the window loop's own work per
	// call — clock reads, the recorder, the reply's checksum.
	j := 0
	self, selfAllocs := probe(func() {
		t0 := time.Now()
		m := w.argv[j][0].(echoMsg)
		ok := crc(m.Data) == w.want[j]
		discard.observe(time.Since(t0), 1, ok)
		j = (j + 1) % len(w.argv)
	})
	rep.set("loadgen.self_us_per_op", self/1e3)
	rep.set("loadgen.allocs_per_op", selfAllocs)
	rep.set("remote.overhead_allocs_per_op", float64(res.Mallocs)/ops-2*roundtripAllocs-selfAllocs)

	p.nullRatios(rep, w.task, w.null, func(int64) {})
	rep.set("telemetry.on_off_ratio", telemetryOnOffRatio())

	// Ledger, per call. A call's issue -> resolved latency is the wait for
	// its whole window, so the rows are held against what one call costs
	// the pipeline: the traced trial's wall time over its calls (cmd/jkbench
	// Table 12's "µs per call"). Every row is a probe that never sees an
	// echo window. The async machinery is priced by windows of null calls
	// (no payload, no serializer); the payload's way through the loopback
	// by raw writes of the size the trial's writes had. What is left is
	// what a payload costs the remote layer itself — frame buffers, size
	// classes, the gather list, boxing the message — less whatever the
	// front and the peer overlap on the two cores.
	writeBytes := int(rep.metrics["remote.wire_bytes_per_op"]/rep.metrics["remote.writes_per_op"] + 0.5)
	oneWay, err := loopbackOneWayUs(writeBytes)
	if err != nil {
		panic(err)
	}
	rep.ledgerE2E = res.Wall.Seconds() * 1e6 / ops
	rep.row("loadgen (clock reads, recorder, reply checksum)", self/1e3, "probe")
	rep.row("remote + core: async call machinery, amortised frames included (null calls in windows of 128)", rep.counters["remote.async_null_us_per_call"], "probe")
	rep.row("seri: marshal, argument and result", 2*marshalNS/1e3, "probe")
	rep.row("seri: unmarshal, argument and result", 2*unmarshalNS/1e3, "probe")
	rep.row(fmt.Sprintf("net: TCP loopback, %.3f writes of %d bytes per call, one way each", rep.metrics["remote.writes_per_op"], writeBytes),
		rep.metrics["remote.writes_per_op"]*oneWay, "probe")
	rep.row("go: garbage collector CPU over the traced trial (runtime/metrics)", rep.counters["go.gc_cpu_us_per_op"], "counter")

	// The link to cmd/jkbench Table 12's batched 1 KiB echo row: the same
	// windows with 1 KiB payloads only.
	oneK := 1024
	w.buildPlan(newRand(1, 4), &oneK)
	for i := 0; i < 20; i++ {
		w.window(nil)
	}
	rep.counters["remote.echo_1k_only_allocs_per_op"] = allocsPerOp(40*asyncWindow, func() {
		for i := 0; i < 40; i++ {
			w.window(nil)
		}
	})

	if err := p.churn(rep, w.task, churnCycles); err != nil {
		panic(err)
	}
}

// telemetryOnOffRatio measures what the shipped-default telemetry costs
// on the async-batched null call: the same windows on a kernel pair with
// telemetry on and on one built with DisableTelemetry, in paired rounds
// (noise drifts slowly, so each round's two runs see the same host), the
// median of the per-round ratios.
func telemetryOnOffRatio() float64 {
	const rounds, windows = 5, 150
	run := func(disable bool) float64 {
		p, err := newRemotePair(core.Options{DisableTelemetry: disable}, func(peer *core.Kernel, svc *core.Domain) error {
			return exportNative(peer, svc, "null", &nullSvc{})
		})
		if err != nil {
			panic(err)
		}
		defer p.close()
		proxy, err := p.conn.Import("null")
		if err != nil {
			panic(err)
		}
		task := p.front.NewDetachedTask(p.app, "telemetry-probe")
		futs := make([]*core.Future, asyncWindow)
		for i := 0; i < windows/5; i++ {
			asyncNullWindow(p.conn, proxy, task, futs)
		}
		start := time.Now()
		for i := 0; i < windows; i++ {
			asyncNullWindow(p.conn, proxy, task, futs)
		}
		return float64(time.Since(start))
	}
	ratios := make([]float64, rounds)
	for i := range ratios {
		on, off := run(false), run(true)
		ratios[i] = on / off
	}
	return median(ratios)
}
