package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// env is what a workload's set-up receives.
type env struct {
	seed    uint64
	callers int      // upper bound on caller goroutines / connections
	tmp     string   // directory for worker sockets
	procs   *procSet // worker processes register here to be charged
}

// instance is one set-up workload.
type instance interface {
	// steps returns one step function per caller.
	steps() []stepFunc
	// warmup runs a fixed number of ops so caches, pools and lazily built
	// state are in place before the first measured op.
	warmup()
	// verify compares what the callees saw against what the generator
	// issued, over the whole run, and returns the disagreements.
	verify() []string
	// layers runs the traced pass. It calls trial once for the traced
	// measured window (taking whatever counter snapshots it needs around
	// it) and fills rep with per-layer metrics and ledger rows.
	layers(rep *layerReport, trial func() trialResult)
	close()
}

var workloads = map[string]func(e *env) (instance, error){
	"lrmi_vm_null":      setupLRMIVMNull,
	"lrmi_copy":         setupLRMICopy,
	"remote_sync_null":  setupRemoteSyncNull,
	"remote_async_echo": setupRemoteAsyncEcho,
	"http_local":        setupHTTPLocal,
	"http_cluster_open": setupHTTPClusterOpen,
}

// layerReport collects the traced pass's output for one workload.
type layerReport struct {
	metrics  map[string]float64
	ledger   []ledgerRow
	counters map[string]float64 // raw counter deltas, stored beside the spans
	tr       *tracer
	untraced trialResult
	traced   trialResult
	// ledgerE2E is the traced op latency (µs) the ledger rows are held
	// against; 0 means the traced trial's p50.
	ledgerE2E float64
	// rssBeforeTrace is the processes' peak resident memory after the
	// untraced trial, before the span buffer and the probes' fixtures.
	rssBeforeTrace float64
}

var perLayerNames = func() map[string]bool {
	m := map[string]bool{}
	for _, s := range perLayer {
		m[s.Name] = true
	}
	return m
}()

// set records one per-layer metric; the name must be in spec.go.
func (r *layerReport) set(name string, v float64) {
	if !perLayerNames[name] {
		panic("bench: per-layer metric " + name + " is not declared in spec.go")
	}
	r.metrics[name] = v
}

func (r *layerReport) row(name string, us float64, source string) {
	r.ledger = append(r.ledger, ledgerRow{Name: name, Us: us, Source: source})
}

// finish derives the ledger totals and the tracing overhead.
func (r *layerReport) finish() {
	e2e := r.ledgerE2E
	if e2e == 0 {
		e2e = r.traced.P50us
	}
	var sum float64
	for _, row := range r.ledger {
		sum += row.Us
	}
	if e2e > 0 {
		r.set("ledger.sum_over_e2e", sum/e2e)
	}
	r.set("ledger.unattributed_us", e2e-sum)
	if r.untraced.P50us > 0 {
		r.set("trace.overhead_ratio", r.traced.P50us/r.untraced.P50us)
	}
	r.set("loadgen.lag_p99_us", r.traced.LagP99us)
}

// generatorAllocLimit is the most heap allocations per op the generator
// itself may make (measured against a no-op target): none. The margin
// covers a stray runtime allocation landing inside a probe.
const generatorAllocLimit = 0.01

func runChild(role string, entered time.Time) {
	spawned := entered
	if ns, err := strconv.ParseInt(os.Getenv(envSpawned), 10, 64); err == nil {
		spawned = time.Unix(0, ns)
	}
	setup, ok := workloads[*workloadFlag]
	if !ok {
		fatalf("unknown workload %q", *workloadFlag)
	}
	loop := findWorkload(*workloadFlag).Loop
	if loop == "closed" {
		runtime.GOMAXPROCS(closedLoopProcs)
	}
	e := &env{seed: *seedFlag, callers: maxCallers(), tmp: tmpDir, procs: &procSet{}}
	inst, err := setup(e)
	if err != nil {
		fatalf("%s: set-up: %v", *workloadFlag, err)
	}
	defer inst.close()
	inst.warmup()
	res := childResult{SetupS: time.Since(spawned).Seconds(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	res.HostSpeed = referenceSpeed()
	if role == "setup" {
		emit(res)
		return
	}

	steps := inst.steps()
	recs := make([]*recorder, len(steps))
	for i := range recs {
		recs[i] = newRecorder()
	}
	pool := &latencyPool{}
	if *traceFlag == 1 {
		length := time.Duration(*secondsFlag / tracedShare * float64(time.Second))
		rep := &layerReport{metrics: map[string]float64{}, counters: map[string]float64{}, tr: &tracer{}}
		rep.untraced = runTrial(steps, recs, length, e.procs, nil, pool)
		rep.rssBeforeTrace = e.procs.peakRSSMiB()
		inst.layers(rep, func() trialResult {
			rep.traced = runTrial(steps, recs, length, e.procs, rep.tr, pool)
			return rep.traced
		})
		rep.finish()
		res.Trials = []trialResult{rep.untraced, rep.traced}
		res.Layers, res.Ledger, res.PeakRSSMiB = rep.metrics, rep.ledger, rep.rssBeforeTrace
		if err := rep.tr.write(outDir, *workloadFlag, rep.counters); err != nil {
			res.Problems = append(res.Problems, "trace file: "+err.Error())
		}
		if leaked := rep.metrics["remote.tables_leaked"]; leaked > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("remote.tables_leaked = %g, want 0", leaked))
		}
		if a := rep.metrics["loadgen.allocs_per_op"]; a > generatorAllocLimit {
			res.Problems = append(res.Problems, fmt.Sprintf("loadgen.allocs_per_op = %g: the generator must not allocate per op", a))
		}
	} else {
		// The measured time is cut into slices with a burst of the
		// reference loop before and after each; a slice's host speed is the
		// mean of its two neighbours. The collector is left to run inside
		// the slices as it would in service.
		slice := sliceLength
		if loop == "open" {
			slice = openSliceLength
		}
		n := max(int((*secondsFlag-refBurst.Seconds())/(slice+refBurst).Seconds()+0.5), 1)
		length := time.Duration((*secondsFlag-refBurst.Seconds())/float64(n)*float64(time.Second)) - refBurst
		runtime.GC()
		speed := res.HostSpeed
		for i := 0; i < n; i++ {
			t := runTrial(steps, recs, length, e.procs, nil, pool)
			next := referenceSpeed()
			t.HostSpeed = (speed + next) / 2
			speed = next
			res.Trials = append(res.Trials, t)
		}
		res.P99us = pool.p99us()
	}
	res.Problems = append(res.Problems, inst.verify()...)
	if res.PeakRSSMiB == 0 {
		res.PeakRSSMiB = e.procs.peakRSSMiB()
	}
	emit(res)
}

func emit(res childResult) {
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatalf("encode child result: %v", err)
	}
}

// --- probe helpers ----------------------------------------------------------

// probeBatches is how many timed batches a probe takes the median of.
const probeBatches = 9

// probe times f from outside: it sizes a batch to about 4 ms, runs
// probeBatches of them, and returns the median ns per call and the mean
// heap allocations per call over all batches.
func probe(f func()) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d >= 4*time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 2
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(n*probeBatches)
}

// probeN is probe for functions that run n calls themselves (bytecode
// loops): f(n) must perform n calls. Returns median ns per call.
func probeN(n int, f func(n int)) float64 {
	f(n / 4) // warm
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		f(n)
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}
