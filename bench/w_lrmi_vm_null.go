package main

import (
	"time"

	"jkernel/internal/core"
)

// lrmi_vm_null: the paper's primary path. A VM client domain runs a
// bytecode loop of LRMIs into a VM server domain — the null method and
// the 3-int-argument method (Tables 1 and 6, profile A). Closed loop,
// one caller.
//
// One timed batch is 250 null LRMIs followed by 250 add3 LRMIs, and the
// latency sample is the batch time ÷ 500. The two methods share a batch
// rather than alternate batches so that the sample distribution has one
// mode: the median of an even two-mode mix sits on the gap between them
// and does not repeat.

const (
	lrmiHalfBatch  = 250
	lrmiBatch      = 2 * lrmiHalfBatch
	lrmiWarmupOps  = 20 * lrmiBatch
	lrmiProbeCalls = 20000
)

type lrmiVMNull struct {
	f       *vmFixture
	a, b, c int64 // add3's seeded arguments
	batch   int64
}

func setupLRMIVMNull(e *env) (instance, error) {
	f, err := newVMFixture(core.Options{})
	if err != nil {
		return nil, err
	}
	rng := newRand(e.seed, 1)
	w := &lrmiVMNull{f: f, a: rng.Int64N(1000), b: rng.Int64N(1000), c: rng.Int64N(1000)}
	return w, nil
}

// runBatch performs one batch and reports whether its outputs were right.
func (w *lrmiVMNull) runBatch(r *recorder) bool {
	t0 := time.Now()
	err := w.f.loop("runLRMI", lrmiHalfBatch)
	tm := time.Now()
	sum, err3 := w.f.lrmi3(lrmiHalfBatch, w.a, w.b, w.c)
	t1 := time.Now()
	w.batch++
	ok := err == nil && err3 == nil && sum == lrmiHalfBatch*(w.a+w.b+w.c)
	if r != nil {
		r.observe(t1.Sub(t0)/lrmiBatch, lrmiBatch, ok)
		if r.tr != nil {
			root := r.tr.add("loadgen.batch", w.batch, t0, t1, -1)
			r.tr.add("core.lrmi_vm_null_x250", w.batch, t0, tm, root)
			r.tr.add("core.lrmi_vm_3arg_x250", w.batch, tm, t1, root)
		}
	}
	return ok
}

func (w *lrmiVMNull) steps() []stepFunc {
	return []stepFunc{func(r *recorder, _ window) { w.runBatch(r) }}
}

func (w *lrmiVMNull) warmup() {
	for i := 0; i < lrmiWarmupOps/lrmiBatch; i++ {
		w.runBatch(nil)
	}
}

// verify holds the kernel's own account of the client domain's cross
// calls against the number the generator issued. The callee keeps no
// counter of its own: four more bytecodes in a null method would be a
// tenth of what is being measured.
func (w *lrmiVMNull) verify() []string { return w.f.verifyCalls() }

func (w *lrmiVMNull) close() { w.f.task.Close() }

func (w *lrmiVMNull) layers(rep *layerReport, trial func() trialResult) {
	f := w.f
	before := f.client.Stats()
	issuedBefore := f.lrmis
	trial()
	after := f.client.Stats()
	ops := float64(f.lrmis - issuedBefore)
	rep.set("account.copy_bytes_per_op", float64(after.CopyBytes-before.CopyBytes)/ops)
	rep.set("account.alloc_bytes_per_op", float64(after.AllocBytes-before.AllocBytes)/ops)
	rep.counters["account.steps"] = float64(after.Steps - before.Steps)
	rep.counters["account.cross_calls"] = float64(after.CrossCalls - before.CrossCalls)

	// Table 1's rows, from the same client domain's bytecode.
	loop := func(method string) float64 {
		return probeN(lrmiProbeCalls, func(n int) {
			if err := f.loop(method, n); err != nil {
				panic(err)
			}
		})
	}
	empty := loop("runEmpty")
	regular := loop("runRegular")
	iface := loop("runIface")
	lock := loop("runLock")
	null := loop("runLRMI")
	three := probeN(lrmiProbeCalls, func(n int) {
		if _, err := f.lrmi3(n, w.a, w.b, w.c); err != nil {
			panic(err)
		}
	})
	lookup, _ := probe(func() { f.k.VM.LookupThread(f.task.Thread.ID) })
	rep.set("vmkit.invoke_regular_ns", regular)
	rep.set("vmkit.invoke_iface_ns", iface)
	rep.set("vmkit.lock_pair_ns", lock)
	rep.set("vmkit.thread_lookup_ns", lookup)
	rep.set("vmkit.load_verify_ms", f.loadVerify.Seconds()*1e3)
	rep.set("core.lrmi_vm_null_ns", null)
	rep.set("core.lrmi_vm_3arg_ns", three)
	// The paper's reconciliation row: what is left of an LRMI after the
	// interface call, the two lock pairs of the segment switch, and the
	// thread lookup.
	rep.set("core.lrmi_residual_ns", null-iface-2*lock-lookup)

	snap, _ := probe(func() { f.k.Telemetry().Snapshot() })
	rep.set("telemetry.snapshot_ms", snap/1e6)

	// The generator against a no-op target: a batch's three clock reads,
	// its output check and the recorder, with no call into the kernel.
	self, allocs := probe(func() {
		t0 := time.Now()
		tm := time.Now()
		t1 := time.Now()
		discard.observe(t1.Sub(t0)/lrmiBatch, lrmiBatch, tm.After(t0) && w.a+w.b+w.c >= 0)
	})
	rep.set("loadgen.self_us_per_op", self/1e3/lrmiBatch)
	rep.set("loadgen.allocs_per_op", allocs/lrmiBatch)

	// Ledger: the steps of one mixed-batch LRMI that can be timed from
	// outside, each net of the loop bytecodes every row carries. What is
	// left — the stub body, argument boxing, the segment bookkeeping the
	// kernel does between them — is the unattributed remainder.
	telOff := w.telemetryOffNullNS()
	segSwitch, _ := probe(func() {
		f.task.Chain.Push(f.server.ID)
		f.task.Chain.Pop()
	})
	// Charged to domain ids no domain has, so the client's account (which
	// verify reads) is left alone.
	meter, _ := probe(func() { f.k.Meter.CrossCall(1<<40, 1<<40+1, 0) })
	rep.row("vmkit.loop", empty/1e3, "probe")
	rep.row("vmkit.stub_dispatch (iface call - loop)", (iface-empty)/1e3, "probe")
	rep.row("vmkit.target_dispatch (regular call - loop)", (regular-empty)/1e3, "probe")
	rep.row("vmkit.thread_lookup", lookup/1e3, "probe")
	rep.row("threads.segment_push_pop", segSwitch/1e3, "probe")
	rep.row("account.cross_call", meter/1e3, "probe")
	rep.row("telemetry (lrmi - lrmi with DisableTelemetry)", max(null-telOff, 0)/1e3, "probe")
	rep.row("core.args_3int ((3arg - null) / 2)", (three-null)/2/1e3, "probe")
}

// telemetryOffNullNS measures the null LRMI on an identical fixture built
// with DisableTelemetry.
func (w *lrmiVMNull) telemetryOffNullNS() float64 {
	off, err := newVMFixture(core.Options{DisableTelemetry: true})
	if err != nil {
		panic(err)
	}
	defer off.task.Close()
	return probeN(lrmiProbeCalls, func(n int) {
		if err := off.loop("runLRMI", n); err != nil {
			panic(err)
		}
	})
}
