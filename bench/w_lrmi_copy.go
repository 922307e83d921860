package main

import (
	"time"

	"jkernel/internal/core"
	"jkernel/internal/fastcopy"
	"jkernel/internal/seri"
	"jkernel/internal/vmkit"
)

// lrmi_copy: LRMIs whose cost is the copying calling convention. A seeded
// mix over the paper's Table 4 argument shapes {1x10, 1x100, 10x10,
// 1x1000 bytes} x {serialization class, fast-copy class} through
// Capability.InvokeVM, plus the native path (InvokeFrom) with a 1 KiB
// struct registered for serialization (copied by its compiled seri plan)
// and a 1 KiB struct that is not (copied by fastcopy). Every callee
// returns a checksum of the copy it received. Closed loop, one caller.

// copyMsgS crosses by serialization: RegisterSerializable routes its
// local LRMI copy through package seri.
type copyMsgS struct {
	Seq  int64
	Data []byte
}

// copyMsgF crosses by fast-copy, the default for a type with no
// registered copy mode (it is wire-registered only so that the gate's
// remote surface stays within what jkvet's capleak pass allows).
type copyMsgF struct {
	Seq  int64
	Data []byte
}

// copySvc is the native callee: each method checksums its own copy.
type copySvc struct{}

func (copySvc) SumS(m copyMsgS) (int64, error) { return m.Seq + int64(crc(m.Data)), nil }
func (copySvc) SumF(m copyMsgF) (int64, error) { return m.Seq + int64(crc(m.Data)), nil }

// Null is the native null LRMI (the gate-crossing floor).
func (copySvc) Null() error { return nil }

// copyClass is one argument shape of the mix.
type copyClass struct {
	name   string
	vm     bool
	method string
	arg    any   // *vmkit.Object chain, or a boxed copyMsgS / copyMsgF
	want   int64 // the checksum the callee must return
	bytes  int   // payload bytes copied per call
	weight int   // copies per plan
}

const copyNativeBytes = 1024

// The weights decide which class the median and the 99th percentile fall
// in. With eleven equal shares sorted by cost, the median lies in the
// middle of the sixth class and p99 inside the most expensive one, clear
// of the boundaries between classes where a quantile would flip between
// two modes from run to run. The native fast-copy class is the cheap
// doubled one.
var copyShapes = []struct {
	name        string
	count, size int
}{
	{"1x10", 1, 10}, {"1x100", 1, 100}, {"10x10", 10, 10}, {"1x1000", 1, 1000},
}

const copyPlanRounds = 64

type lrmiCopy struct {
	f       *vmFixture
	nat     *core.Capability
	classes []copyClass
	plan    []uint8
	next    int
	natOps  int64 // native LRMIs issued (the fixture counts the VM ones)
}

func setupLRMICopy(e *env) (instance, error) {
	f, err := newVMFixture(core.Options{})
	if err != nil {
		return nil, err
	}
	w := &lrmiCopy{f: f}
	rng := newRand(e.seed, 2)
	fill := func() byte { return byte(rng.Uint32()) }
	// The VM serializer writes each payload byte as a varint, so 8-bit
	// bytes would make the stream's length — and with it the encoder's
	// buffer growth and allocs_per_op — depend on the bytes a seed drew.
	fill7 := func() byte { return fill() & 0x7f }
	for _, mode := range []struct{ tag, class, method string }{{"ser", "MsgS", "sink"}, {"fast", "MsgF", "sinkF"}} {
		for _, s := range copyShapes {
			obj, sum, err := f.chain(mode.class, s.count, s.size, fill7)
			if err != nil {
				return nil, err
			}
			w.classes = append(w.classes, copyClass{
				name: "vm_" + mode.tag + "_" + s.name, vm: true, method: mode.method,
				arg: obj, want: sum, bytes: s.count * s.size, weight: 1,
			})
		}
	}

	f.k.RegisterSerializable("bench.copyMsgS", copyMsgS{})
	f.k.RegisterWireType("bench.copyMsgF", copyMsgF{})
	w.nat, err = f.k.CreateNativeCapability(f.server, copySvc{})
	if err != nil {
		return nil, err
	}
	data := make([]byte, copyNativeBytes)
	for i := range data {
		data[i] = fill()
	}
	// A fixed magnitude, so every seed's Seq encodes to the same number of
	// bytes and the serializer's buffer growth does not depend on the seed.
	seq := int64(1<<29) + rng.Int64N(1<<28)
	w.classes = append(w.classes,
		copyClass{name: "native_seri_1k", method: "SumS", arg: copyMsgS{Seq: seq, Data: data},
			want: seq + int64(crc(data)), bytes: copyNativeBytes, weight: 1},
		copyClass{name: "native_fastcopy_1k", method: "SumF", arg: copyMsgF{Seq: seq, Data: data},
			want: seq + int64(crc(data)), bytes: copyNativeBytes, weight: 2},
	)
	weights := make([]int, len(w.classes))
	for i, c := range w.classes {
		weights[i] = c.weight * copyPlanRounds
	}
	w.plan = shuffledPlan(rng, weights)
	return w, nil
}

// call performs one LRMI of class c and checks the returned checksum.
func (w *lrmiCopy) call(c *copyClass) bool {
	if c.vm {
		w.f.lrmis++
		out, err := w.f.cap.InvokeVM(w.f.task, c.method, c.arg)
		got, _ := out.(int64)
		return err == nil && got == c.want
	}
	w.natOps++
	out, err := w.nat.InvokeFrom(w.f.task, c.method, c.arg)
	if err != nil || len(out) != 1 {
		return false
	}
	got, _ := out[0].(int64)
	return got == c.want
}

func (w *lrmiCopy) op(r *recorder) {
	c := &w.classes[w.plan[w.next]]
	if w.next++; w.next == len(w.plan) {
		w.next = 0
	}
	t0 := time.Now()
	ok := w.call(c)
	t1 := time.Now()
	if r == nil {
		return
	}
	r.observe(t1.Sub(t0), 1, ok)
	if r.tr != nil {
		r.tr.add("op."+c.name, r.ops, t0, t1, -1)
	}
}

func (w *lrmiCopy) steps() []stepFunc {
	return []stepFunc{func(r *recorder, _ window) { w.op(r) }}
}

const copyWarmupOps = 20000

func (w *lrmiCopy) warmup() {
	for i := 0; i < copyWarmupOps; i++ {
		w.op(nil)
	}
}

func (w *lrmiCopy) verify() []string {
	// VM and native LRMIs both start in the client domain.
	w.f.lrmis += w.natOps
	w.natOps = 0
	return w.f.verifyCalls()
}

func (w *lrmiCopy) close() { w.f.task.Close() }

func (w *lrmiCopy) layers(rep *layerReport, trial func() trialResult) {
	f := w.f
	before := f.client.Stats()
	res := trial()
	after := f.client.Stats()
	ops := float64(res.Ops)
	rep.set("account.copy_bytes_per_op", float64(after.CopyBytes-before.CopyBytes)/ops)
	rep.set("account.alloc_bytes_per_op", float64(after.AllocBytes-before.AllocBytes)/ops)
	rep.set("vmkit.load_verify_ms", f.loadVerify.Seconds()*1e3)

	// Floors: the same gate crossings with nothing to copy.
	vmNull, _ := probe(func() {
		f.lrmis++
		if _, err := f.cap.InvokeVM(f.task, "nop"); err != nil {
			panic(err)
		}
	})
	natNull, natNullAllocs := probe(func() {
		w.natOps++
		if _, err := w.nat.InvokeFrom(w.f.task, "Null"); err != nil {
			panic(err)
		}
	})
	rep.set("core.lrmi_native_null_ns", natNull)
	rep.set("core.lrmi_native_null_allocs", natNullAllocs)

	// Per class: the whole call, and the copy alone through the module
	// that performs it, on the very argument the workload passes.
	reg := f.k.SeriRegistry()
	copier := fastcopy.New()
	var serNS, serKB, fastNS, fastKB float64
	var mixUs, mixCopyUs, mixFloorUs, total float64
	for i := range w.classes {
		c := &w.classes[i]
		callNS, callAllocs := probe(func() {
			if !w.call(c) {
				panic("lrmi_copy: wrong checksum from " + c.name)
			}
		})
		var copyNS, floor float64
		switch {
		case c.vm:
			floor = vmNull
			obj := vmkit.RefVal(c.arg.(*vmkit.Object))
			copyNS, _ = probe(func() {
				if _, _, err := f.k.CopyValueBetween(f.server, obj); err != nil {
					panic(err)
				}
			})
			kb := float64(c.bytes) / 1024
			if c.method == "sink" {
				serNS, serKB = serNS+callNS-vmNull, serKB+kb
			} else {
				fastNS, fastKB = fastNS+callNS-vmNull, fastKB+kb
			}
		case c.method == "SumS":
			floor = natNull
			var allocs float64
			copyNS, allocs = probe(func() {
				if _, err := seri.Copy(reg, c.arg); err != nil {
					panic(err)
				}
			})
			rep.set("seri.roundtrip_allocs", allocs)
			w.seriProbe(rep, reg, c.arg)
		default:
			floor = natNull
			var allocs float64
			copyNS, allocs = probe(func() {
				if _, err := copier.Copy(c.arg); err != nil {
					panic(err)
				}
			})
			rep.set("fastcopy.copy_ns", copyNS)
			rep.set("fastcopy.copy_allocs", allocs)
		}
		rep.counters["call_ns."+c.name] = callNS
		rep.counters["call_allocs."+c.name] = callAllocs
		rep.counters["copy_ns."+c.name] = copyNS
		wgt := float64(c.weight)
		total += wgt
		mixUs += wgt * callNS / 1e3
		mixCopyUs += wgt * copyNS / 1e3
		mixFloorUs += wgt * floor / 1e3
	}
	// Argument call minus null call, per KiB copied (Table 4's contrast).
	rep.set("core.vmcopy_ser_ns_per_kb", serNS/serKB)
	rep.set("core.vmcopy_fast_ns_per_kb", fastNS/fastKB)

	// Generator against a no-op target: plan step, two clock reads, the
	// recorder, and a checksum compare.
	self, allocs := probe(func() {
		c := &w.classes[w.plan[w.next]]
		if w.next++; w.next == len(w.plan) {
			w.next = 0
		}
		t0 := time.Now()
		ok := c.want != 0
		discard.observe(time.Since(t0), 1, ok)
	})
	rep.set("loadgen.self_us_per_op", self/1e3)
	rep.set("loadgen.allocs_per_op", allocs)

	// Ledger over the mix (mean, not median: the classes differ by an
	// order of magnitude): the gate-crossing floor plus the copy alone,
	// held against the whole call. The callee's checksum walk and the
	// result's trip back are what is left.
	rep.ledgerE2E = mixUs / total
	rep.row("core.gate_crossing (null LRMI of the same kind)", mixFloorUs/total, "probe")
	rep.row("copy (CopyValueBetween / seri.Copy / fastcopy.Copy)", mixCopyUs/total, "probe")
}

// seriProbe times the two seri passes separately on the workload's
// serialized struct.
func (w *lrmiCopy) seriProbe(rep *layerReport, reg *seri.Registry, v any) {
	var wire []byte
	m, _ := probe(func() {
		var err error
		if wire, err = seri.Marshal(reg, v); err != nil {
			panic(err)
		}
	})
	u, _ := probe(func() {
		if _, err := seri.Unmarshal(reg, wire); err != nil {
			panic(err)
		}
	})
	rep.set("seri.marshal_ns", m)
	rep.set("seri.unmarshal_ns", u)
	rep.set("seri.bytes_per_msg", float64(len(wire)))
	rep.set("seri.planned_type_ratio", plannedRatio(reg))
}

// plannedRatio is the share of registered wire types that have a
// compiled marshaler plan.
func plannedRatio(reg *seri.Registry) float64 {
	plans := reg.Plans()
	if len(plans) == 0 {
		return 0
	}
	var generated int
	for _, p := range plans {
		if p.Generated {
			generated++
		}
	}
	return float64(generated) / float64(len(plans))
}
