package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// The traced pass's span recorder. Spans are taken in the benchmark's own
// files at the boundaries it can see from outside — generator issue,
// entry and exit of benchmark-owned callee objects, reply seen — kept in
// memory, and written to <out>/trace_<workload>.json when the workload
// ends. Probes inside internal/* are a later change and will reuse these
// names.

// epoch is the process's time origin: callee stamps and spans are
// nanoseconds since it, so stamps taken in a callee object and spans
// taken in the generator share one monotonic clock.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// span is one timed interval. Spans of one op share Op; Parent is the
// index of the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the process's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// spanCap bounds the spans kept per workload (the trace file stays a few
// tens of MiB at most); later spans are counted in Dropped.
const spanCap = 300_000

type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
}

// add records a span and returns its index for use as a Parent, or -1
// when the recorder is full.
func (t *tracer) add(name string, op int64, start, end time.Time, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanCap {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Start: int64(start.Sub(epoch)), End: int64(end.Sub(epoch)), Parent: parent})
	return int32(len(t.spans) - 1)
}

// full reports whether further spans would be dropped; callers that
// record several spans per op check it once so an op is traced whole or
// not at all.
func (t *tracer) full(need int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)+need > spanCap
}

// ledgerRow is one line of a workload's cost ledger: a layer's time on
// the blocking path of one op. Source says how it was measured: "probe"
// rows are timed calls into a module's exported functions (or into the
// host's sockets and scheduler) on the workload's own inputs, "counter"
// rows come from an account kept by the runtime. No row is measured on
// the op the ledger is held against, so the sum can miss it.
type ledgerRow struct {
	Name   string  `json:"name"`
	Us     float64 `json:"us_per_op"`
	Source string  `json:"source"`
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func (t *tracer) selfTimes() []int64 {
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			ks, ke := max(t.spans[k].Start, edge), min(t.spans[k].End, s.End)
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfSummary returns, per span name, the mean self time in µs (costs
// add, so means, not medians) and the span count.
func (t *tracer) selfSummary() map[string]selfStat {
	self := t.selfTimes()
	total := map[string]int64{}
	out := map[string]selfStat{}
	for i, s := range t.spans {
		total[s.Name] += self[i]
		st := out[s.Name]
		st.Count++
		out[s.Name] = st
	}
	for name, st := range out {
		st.MeanUs = float64(total[name]) / float64(st.Count) / 1e3
		out[name] = st
	}
	return out
}

type selfStat struct {
	MeanUs float64 `json:"mean_self_us"`
	Count  int     `json:"count"`
}

// spanP50us returns the median duration of the spans called name.
func (t *tracer) spanP50us(name string) float64 {
	var d []int64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.End-s.Start)
		}
	}
	slices.Sort(d)
	return quantile(d, 0.5) / 1e3
}

// write stores the trace, with each span name's mean self time and the
// counter deltas taken at the same boundaries, as <dir>/trace_<workload>.json.
func (t *tracer) write(dir, workload string, counters map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string              `json:"workload"`
		Dropped  int64               `json:"dropped_spans"`
		Counters map[string]float64  `json:"counters"`
		Self     map[string]selfStat `json:"self_time_by_span"`
		Spans    []span              `json:"spans"`
	}{workload, t.dropped, counters, t.selfSummary(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}
