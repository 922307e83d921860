package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jkernel/internal/raceflag"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(10)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should read 0")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Edge("a", "b") != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	r.Eventf("ignored")
	r.GaugeFunc("x", func() int64 { return 1 })
	if s := r.Snapshot(); s == nil {
		t.Fatal("nil registry snapshot should be non-nil and empty")
	}
	var tr *Tracer
	tr.Record(&Span{})
	if tr.Recent() != nil || tr.Slow() != nil || tr.TraceSpans(1) != nil {
		t.Fatal("nil tracer should be inert")
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if low := bucketLow(b); float64(v) < low {
			t.Fatalf("bucketOf(%d) = %d but bucketLow = %g > value", v, b, low)
		}
		prev = b
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// Uniform 1..1000: p50 ≈ 500, p99 ≈ 990, within the ±~9% bucket width
	// plus interpolation error.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-500.5) > 0.001 {
		t.Fatalf("mean = %g", m)
	}
	if p := h.Quantile(0.50); p < 400 || p > 620 {
		t.Fatalf("p50 = %g, want ≈500", p)
	}
	if p := h.Quantile(0.99); p < 850 || p > 1150 {
		t.Fatalf("p99 = %g, want ≈990", p)
	}
}

// TestHistogramHammer drives one histogram from 64 goroutines under -race:
// the satellite concurrency guarantee that Observe/Quantile/Snapshot are
// safe to run concurrently with no locks.
func TestHistogramHammer(t *testing.T) {
	h := &Histogram{}
	const goroutines = 64
	const perG = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers while writers hammer.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Quantile(0.99)
					h.Snapshot()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var sum int64
	for i := 0; i < histBuckets; i++ {
		sum += h.bucket[i].Load()
	}
	if sum != goroutines*perG {
		t.Fatalf("bucket sum = %d, want %d", sum, goroutines*perG)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry("test")
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	r.Gauge("g").Set(7)
	r.GaugeFunc("fn", func() int64 { return 42 })
	r.Histogram("h").Observe(100)
	r.Edge("alpha", "beta").Add(3)
	r.Edge("alpha", "beta").Inc()
	r.Edge("beta", "gamma").Inc()
	r.Eventf("hello %d", 1)

	s := r.Snapshot()
	if s.Node != "test" {
		t.Fatalf("node = %q", s.Node)
	}
	if s.Counters["a"] != 3 {
		t.Fatalf("counter a = %d", s.Counters["a"])
	}
	if s.Gauges["g"] != 7 || s.Gauges["fn"] != 42 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("histogram h = %+v", s.Histograms["h"])
	}
	want := []EdgeSnapshot{{"alpha", "beta", 4}, {"beta", "gamma", 1}}
	if len(s.CallGraph) != 2 || s.CallGraph[0] != want[0] || s.CallGraph[1] != want[1] {
		t.Fatalf("callgraph = %+v", s.CallGraph)
	}
	if len(s.Events) != 1 || s.Events[0].Msg != "hello 1" {
		t.Fatalf("events = %+v", s.Events)
	}

	r.DropGauge("fn")
	if _, ok := r.Snapshot().Gauges["fn"]; ok {
		t.Fatal("dropped gauge fn still in snapshot")
	}
}

func TestEventRingWraps(t *testing.T) {
	r := NewRegistry("test")
	for i := 0; i < eventRingCap+10; i++ {
		r.Eventf("e%d", i)
	}
	ev := r.Events()
	if len(ev) != eventRingCap {
		t.Fatalf("len = %d, want %d", len(ev), eventRingCap)
	}
	if ev[0].Msg != "e10" || ev[len(ev)-1].Msg != fmt.Sprintf("e%d", eventRingCap+9) {
		t.Fatalf("ring window wrong: first %q last %q", ev[0].Msg, ev[len(ev)-1].Msg)
	}
}

func TestTracerRingAndSlowLog(t *testing.T) {
	tr := NewTracer("node-a")
	base := time.Now()
	id := NewID()
	for i := 0; i < 5; i++ {
		d := DefaultSlowCall - time.Microsecond
		if i == 3 {
			d = DefaultSlowCall
		}
		tr.Record(&Span{TraceID: id, SpanID: NewID(), Method: fmt.Sprintf("m%d", i), Start: base.Add(time.Duration(i)), Dur: d})
	}
	if got := tr.Recent(); len(got) != 5 || got[0].Method != "m0" || got[0].Node != "node-a" {
		t.Fatalf("recent = %+v", got)
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].Method != "m3" {
		t.Fatalf("slow = %+v", slow)
	}
	if got := tr.TraceSpans(id); len(got) != 5 {
		t.Fatalf("trace spans = %d", len(got))
	}
	if got := tr.TraceSpans(id + 1); len(got) != 0 {
		t.Fatalf("foreign trace spans = %d", len(got))
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer("n")
	for i := 0; i < recentSpanCap*2; i++ {
		tr.Record(&Span{TraceID: 1, SpanID: uint64(i + 1), Start: time.Unix(0, int64(i))})
	}
	if got := len(tr.Recent()); got != recentSpanCap {
		t.Fatalf("recent len = %d, want %d", got, recentSpanCap)
	}
}

func TestIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %x", id)
		}
		seen[id] = true
	}
	id := NewID()
	parsed, err := ParseID(FormatID(id))
	if err != nil || parsed != id {
		t.Fatalf("round trip: %x -> %q -> %x (%v)", id, FormatID(id), parsed, err)
	}
}

// Spans arrive from other processes (HandlerConfig.RemoteSpans), so a
// malformed id is an error, never a silent zero: a zero parent would turn
// the span into a root of its trace.
func TestSpanJSONHexIDs(t *testing.T) {
	s := Span{TraceID: 0xdeadbeefcafe0001, SpanID: 0x2, Parent: 0x3, Node: "n", Kind: "client", Method: "Echo"}
	good, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	if m["trace"] != "deadbeefcafe0001" || m["span"] != "2" || m["parent"] != "3" {
		t.Fatalf("ids = %v %v %v", m["trace"], m["span"], m["parent"])
	}
	for _, tc := range []struct {
		name, json string
		want       Span // compared when wantErr is empty
		wantErr    string
	}{
		{name: "round trip", json: string(good), want: s},
		{name: "root", json: `{"trace":"a","span":"a","method":"M"}`, want: Span{TraceID: 10, SpanID: 10, Method: "M"}},
		{name: "bad trace", json: `{"trace":"xyz","span":"2","parent":"3"}`, wantErr: "trace id"},
		{name: "missing trace", json: `{"span":"2","parent":"3"}`, wantErr: "trace id"},
		{name: "bad span", json: `{"trace":"1","span":"-2","parent":"3"}`, wantErr: "span id"},
		{name: "bad parent", json: `{"trace":"1","span":"2","parent":"3g"}`, wantErr: "parent id"},
		{name: "parent overflows", json: `{"trace":"1","span":"2","parent":"10000000000000000"}`, wantErr: "parent id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got Span
			err := json.Unmarshal([]byte(tc.json), &got)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unmarshal: %v", err)
			case tc.wantErr == "" && got != tc.want:
				t.Fatalf("got %+v, want %+v", got, tc.want)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one naming the %s (span %+v)", err, tc.wantErr, got)
			}
		})
	}
}

// Finish holds the span rules of every instrumented layer: an untraced
// call is a span only when it failed or was slow (and then its own
// single-span trace), and a traced call always is, under its caller's span.
func TestFinishSpanRules(t *testing.T) {
	tr := NewTracer("n")
	h := NewRegistry("n").Histogram("lat")
	start := time.Now()
	call := Span{Kind: "local", Caller: "a", Callee: "b", Method: "M", Start: start}

	tr.Finish(h, call, nil) // untraced, fast, fine
	if n, c := len(tr.Recent()), h.Count(); n != 0 || c != 1 {
		t.Fatalf("after a fast untraced call: %d spans, %d observations; want 0 and 1", n, c)
	}

	tr.Finish(h, call, errors.New("boom"))
	failed := tr.Recent()
	if len(failed) != 1 || failed[0].Err != "boom" || failed[0].SpanID == 0 || failed[0].TraceID != failed[0].SpanID || failed[0].Parent != 0 {
		t.Fatalf("failed untraced call: %+v, want one root span on a trace of its own", failed)
	}

	slow := call
	slow.Start = time.Now().Add(-2 * DefaultSlowCall)
	tr.Finish(h, slow, nil)
	if got := tr.Slow(); len(got) != 1 || len(tr.Recent()) != 2 || got[0].Err != "" || got[0].TraceID != got[0].SpanID {
		t.Fatalf("slow untraced call: %+v", got)
	}

	traced := call
	traced.TraceID, traced.SpanID, traced.Parent = 7, 9, 8
	tr.Finish(h, traced, nil)
	got := tr.TraceSpans(7)
	if len(got) != 1 || got[0].SpanID != 9 || got[0].Parent != 8 || got[0].Node != "n" || got[0].Method != "M" || got[0].Dur <= 0 {
		t.Fatalf("traced call: %+v", got)
	}
	if c := h.Count(); c != 4 {
		t.Fatalf("%d latency observations, want 4 (every sampled call)", c)
	}
}

// TestAllocsFinishUntracedFastCall pins the common sampled call — untraced,
// fast, successful — at zero allocations in the shared span function.
func TestAllocsFinishUntracedFastCall(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := NewTracer("n")
	h := NewRegistry("n").Histogram("lat")
	call := Span{Kind: "local", Caller: "a", Callee: "b", Method: "M", Start: time.Now()}
	if got := testing.AllocsPerRun(1000, func() { tr.Finish(h, call, nil) }); got != 0 {
		t.Fatalf("Finish of an untraced fast call: %.2f allocs, want 0", got)
	}
	if n := len(tr.Recent()); n != 0 {
		t.Fatalf("untraced fast calls recorded %d spans", n)
	}
}

func TestDebugHandler(t *testing.T) {
	reg := NewRegistry("node-a")
	reg.Counter("c").Inc()
	tr := NewTracer("node-a")
	id := NewID()
	tr.Record(&Span{TraceID: id, SpanID: 1, Method: "A", Start: time.Unix(1, 0)})
	tr.Record(&Span{TraceID: id, SpanID: 2, Parent: 1, Method: "B", Start: time.Unix(2, 0)})
	tr.Record(&Span{TraceID: id + 1, SpanID: 3, Method: "C", Start: time.Unix(3, 0)})

	remote := func(traceID uint64) []Span {
		if traceID != id {
			return nil
		}
		return []Span{{TraceID: id, SpanID: 4, Parent: 2, Node: "node-b", Method: "D", Start: time.Unix(4, 0)}}
	}
	h := Handler(HandlerConfig{Registries: []*Registry{reg}, Tracers: []*Tracer{tr}, RemoteSpans: remote})

	// Snapshot page.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jk", nil))
	var page DebugPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Snapshots) != 1 || page.Snapshots[0].Counters["c"] != 1 {
		t.Fatalf("snapshots = %+v", page.Snapshots)
	}
	if len(page.Recent) != 3 {
		t.Fatalf("recent = %d spans", len(page.Recent))
	}

	// Single-trace page stitches in the remote span.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jk?trace="+FormatID(id), nil))
	var tp TracePage
	if err := json.Unmarshal(rec.Body.Bytes(), &tp); err != nil {
		t.Fatal(err)
	}
	if tp.Trace != FormatID(id) || len(tp.Spans) != 3 {
		t.Fatalf("trace page = %+v", tp)
	}
	if tp.Spans[2].Node != "node-b" {
		t.Fatalf("stitched span order wrong: %+v", tp.Spans)
	}

	// Bad id is a 400, not a panic.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jk?trace=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace id status = %d", rec.Code)
	}
}
