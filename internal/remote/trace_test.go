package remote

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
	"jkernel/internal/threads"
)

// chainRelay hops a call onward through a proxy imported from the next
// kernel in the chain — the supervisor→worker→worker shape. The handler
// builds its own task, so trace continuity depends on the serving side
// lending the inbound trace to its goroutine, not on the inbound task
// leaking through.
type chainRelay struct {
	k    *core.Kernel
	d    *core.Domain
	next *core.Capability
}

func (s *chainRelay) Hop(arg string) (string, error) {
	t := s.k.NewTask(s.d, "hop")
	defer t.Close()
	res, err := s.next.InvokeFrom(t, "Echo", arg)
	if err != nil {
		return "", err
	}
	out, _ := res[0].(string)
	return "hop:" + out, nil
}

// A trace begun on the supervisor must stitch through two wire hops: the
// app's client spans, the middle kernel's server and onward client spans,
// and the far kernel's server spans all share one trace id, with parent
// links resolving across kernels. Covers both the batched async path and
// the sync path.
func TestTracePropagatesAcrossKernelChain(t *testing.T) {
	far := core.MustNew(core.Options{TelemetryNode: "far"})
	mid := core.MustNew(core.Options{TelemetryNode: "mid"})
	app := core.MustNew(core.Options{TelemetryNode: "app"})

	fd, err := far.NewDomain(core.DomainConfig{Name: "far-svc"})
	if err != nil {
		t.Fatal(err)
	}
	md, err := mid.NewDomain(core.DomainConfig{Name: "mid-svc"})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := app.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}

	// far exports echo; mid imports it over one socket.
	echoCap, err := far.CreateNativeCapability(fd, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := far.Export("echo", echoCap); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	farLn, err := Listen(far, "unix", filepath.Join(dir, "far.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer farLn.Close()
	midToFar, err := Dial(mid, "unix", filepath.Join(dir, "far.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer midToFar.Close()
	farEcho, err := midToFar.Import("echo")
	if err != nil {
		t.Fatal(err)
	}

	// mid exports the relay; app imports it over a second socket.
	relayCap, err := mid.CreateNativeCapability(md, &chainRelay{k: mid, d: md, next: farEcho})
	if err != nil {
		t.Fatal(err)
	}
	if err := mid.Export("relay", relayCap); err != nil {
		t.Fatal(err)
	}
	midLn, err := Listen(mid, "unix", filepath.Join(dir, "mid.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer midLn.Close()
	appToMid, err := Dial(app, "unix", filepath.Join(dir, "mid.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer appToMid.Close()
	relay, err := appToMid.Import("relay")
	if err != nil {
		t.Fatal(err)
	}

	task := app.NewDetachedTask(ad, "traced")
	tc := task.BeginTrace()
	defer task.EndTrace()

	// Batched async fan-out: three invokes leave as one frame, each
	// carrying the trace context.
	var futs []*core.Future
	for i := 0; i < 3; i++ {
		futs = append(futs, relay.InvokeAsyncFrom(task, "Hop", "a"))
	}
	appToMid.Flush()
	if err := core.WaitAll(futs...); err != nil {
		t.Fatal(err)
	}
	// And one sync invoke on the same trace.
	res, err := relay.InvokeFrom(task, "Hop", "b")
	if err != nil || res[0] != any("hop:b") {
		t.Fatalf("sync hop: %#v %v", res, err)
	}

	appSpans := app.Tracer().TraceSpans(tc.TraceID)
	midSpans := mid.Tracer().TraceSpans(tc.TraceID)
	farSpans := far.Tracer().TraceSpans(tc.TraceID)

	// 4 calls × (app client, mid server, mid client, far server) plus the
	// kernels' local LRMI spans. Every kernel must have recorded under the
	// one trace id, and the whole chain must be at least 3 spans deep.
	if len(appSpans) == 0 || len(midSpans) == 0 || len(farSpans) == 0 {
		t.Fatalf("trace %s missing a kernel: app=%d mid=%d far=%d",
			telemetry.FormatID(tc.TraceID), len(appSpans), len(midSpans), len(farSpans))
	}
	all := append(append(appSpans, midSpans...), farSpans...)
	if len(all) < 12 {
		t.Fatalf("expected at least 12 spans across the chain, got %d", len(all))
	}

	// Parent links stitch across kernels: every wire server span's parent
	// must be a span id recorded somewhere in the trace (the peer's client
	// span), or the root context itself.
	ids := map[uint64]bool{tc.SpanID: true}
	for _, s := range all {
		ids[s.SpanID] = true
	}
	for _, s := range all {
		if s.Kind == "server" && !ids[s.Parent] {
			t.Fatalf("server span %s has dangling parent %s",
				telemetry.FormatID(s.SpanID), telemetry.FormatID(s.Parent))
		}
	}

	// An untraced call after EndTrace must NOT extend this trace.
	task.EndTrace()
	if _, err := relay.InvokeFrom(task, "Hop", "c"); err != nil {
		t.Fatal(err)
	}
	if n := len(app.Tracer().TraceSpans(tc.TraceID)); n != len(appSpans) {
		t.Fatalf("untraced call extended the trace: %d -> %d spans", len(appSpans), n)
	}
}

// One invoke path means one set of books: the client span of a blocking
// call and of an asynchronous one differ only in their ids and clocks —
// same trace, same parent, same callee and method, the same error text —
// for a call that succeeds and for one that fails.
func TestSyncAndAsyncClientSpansMatch(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	tc := p.task.BeginTrace()
	defer p.task.EndTrace()

	for _, method := range []string{"Null", "NoSuchMethod"} {
		before := len(p.client.Tracer().TraceSpans(tc.TraceID))
		_, syncErr := proxy.InvokeFrom(p.task, method)
		_, asyncErr := proxy.InvokeAsyncFrom(p.task, method).Wait()
		if (syncErr == nil) != (asyncErr == nil) || (method == "Null") != (syncErr == nil) {
			t.Fatalf("%s: sync %v, async %v", method, syncErr, asyncErr)
		}
		var client []telemetry.Span
		for _, s := range p.client.Tracer().TraceSpans(tc.TraceID)[before:] {
			if s.Kind == "client" {
				client = append(client, s)
			}
		}
		if len(client) != 2 {
			t.Fatalf("%s: %d client spans for one sync and one async call, want 2", method, len(client))
		}
		a, b := client[0], client[1]
		if a.SpanID == b.SpanID || a.SpanID == 0 || b.SpanID == 0 {
			t.Fatalf("%s: span ids %d and %d", method, a.SpanID, b.SpanID)
		}
		a.SpanID, a.Start, a.Dur = 0, time.Time{}, 0
		b.SpanID, b.Start, b.Dur = 0, time.Time{}, 0
		if a != b {
			t.Fatalf("%s: sync and async client spans differ:\nsync  %+v\nasync %+v", method, a, b)
		}
		if a.TraceID != tc.TraceID || a.Parent != tc.SpanID || a.Method != method || (a.Err == "") != (method == "Null") {
			t.Fatalf("%s: client span %+v does not describe the call (trace %d, parent %d)", method, a, tc.TraceID, tc.SpanID)
		}
	}
}

// outcomeProbe reports what a served call's handler sees: whether an
// ambient invoke finds the goroutine not entered, whether a task the
// handler makes joins a trace, and the goroutine that served the call.
type outcomeProbe struct {
	k      *core.Kernel
	d      *core.Domain
	target *core.Capability // a capability local to the serving kernel
}

func (p *outcomeProbe) Probe() (bool, bool, int64, error) {
	_, err := p.target.Invoke("Null")
	task := p.k.NewTask(p.d, "probe")
	traced := task.TraceContext().Active()
	task.Close()
	return errors.Is(err, core.ErrNotEntered), traced, threads.GoroutineID(), nil
}

// Tracing changes no outcome. A served native method's ambient invoke
// fails with ErrNotEntered on a traced frame as on an untraced one, and a
// claimer goroutine that has just served a traced call hands the next,
// untraced call's handler no trace: served tasks and claimers are
// recycled, so a trace left on either would leak into unrelated calls.
func TestTraceChangesNoOutcome(t *testing.T) {
	p := newPair(t)
	target, err := p.server.CreateNativeCapability(p.serverDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	p.export(t, "probe", &outcomeProbe{k: p.server, d: p.serverDom, target: target})
	proxy, err := p.conn.Import("probe")
	if err != nil {
		t.Fatal(err)
	}
	probe := func(traced bool) int64 {
		t.Helper()
		res, err := proxy.InvokeFrom(p.task, "Probe")
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != any(true) {
			t.Fatalf("traced=%v: an ambient invoke inside the served call did not fail with ErrNotEntered", traced)
		}
		if res[1] != any(traced) {
			t.Fatalf("traced=%v: the handler's NewTask joined a trace: %v", traced, res[1])
		}
		return res[2].(int64)
	}
	// lastTraced[g] says whether claimer g's last call was traced. Which
	// claimer serves a call is the scheduler's choice, so calls go on,
	// one traced in three, until some claimer has served an untraced
	// call right after a traced one, or maxCalls have gone.
	const maxCalls = 600
	lastTraced, reused := map[int64]bool{}, 0
	for i := 0; reused == 0 && i < maxCalls; i++ {
		traced := i%3 == 0
		if traced {
			p.task.BeginTrace()
		}
		g := probe(traced)
		p.task.EndTrace()
		if !traced && lastTraced[g] {
			reused++
		}
		lastTraced[g] = traced
	}
	if reused == 0 {
		t.Fatal("no untraced call was served by the claimer that had just served a traced one")
	}
}
