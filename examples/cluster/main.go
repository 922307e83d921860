// The cluster example runs the J-Kernel's remote-kernel subsystem end to
// end: a supervisor kernel shards work across two worker kernel
// *processes*, invoking their capabilities through proxies that behave
// exactly like local ones. It then demonstrates the two failure paths the
// design is about:
//
//   - revocation propagates across the wire: a worker revoking an exported
//     capability faults the supervisor's proxy with ErrRevoked;
//   - a crashed worker surfaces as a capability fault — never as a
//     supervisor crash — and the pool restarts the process, after which
//     the supervisor reconnects and resumes.
//
// It then demonstrates the observability layer: a traced relay chain
// (supervisor → worker 0 → worker 1) is stitched into one trace and
// retrieved from the supervisor's /debug/jk endpoint, alongside a
// telemetry snapshot with the cross-domain call graph.
//
// Run: go run ./examples/cluster
// (the binary re-executes itself as the worker processes).
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"jkernel"
	"jkernel/servlet"
)

func main() {
	// Worker children re-enter main here and never return.
	jkernel.MaybeRunWorker(workerSetup)

	fmt.Println("== J-Kernel cluster: supervisor + 2 worker processes ==")
	sup := jkernel.New(jkernel.Options{TelemetryNode: "supervisor"})
	app, err := sup.NewDomain(jkernel.DomainConfig{Name: "app"})
	check(err)
	task := sup.NewTask(app, "supervisor")
	defer task.Close()

	pool, err := jkernel.StartWorkerPool(jkernel.WorkerPoolOptions{
		Workers: 2,
		Log:     func(f string, a ...any) { fmt.Printf("  [pool] "+f+"\n", a...) },
	})
	check(err)
	defer pool.Close()

	// Connect to both workers and import their counter shards.
	conns := make([]*jkernel.RemoteConn, pool.Size())
	counters := make([]*jkernel.Capability, pool.Size())
	for i := 0; i < pool.Size(); i++ {
		conns[i], err = pool.Worker(i).Dial(sup, 10*time.Second)
		check(err)
		counters[i], err = conns[i].Import("counter")
		check(err)
	}
	fmt.Println("-- imported 'counter' from both workers")

	// Shard increments across the workers; each holds its own state.
	for n := 0; n < 10; n++ {
		shard := n % len(counters)
		_, err := counters[shard].InvokeFrom(task, "Add", int64(1))
		check(err)
	}
	for i, c := range counters {
		res, err := c.InvokeFrom(task, "Get")
		check(err)
		fmt.Printf("-- worker %d counter shard: %v\n", i, res[0])
	}

	// Fan out asynchronously: queue one future per call across both
	// shards, flush, and join once. Calls queued on a connection coalesce
	// into multi-invoke frames (the paper's Table 4 lesson applied to the
	// wire), so this wave costs a handful of frames, not 100 round trips.
	const wave = 100
	futs := make([]*jkernel.Future, 0, wave)
	for n := 0; n < wave; n++ {
		shard := n % len(counters)
		futs = append(futs, counters[shard].InvokeAsyncFrom(task, "Add", int64(1)))
	}
	for _, c := range conns {
		c.Flush()
	}
	check(jkernel.WaitAll(futs...))
	for i, c := range counters {
		res, err := c.InvokeFrom(task, "Get")
		check(err)
		fmt.Printf("-- after async fan-out of %d: worker %d shard at %v\n", wave, i, res[0])
	}

	// --- Observability ---------------------------------------------------
	// A traced relay chain: the supervisor begins a trace and asks worker 0
	// to Relay into worker 1's counter. The capability argument is the
	// supervisor's proxy to worker 1, so the hop routes worker0 → supervisor
	// → worker1 — three kernels, one trace id carried in every frame.
	relay, err := conns[0].Import("relay")
	check(err)
	tc := task.BeginTrace()
	res, err := relay.InvokeFrom(task, "Relay", counters[1], int64(1))
	check(err)
	task.EndTrace()
	fmt.Printf("-- traced relay chain returned %v under trace %s\n",
		res[0], jkernel.FormatTraceID(tc.TraceID))

	// Serve /debug/jk on the supervisor, stitching worker spans in via each
	// worker's exported jk.telemetry capability, and query the trace back.
	queryTask := sup.NewDetachedTask(app, "trace-query")
	remoteSpans := func(traceID uint64) []jkernel.Span {
		var out []jkernel.Span
		for _, c := range conns {
			tcap, err := c.Import("jk.telemetry")
			if err != nil {
				continue
			}
			res, err := tcap.InvokeFrom(queryTask, "Spans", jkernel.FormatTraceID(traceID))
			if err != nil {
				continue
			}
			raw, _ := res[0].([]byte)
			var spans []jkernel.Span
			if json.Unmarshal(raw, &spans) == nil {
				out = append(out, spans...)
			}
		}
		return out
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer ln.Close()
	go http.Serve(ln, jkernel.DebugHandlerWith(sup, remoteSpans))

	var page struct {
		Trace string         `json:"trace"`
		Spans []jkernel.Span `json:"spans"`
	}
	getJSON(fmt.Sprintf("http://%s/debug/jk?trace=%s", ln.Addr(), jkernel.FormatTraceID(tc.TraceID)), &page)
	nodes := map[string]bool{}
	fmt.Printf("-- /debug/jk?trace=%s: %d spans\n", page.Trace, len(page.Spans))
	for _, s := range page.Spans {
		nodes[s.Node] = true
		fmt.Printf("     [%s] %-6s %s -> %s %s (%v)\n", s.Node, s.Kind, s.Caller, s.Callee, s.Method, s.Dur)
	}
	if len(page.Spans) < 3 || len(nodes) < 2 {
		fail("trace did not stitch: %d spans across %d kernels", len(page.Spans), len(nodes))
	}
	fmt.Printf("-- trace stitched across %d kernels\n", len(nodes))

	// Telemetry snapshot: the supervisor's own registry, including the
	// cross-domain call graph and wire counters.
	snap := jkernel.Metrics(sup).Snapshot()
	fmt.Printf("-- supervisor snapshot: %d async starts, %d call vectors out\n",
		snap.Counters["core.async.starts"], snap.Counters["remote.frames_out.invoke"])
	if h, ok := snap.Histograms["remote.invoke.latency_ns"]; ok {
		fmt.Printf("   wire invoke latency: n=%d p50=%.0fns p99=%.0fns\n", h.Count, h.P50, h.P99)
	}
	for _, e := range snap.CallGraph {
		fmt.Printf("   edge %s -> %s: %d calls\n", e.Caller, e.Callee, e.Calls)
	}

	// --- Three-party handoff ---------------------------------------------
	// The supervisor hands its worker-1 counter proxy to worker 0. A naive
	// implementation would relay every worker-0 call through the
	// supervisor forever; instead the re-export mints a handoff ticket and
	// worker 0 redeems it with worker 1 directly, silently dropping the
	// middle hop. The proof is in the supervisor's own telemetry: a burst
	// of worker-0 -> worker-1 calls relays zero calls and adds zero new
	// call-graph edges at the supervisor.
	holder, err := conns[0].Import("holder")
	check(err)
	_, err = holder.InvokeFrom(task, "Set", counters[1])
	check(err)
	shortenBy := time.Now().Add(10 * time.Second)
	for {
		res, err = holder.InvokeFrom(task, "Direct")
		check(err)
		if res[0] == true {
			break
		}
		if time.Now().After(shortenBy) {
			fail("handoff never shortened worker 0's route to worker 1")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("-- worker 0 redeemed the handoff ticket: its worker-1 route is direct")

	before := jkernel.Metrics(sup).Snapshot()
	for n := 0; n < 20; n++ {
		_, err = holder.InvokeFrom(task, "Call")
		check(err)
	}
	after := jkernel.Metrics(sup).Snapshot()
	// Every call the supervisor serves for a peer is an edge whose caller is
	// that connection's domain (remote-<n>); a connection's bootstrap (a
	// worker's hello, say) is its own domain, so only edges to another
	// domain are calls relayed onward.
	relayed := servedCalls(after) - servedCalls(before)
	if relayed != 0 {
		fail("worker->worker calls relayed %d calls through the supervisor", relayed)
	}
	if len(after.CallGraph) != len(before.CallGraph) {
		fail("worker->worker calls grew the supervisor's call graph (%d -> %d edges)",
			len(before.CallGraph), len(after.CallGraph))
	}
	fmt.Println("-- 20 worker-0 -> worker-1 calls: zero relayed calls, zero new call-graph edges at the supervisor")

	// Revocation across the wire: ask worker 1 to revoke its counter.
	admin, err := conns[1].Import("admin")
	check(err)
	_, err = admin.InvokeFrom(task, "RevokeCounter")
	check(err)
	_, err = counters[1].InvokeFrom(task, "Add", int64(1))
	if !errors.Is(err, jkernel.ErrRevoked) {
		fail("expected ErrRevoked after remote revocation, got: %v", err)
	}
	fmt.Println("-- worker 1 revoked its counter: supervisor proxy faults with ErrRevoked")

	// Crash drill: kill worker 0 outright. The supervisor observes a
	// capability fault, not a crash.
	check(pool.Worker(0).Kill())
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err = counters[0].InvokeFrom(task, "Add", int64(1))
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			fail("worker 0 death never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(err, jkernel.ErrRevoked) {
		fail("expected a capability fault after worker crash, got: %v", err)
	}
	fmt.Println("-- worker 0 killed: supervisor observes a capability fault and keeps running")

	// The pool restarts the worker; reconnect and resume with fresh state.
	conn, err := pool.Worker(0).Dial(sup, 15*time.Second)
	check(err)
	defer conn.Close()
	counter, err := conn.Import("counter")
	check(err)
	res, err = counter.InvokeFrom(task, "Add", int64(1))
	check(err)
	fmt.Printf("-- worker 0 restarted (restarts=%d): fresh counter shard at %v\n",
		pool.Worker(0).Restarts(), res[0])

	// --- Cluster control plane -------------------------------------------
	// Everything above drives workers by hand. The scheduler automates it:
	// a bridge fronts servlets placed across a managed pool, and a crashed
	// worker's servlets fail over to survivors within a probe interval.
	fmt.Println("-- starting control plane: bridge + 2 scheduled workers (consistent-hash)")
	bridge, err := servlet.NewBridge(sup)
	check(err)
	cluster, err := jkernel.StartCluster(jkernel.ClusterOptions{
		Kernel:        sup,
		Bridge:        bridge,
		MinWorkers:    2,
		Strategy:      jkernel.ConsistentHash(),
		ProbeInterval: 100 * time.Millisecond,
		Autoscale:     jkernel.ClusterAutoscale{Disabled: true},
	})
	check(err)
	defer cluster.Close()
	for _, name := range []string{"alpha", "beta", "gamma"} {
		check(cluster.Deploy(name, "/"+name+"/", jkernel.DeploySpec{Kind: "native", Impl: "hello"}))
	}
	stats := jkernel.ClusterStats(cluster)
	for _, sv := range stats.Servlets {
		fmt.Printf("   servlet %q placed on worker %d\n", sv.Name, sv.Worker)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer cln.Close()
	go http.Serve(cln, bridge)
	fmt.Printf("-- GET /alpha/hi: %s\n", httpGet(fmt.Sprintf("http://%s/alpha/hi", cln.Addr())))

	// Failover drill: SIGKILL the worker hosting "alpha". The pool
	// restarts the process; meanwhile the scheduler re-places alpha onto
	// the survivor, and — the strategy being sticky — pulls it home once
	// the restarted worker passes readiness.
	owner := -1
	for _, sv := range jkernel.ClusterStats(cluster).Servlets {
		if sv.Name == "alpha" {
			owner = sv.Worker
		}
	}
	for _, w := range cluster.Pool().Workers() {
		if w.Index == owner {
			check(w.Kill())
		}
	}
	fmt.Printf("-- killed worker %d (owner of alpha)\n", owner)
	deadline = time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/alpha/hi", cln.Addr()))
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fmt.Printf("-- alpha failed over: %s\n", body)
				break
			}
		}
		if time.Now().After(deadline) {
			fail("alpha never failed over")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats = jkernel.ClusterStats(cluster)
	fmt.Printf("-- control plane: %d replacement(s), %d move(s); workers:\n", stats.Replaces, stats.Moves)
	for _, w := range stats.Workers {
		fmt.Printf("   worker %d: %s (restarts=%d, servlets=%v)\n", w.Worker, w.State, w.Restarts, w.Servlets)
	}

	fmt.Println("== cluster demo complete ==")
}

// servedCalls sums the call-graph edges from a connection domain to any
// other domain: the calls a kernel served for its peers past their
// connections' bootstraps.
func servedCalls(snap *jkernel.MetricsSnapshot) int64 {
	n := int64(0)
	for _, e := range snap.CallGraph {
		if strings.HasPrefix(e.Caller, "remote-") && e.Caller != e.Callee {
			n += e.Calls
		}
	}
	return n
}

// helloServlet is the control-plane demo's native servlet: its body names
// the worker process serving it, so failover is visible in the output.
type helloServlet struct{}

func (helloServlet) Service(req *servlet.Request) (*servlet.Response, error) {
	return &servlet.Response{
		Status: 200,
		Body:   []byte(fmt.Sprintf("hello from pid %d: %s", os.Getpid(), req.Path)),
	}, nil
}

// httpGet fetches url and returns the body, failing the demo on error.
func httpGet(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	check(err)
	if resp.StatusCode != http.StatusOK {
		fail("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body)
}

// workerSetup is the worker kernel body: a counter shard, plus an admin
// service that can revoke the counter (the wire-revocation demo).
func workerSetup(k *jkernel.Kernel) error {
	d, err := k.NewDomain(jkernel.DomainConfig{Name: "svc"})
	if err != nil {
		return err
	}
	counter, err := k.CreateNativeCapability(d, &counterSvc{})
	if err != nil {
		return err
	}
	if err := k.Export("counter", counter); err != nil {
		return err
	}
	admin, err := k.CreateNativeCapability(d, &adminSvc{counter: counter})
	if err != nil {
		return err
	}
	if err := k.Export("admin", admin); err != nil {
		return err
	}
	relay, err := k.CreateNativeCapability(d, &relaySvc{k: k, d: d})
	if err != nil {
		return err
	}
	if err := k.Export("relay", relay); err != nil {
		return err
	}
	holder, err := k.CreateNativeCapability(d, &holderSvc{k: k, d: d})
	if err != nil {
		return err
	}
	if err := k.Export("holder", holder); err != nil {
		return err
	}
	tel, err := k.CreateNativeCapability(d, &telemetrySvc{k: k})
	if err != nil {
		return err
	}
	if err := k.Export("jk.telemetry", tel); err != nil {
		return err
	}
	// The control-plane demo's deployer: lets the scheduler place "hello"
	// servlets on this worker.
	_, err = jkernel.ServeClusterWorker(k, map[string]func() servlet.Servlet{
		"hello": func() servlet.Servlet { return helloServlet{} },
	})
	return err
}

// holderSvc keeps a capability handed to it and calls through it later —
// the re-export target of the three-party handoff demo. The capability
// the supervisor passes in arrives as a relay through the supervisor;
// the handoff protocol then shortens it to a direct import from its
// origin kernel.
type holderSvc struct {
	k    *jkernel.Kernel
	d    *jkernel.Domain
	mu   sync.Mutex
	held *jkernel.Capability
}

// Set stores the handed-off capability.
func (h *holderSvc) Set(cap *jkernel.Capability) error {
	h.mu.Lock()
	h.held = cap
	h.mu.Unlock()
	return nil
}

// Direct reports whether the held capability's route has been shortened
// past the kernel that handed it over.
func (h *holderSvc) Direct() (bool, error) {
	h.mu.Lock()
	held := h.held
	h.mu.Unlock()
	if held == nil {
		return false, nil
	}
	return jkernel.HandoffDone(held), nil
}

// Call invokes Add(1) through the held capability.
func (h *holderSvc) Call() (int64, error) {
	h.mu.Lock()
	held := h.held
	h.mu.Unlock()
	if held == nil {
		return 0, fmt.Errorf("no capability held")
	}
	t := h.k.NewTask(h.d, "holder")
	defer t.Close()
	res, err := held.InvokeFrom(t, "Add", int64(1))
	if err != nil {
		return 0, err
	}
	out, _ := res[0].(int64)
	return out, nil
}

// relaySvc hops a call onward through whatever capability it is handed —
// here the supervisor passes its worker-1 proxy, so the hop chains
// worker0 → supervisor → worker1 under one trace.
type relaySvc struct {
	k *jkernel.Kernel
	d *jkernel.Domain
}

// Relay invokes Add(d) on the given capability and returns its result.
func (s *relaySvc) Relay(cap *jkernel.Capability, d int64) (int64, error) {
	t := s.k.NewTask(s.d, "relay")
	defer t.Close()
	res, err := cap.InvokeFrom(t, "Add", d)
	if err != nil {
		return 0, err
	}
	out, _ := res[0].(int64)
	return out, nil
}

// telemetrySvc exports the worker's recorded spans so the supervisor can
// stitch cross-process traces from its own /debug/jk endpoint.
type telemetrySvc struct{ k *jkernel.Kernel }

// Spans returns the worker's retained spans for one trace id, as JSON.
func (t *telemetrySvc) Spans(traceHex string) ([]byte, error) {
	id, err := jkernel.ParseTraceID(traceHex)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jkernel.Traces(t.k).TraceSpans(id))
}

type counterSvc struct {
	mu sync.Mutex
	n  int64
}

// Add increments the shard (inbound remote calls run concurrently).
func (c *counterSvc) Add(d int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n, nil
}

// Get returns the shard value.
func (c *counterSvc) Get() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, nil
}

type adminSvc struct{ counter *jkernel.Capability }

// RevokeCounter revokes the worker's counter capability; every remote
// proxy for it faults.
func (a *adminSvc) RevokeCounter() error {
	a.counter.Revoke()
	return nil
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(f string, a ...any) {
	fmt.Fprintf(os.Stderr, "cluster: "+f+"\n", a...)
	os.Exit(1)
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(url string, v any) {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	check(err)
	if resp.StatusCode != http.StatusOK {
		fail("GET %s: %s: %s", url, resp.Status, body)
	}
	check(json.Unmarshal(body, v))
}
