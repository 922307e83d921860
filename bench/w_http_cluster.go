package main

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/remote"
	"jkernel/internal/sched"
)

// http_cluster_open: the full path — HTTP front server, bridge, scheduler,
// wire, worker process. sched.Start runs two self-exec'd workers
// (autoscale off, least-loaded placement) hosting four benchmark-owned
// native servlets that each build a 1 KiB document per request. Users of
// a web server are independent of one another, so the loop is open: two
// sender connections follow a fixed schedule at half the offered rate
// each, and every request is timed from the moment it was due.

const (
	// openRate is the offered rate, requests per second. It is a constant
	// of the benchmark — calibrated once to about half of this path's
	// closed-loop capacity on a 2-core host (README.md) — and never
	// derived from anything measured at run time.
	openRate         = 5000
	clusterWorkers   = 2
	clusterServlets  = 4
	clusterDocBytes  = 1024
	clusterSLO       = 5 * time.Millisecond
	clusterStatsName = "bench.stats"
)

// workServlet is the cluster's servlet: it derives a 1 KiB document from
// the request path on every call (real CPU work, no sleep standing in for
// capacity) and counts its calls.
type workServlet struct{}

var workerCalls atomic.Int64

func (workServlet) Service(req *httpd.Request) (*httpd.Response, error) {
	workerCalls.Add(1)
	return &httpd.Response{Status: 200, Body: clusterDoc(req.Path)}, nil
}

// clusterDoc is the document for path: clusterDocBytes of lowercase text
// from an xorshift stream seeded by the path's hash.
func clusterDoc(path string) []byte {
	h := fnv.New64a()
	h.Write([]byte(path))
	x := h.Sum64() | 1
	doc := make([]byte, clusterDocBytes)
	for i := range doc {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		doc[i] = 'a' + byte(x%26)
	}
	return doc
}

// workerStats is the worker-side capability the benchmark reads callee
// counters through.
type workerStats struct{ k *core.Kernel }

// Calls returns how many requests this worker's servlets served.
func (s *workerStats) Calls() (int64, error) { return workerCalls.Load(), nil }

// ExecWorkers returns the largest executor pool among the worker's
// connections.
func (s *workerStats) ExecWorkers() (int64, error) {
	var most int64
	for name, v := range s.k.Telemetry().Snapshot().Gauges {
		if strings.HasSuffix(name, ".exec_workers") {
			most = max(most, v)
		}
	}
	return most, nil
}

// clusterWorkerSetup is the body of every self-exec'd worker kernel.
func clusterWorkerSetup(k *core.Kernel) error {
	if _, err := sched.ServeWorker(k, map[string]func() httpd.Servlet{
		"doc1k": func() httpd.Servlet { return workServlet{} },
	}); err != nil {
		return err
	}
	d, err := k.NewDomain(core.DomainConfig{Name: "bench-stats"})
	if err != nil {
		return err
	}
	return exportNative(k, d, clusterStatsName, &workerStats{k: k})
}

type httpCluster struct {
	k       *core.Kernel
	bridge  *httpd.Bridge
	sched   *sched.Scheduler
	srv     *http.Server
	addr    string
	tmp     string
	callers []*httpCaller
	pacers  []*pacer
	// extra counts requests the traced pass's probes sent to the workers'
	// servlets outside the callers' own count.
	extra int64

	startTook, deployTook time.Duration
}

func setupHTTPClusterOpen(e *env) (instance, error) {
	k, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	w := &httpCluster{k: k}
	if w.bridge, err = httpd.NewBridge(k); err != nil {
		return nil, err
	}
	// Worker sockets live under the benchmark's scratch directory; the
	// path is relative so it stays inside the unix-socket length limit
	// wherever the checkout is.
	w.tmp = filepath.Join(e.tmp, fmt.Sprintf("pool-%d", os.Getpid()))
	if err := os.MkdirAll(w.tmp, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	w.sched, err = sched.Start(sched.Options{
		Kernel:     k,
		Bridge:     w.bridge,
		MinWorkers: clusterWorkers,
		Strategy:   sched.LeastLoaded(),
		Autoscale:  sched.AutoscaleConfig{Disabled: true},
		Pool: remote.PoolOptions{
			Dir: w.tmp,
			// The hook is how the benchmark learns the worker pids it
			// charges CPU and memory for.
			Command: func(i int, network, addr string) *exec.Cmd {
				cmd := remote.SelfExecCommand(i, network, addr)
				// A worker must not outlive a benchmark process that dies
				// without closing its pool.
				cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
				e.procs.addCmd(cmd)
				return cmd
			},
		},
	})
	if err != nil {
		os.RemoveAll(w.tmp)
		return nil, err
	}
	w.startTook = time.Since(start)
	start = time.Now()
	var routes []httpRoute
	for i := 0; i < clusterServlets; i++ {
		name, prefix := fmt.Sprintf("doc%d", i), fmt.Sprintf("/d%d/", i)
		if err := w.sched.Deploy(name, prefix, sched.DeploySpec{Kind: "native", Impl: "doc1k"}); err != nil {
			w.close()
			return nil, err
		}
		path := prefix + "page"
		routes = append(routes, httpRoute{kind: "native", req: buildGET(path), want: clusterDoc(path)})
	}
	w.deployTook = time.Since(start)
	if w.srv, w.addr, err = serveHTTP(w.bridge); err != nil {
		w.close()
		return nil, err
	}
	weights := make([]int, len(routes))
	for i := range weights {
		weights[i] = 256
	}
	for i := 0; i < e.callers; i++ {
		client, nc, err := dialRawHTTP(w.addr)
		if err != nil {
			w.close()
			return nil, err
		}
		c := &httpCaller{client: client, nc: nc, routes: routes, plan: shuffledPlan(newRand(e.seed, 60+uint64(i)), weights)}
		w.callers = append(w.callers, c)
		// Each sender follows its own fixed schedule at an equal share of
		// the offered rate, the schedules evenly staggered.
		interval := time.Duration(float64(e.callers) / openRate * float64(time.Second))
		w.pacers = append(w.pacers, &pacer{
			interval: interval,
			offset:   interval * time.Duration(i) / time.Duration(e.callers),
			do:       c.request,
		})
	}
	return w, nil
}

func (w *httpCluster) steps() []stepFunc {
	steps := make([]stepFunc, len(w.pacers))
	for i, p := range w.pacers {
		steps[i] = p.step
	}
	return steps
}

func (w *httpCluster) warmup() {
	for i := 0; i < httpWarmupOps; i++ {
		w.callers[i%len(w.callers)].request(nil)
	}
}

// workerStat reads one counter from every worker's stats capability over
// a direct connection and returns the values.
func (w *httpCluster) workerStat(method string) ([]int64, error) {
	task := w.k.NewDetachedTask(w.k.DomainByName("www-bridge"), "stats")
	defer task.Close()
	var out []int64
	for _, pw := range w.sched.Pool().Workers() {
		conn, err := pw.Dial(w.k, 5*time.Second)
		if err != nil {
			return nil, err
		}
		stats, err := conn.Import(clusterStatsName)
		if err != nil {
			conn.Close()
			return nil, err
		}
		res, err := stats.InvokeFrom(task, method)
		conn.Close()
		if err != nil {
			return nil, err
		}
		v, _ := res[0].(int64)
		out = append(out, v)
	}
	return out, nil
}

// verify sums the workers' served-request counters and holds them
// against the requests the generator sent.
func (w *httpCluster) verify() []string {
	var issued, non200 int64
	for _, c := range w.callers {
		issued += c.issued
		non200 += c.non200
	}
	var out []string
	if non200 > 0 {
		out = append(out, fmt.Sprintf("%d replies were not 200 (404/503 must be zero)", non200))
	}
	calls, err := w.workerStat("Calls")
	if err != nil {
		return append(out, "reading worker counters: "+err.Error())
	}
	var served int64
	for _, n := range calls {
		served += n
	}
	if served != issued+w.extra {
		out = append(out, fmt.Sprintf("workers served %d requests, generator sent %d", served, issued+w.extra))
	}
	return out
}

func (w *httpCluster) close() {
	for _, c := range w.callers {
		c.nc.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.sched.Close()
	os.RemoveAll(w.tmp)
}

func (w *httpCluster) layers(rep *layerReport, trial func() trialResult) {
	stop := make(chan struct{})
	peakCh := watchPeak(func() int {
		deepest := 0
		for _, ws := range w.sched.Snapshot().Workers {
			deepest = max(deepest, ws.Pending)
		}
		return deepest
	}, 2*time.Millisecond, stop)
	var non200Before int64
	for _, c := range w.callers {
		non200Before += c.non200
	}
	res := trial()
	close(stop)
	var non200 int64
	for _, c := range w.callers {
		non200 += c.non200
	}
	rep.set("httpd.non200", float64(non200-non200Before))
	rep.set("remote.pending_peak", float64(<-peakCh))
	if res.Ops > 0 {
		rep.set("httpd.slo_miss_ratio", float64(res.Over5ms+res.Failed)/float64(res.Ops))
	}
	rep.set("sched.start_ms", w.startTook.Seconds()*1e3)
	rep.set("sched.deploy_ms", w.deployTook.Seconds()*1e3)
	rep.set("remote.dial_import_ms", w.k.Telemetry().Histogram("remote.pool.dial.latency_ns").Snapshot().Mean/1e6)

	snap := w.sched.Snapshot()
	least, most := len(snap.Servlets), 0
	for _, ws := range snap.Workers {
		least, most = min(least, len(ws.Servlets)), max(most, len(ws.Servlets))
	}
	rep.set("sched.placement_spread", float64(most-least))
	rep.set("sched.moves", float64(snap.Moves))
	rep.set("sched.replacements", float64(snap.Replaces))

	if exec, err := w.workerStat("ExecWorkers"); err == nil {
		var most int64
		for _, n := range exec {
			most = max(most, n)
		}
		rep.set("remote.exec_workers", float64(most))
	}

	static, err := staticRTT(clusterDoc("/static"))
	if err != nil {
		panic(err)
	}
	rep.set("httpd.static_rtt_us", static)
	loadgenHTTPSelf(rep, clusterDoc("/static"))
	tsnap, _ := probe(func() { w.k.Telemetry().Snapshot() })
	rep.set("telemetry.snapshot_ms", tsnap/1e6)

	// The scheduled route against a plain Bridge.MountRemote route to a
	// directly dialed worker: a second front kernel with its own bridge,
	// no control plane installed. Both sides are serial closed-loop
	// probes on an otherwise idle cluster.
	route := &w.callers[0].routes[0]
	probeClient, probeConn, err := dialRawHTTP(w.addr)
	if err != nil {
		panic(err)
	}
	defer probeConn.Close()
	scheduled, err := httpP50(probeClient, route.req, route.want, httpProbeRequests)
	if err != nil {
		panic(err)
	}
	w.callers[0].issued += httpProbeRequests + httpProbeRequests/10
	plain, hop, err := w.plainRoute()
	if err != nil {
		panic(err)
	}
	rep.set("sched.route_overhead_us", scheduled-plain)

	// Ledger: serial probes of the steps of one request, held against the
	// open-loop median. Queueing behind other requests and contention for
	// the two cores are what the remainder holds.
	servletNS, _ := probe(func() {
		if _, err := (workServlet{}).Service(&httpd.Request{Path: "/d0/page"}); err != nil {
			panic(err)
		}
	})
	rep.row("net/http + loopback + generator (static_rtt)", static, "probe")
	rep.row("httpd.bridge + sched route (scheduled request - static - wire hop)", scheduled-static-hop, "probe")
	rep.row("remote wire hop to the worker (proxy invoke - servlet)", hop-servletNS/1e3, "probe")
	rep.row("servlet (Service called in-process)", servletNS/1e3, "probe")
}

// plainRoute serves one servlet of worker 0 through a second front
// kernel whose bridge has no scheduler: Bridge.MountRemote on a directly
// dialed connection. It returns the route's serial request p50 and the
// p50 of invoking the servlet proxy without HTTP (the wire hop).
func (w *httpCluster) plainRoute() (requestUs, hopUs float64, err error) {
	k2, err := core.New(core.Options{TelemetryNode: "bench-plain-front"})
	if err != nil {
		return 0, 0, err
	}
	b2, err := httpd.NewBridge(k2)
	if err != nil {
		return 0, 0, err
	}
	sched.RegisterWireTypes(k2)
	conn, err := w.sched.Pool().Workers()[0].Dial(k2, 5*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	deployer, err := conn.Import(sched.DeployerExport)
	if err != nil {
		return 0, 0, err
	}
	task := k2.NewDetachedTask(k2.DomainByName("www-bridge"), "probe")
	defer task.Close()
	res, err := deployer.InvokeFrom(task, "Deploy", &sched.DeploySpec{Name: "plain", Kind: "native", Impl: "doc1k"})
	if err != nil {
		return 0, 0, err
	}
	servlet, ok := res[0].(*core.Capability)
	if !ok {
		return 0, 0, fmt.Errorf("deployer returned %T", res[0])
	}
	defer func() {
		if _, uerr := deployer.InvokeFrom(task, "Undeploy", "plain"); uerr != nil && err == nil {
			err = uerr
		}
	}()
	if err := b2.MountRemote("plain", "/plain/", servlet); err != nil {
		return 0, 0, err
	}
	srv, addr, err := serveHTTP(b2)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	client, nc, err := dialRawHTTP(addr)
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()
	path := "/plain/page"
	if requestUs, err = httpP50(client, buildGET(path), clusterDoc(path), httpProbeRequests); err != nil {
		return 0, 0, err
	}
	w.extra += httpProbeRequests + httpProbeRequests/10
	req := &httpd.Request{Method: "GET", Path: path, Headers: map[string]string{}}
	hopNS, _ := probe(func() {
		w.extra++
		if _, err := servlet.InvokeFrom(task, "Service", req); err != nil {
			panic(err)
		}
	})
	return requestUs, hopNS / 1e3, nil
}
