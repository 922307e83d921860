package main

import (
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/vmkit"
)

// http_local: the paper's application result (Table 5). The generator's
// raw HTTP client drives http.Server{Handler: bridge} over keep-alive TCP
// loopback connections; every request is one local LRMI into a servlet
// domain — a native Go document servlet (MountNative) or an interpreted
// one (UploadVM) — serving a page of 10, 100 or 1000 bytes. remote and
// sched are idle. Closed loop, one connection per caller.

var httpPageSizes = []int{10, 100, 1000}

// docServlet is the native document servlet.
type docServlet struct{ body []byte }

func (d *docServlet) Service(*httpd.Request) (*httpd.Response, error) {
	return &httpd.Response{Status: 200, Body: d.body}, nil
}

// httpRoute is one URL of a workload's mix.
type httpRoute struct {
	kind string // "native" or "vm"
	req  []byte
	want []byte
}

// httpCaller is one generator connection cycling over the route plan.
type httpCaller struct {
	client *rawHTTP
	nc     net.Conn
	routes []httpRoute
	plan   []uint8
	next   int
	issued int64
	non200 int64
	ops    int64
}

// request performs the caller's next planned request.
func (c *httpCaller) request(r *recorder) bool {
	rt := &c.routes[c.plan[c.next]]
	if c.next++; c.next == len(c.plan) {
		c.next = 0
	}
	c.issued++
	t0 := time.Now()
	status, ok, err := c.client.do(rt.req, rt.want)
	if err != nil || status != 200 {
		c.non200++
	}
	if r != nil && r.tr != nil && ok {
		c.ops++
		r.tr.add("op."+rt.kind, c.ops, t0, time.Now(), -1)
	}
	return ok
}

func (c *httpCaller) step(r *recorder, _ window) {
	t0 := time.Now()
	ok := c.request(r)
	r.observe(time.Since(t0), 1, ok)
}

// serveHTTP starts an http.Server for h on a loopback port.
func serveHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint: the error is ErrServerClosed after Close
	return srv, ln.Addr().String(), nil
}

// httpP50 runs n serial requests on one connection and returns the
// median request latency in µs.
func httpP50(c *rawHTTP, req, want []byte, n int) (float64, error) {
	lat := make([]int64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		if _, ok, err := c.do(req, want); err != nil || !ok {
			return 0, fmt.Errorf("probe request failed (ok=%v): %v", ok, err)
		}
		if i >= n/10 { // the first tenth warms the connection
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	slices.Sort(lat)
	return quantile(lat, 0.5) / 1e3, nil
}

// staticRTT measures the floor of the HTTP path: the generator's client
// against httpd.StaticHandler, net/http and the loopback socket included,
// no kernel involved.
func staticRTT(doc []byte) (float64, error) {
	srv, addr, err := serveHTTP(httpd.StaticHandler(doc))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, nc, err := dialRawHTTP(addr)
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	return httpP50(c, buildGET("/index.html"), doc, httpProbeRequests)
}

const httpProbeRequests = 3000

// loadgenHTTPSelf measures the raw client against a canned reply: the
// generator's own time and allocations per request.
func loadgenHTTPSelf(rep *layerReport, body []byte) {
	reply := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: text/plain\r\nDate: Thu, 01 Jan 1998 00:00:00 GMT\r\n\r\n%s", len(body), body))
	c := newRawHTTP(&cannedConn{reply: reply})
	req := buildGET("/n100/index.html")
	self, allocs := probe(func() {
		t0 := time.Now()
		_, ok, err := c.do(req, body)
		if err != nil || !ok {
			panic("canned reply rejected")
		}
		discard.observe(time.Since(t0), 1, ok)
	})
	rep.set("loadgen.self_us_per_op", self/1e3)
	rep.set("loadgen.allocs_per_op", allocs)
}

// directWriter is the smallest http.ResponseWriter: it lets a probe call
// Bridge.ServeHTTP without net/http or a socket around it.
type directWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *directWriter) Header() http.Header { return w.h }
func (w *directWriter) WriteHeader(s int)   { w.status = s }
func (w *directWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// bridgeDirectUs times Bridge.ServeHTTP called directly for path.
func bridgeDirectUs(b *httpd.Bridge, path string) float64 {
	req, err := http.NewRequest("GET", path, http.NoBody)
	if err != nil {
		panic(err)
	}
	w := &directWriter{h: http.Header{}}
	ns, _ := probe(func() {
		clear(w.h)
		w.status = 0
		b.ServeHTTP(w, req)
		if w.status != 200 {
			panic(fmt.Sprintf("bridge answered %d for %s", w.status, path))
		}
	})
	return ns / 1e3
}

type httpLocal struct {
	k       *core.Kernel
	bridge  *httpd.Bridge
	srv     *http.Server
	addr    string
	callers []*httpCaller
	docs    [][]byte
	mountVM time.Duration
	base    int64 // httpd.requests before the generator's first request
}

func setupHTTPLocal(e *env) (instance, error) {
	k, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	w := &httpLocal{k: k}
	if w.bridge, err = httpd.NewBridge(k); err != nil {
		return nil, err
	}
	rng := newRand(e.seed, 5)
	var routes []httpRoute
	for _, size := range httpPageSizes {
		doc := make([]byte, size)
		for i := range doc {
			doc[i] = byte('a' + rng.IntN(26))
		}
		w.docs = append(w.docs, doc)
		name := fmt.Sprintf("n%d", size)
		if _, err := w.bridge.MountNative(name, "/"+name+"/", &docServlet{body: doc}); err != nil {
			return nil, err
		}
		routes = append(routes, httpRoute{kind: "native", req: buildGET("/" + name + "/index.html"), want: doc})
	}
	start := time.Now()
	for i, size := range httpPageSizes {
		name := fmt.Sprintf("v%d", size)
		// MountDocServlet is UploadVM of the document servlet's bytecode
		// into a fresh domain, then its configure([B)V.
		if _, err := w.bridge.MountDocServlet(name, "/"+name+"/", w.docs[i]); err != nil {
			return nil, err
		}
		routes = append(routes, httpRoute{kind: "vm", req: buildGET("/" + name + "/index.html"), want: w.docs[i]})
	}
	w.mountVM = time.Since(start)
	if w.srv, w.addr, err = serveHTTP(w.bridge); err != nil {
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
		w.callers = append(w.callers, &httpCaller{
			client: client, nc: nc, routes: routes, plan: shuffledPlan(newRand(e.seed, 50+uint64(i)), weights),
		})
	}
	w.base = k.Telemetry().Counter("httpd.requests").Value()
	return w, nil
}

func (w *httpLocal) steps() []stepFunc {
	steps := make([]stepFunc, len(w.callers))
	for i, c := range w.callers {
		steps[i] = c.step
	}
	return steps
}

const httpWarmupOps = 4000

func (w *httpLocal) warmup() {
	for i := 0; i < httpWarmupOps; i++ {
		w.callers[i%len(w.callers)].request(nil)
	}
}

// verify holds the bridge's count of routed requests against the
// generator's count of requests sent (bodies were checked per reply).
func (w *httpLocal) verify() []string {
	var issued int64
	for _, c := range w.callers {
		issued += c.issued
	}
	if got := w.k.Telemetry().Counter("httpd.requests").Value() - w.base; got != issued {
		return []string{fmt.Sprintf("bridge routed %d requests, generator sent %d", got, issued)}
	}
	return nil
}

func (w *httpLocal) close() {
	for _, c := range w.callers {
		c.nc.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

func (w *httpLocal) layers(rep *layerReport, trial func() trialResult) {
	var non200Before int64
	for _, c := range w.callers {
		non200Before += c.non200
	}
	trial()
	var non200 int64
	for _, c := range w.callers {
		non200 += c.non200
	}
	rep.set("httpd.non200", float64(non200-non200Before))
	rep.set("httpd.native_route_us", rep.tr.spanP50us("op.native"))
	rep.set("httpd.vm_route_us", rep.tr.spanP50us("op.vm"))
	rep.set("vmkit.load_verify_ms", w.mountVM.Seconds()*1e3)

	mid := w.docs[1] // the 100-byte page stands for the mix in the probes
	static, err := staticRTT(mid)
	if err != nil {
		panic(err)
	}
	rep.set("httpd.static_rtt_us", static)

	// The servlet capabilities invoked without HTTP: the same LRMIs the
	// bridge performs, on servlets of the same kind in their own domains.
	task := w.k.NewDetachedTask(w.k.DomainByName("www-bridge"), "probe")
	defer task.Close()
	nd, err := w.k.NewDomain(core.DomainConfig{Name: "probe-native"})
	if err != nil {
		panic(err)
	}
	ncap, err := httpd.ServletCapability(w.k, nd, &docServlet{body: mid})
	if err != nil {
		panic(err)
	}
	// The request as the bridge builds it: net/http moves Host out of the
	// header map, and the generator sends no other header.
	req := &httpd.Request{Method: "GET", Path: "/n100/index.html", Headers: map[string]string{}}
	nativeNS, _ := probe(func() {
		if _, err := ncap.InvokeFrom(task, "Service", req); err != nil {
			panic(err)
		}
	})
	src, err := vmkit.AssembleBytes(httpd.DocServletSource("DocServlet"))
	if err != nil {
		panic(err)
	}
	vd, vcap, err := w.bridge.Host().InstantiateVM("probe-vm", "DocServlet", map[string][]byte{"DocServlet": src})
	if err != nil {
		panic(err)
	}
	if err := httpd.Configure(w.k, vd, "DocServlet", mid); err != nil {
		panic(err)
	}
	vmNS, _ := probe(func() {
		if _, err := vcap.InvokeVM(task, "service", "GET", "/v100/index.html", []byte(nil)); err != nil {
			panic(err)
		}
	})
	direct := (nativeNS + vmNS) / 2 / 1e3
	rep.set("httpd.servlet_direct_us", direct)
	rep.set("httpd.bridge_self_us", rep.traced.P50us-static-direct)

	nullDomain, err := w.k.NewDomain(core.DomainConfig{Name: "probe-null"})
	if err != nil {
		panic(err)
	}
	nullCap, err := w.k.CreateNativeCapability(nullDomain, &nullSvc{})
	if err != nil {
		panic(err)
	}
	nullNS, nullAllocs := probe(func() {
		if _, err := nullCap.InvokeFrom(task, "Null"); err != nil {
			panic(err)
		}
	})
	rep.set("core.lrmi_native_null_ns", nullNS)
	rep.set("core.lrmi_native_null_allocs", nullAllocs)
	snap, _ := probe(func() { w.k.Telemetry().Snapshot() })
	rep.set("telemetry.snapshot_ms", snap/1e6)
	loadgenHTTPSelf(rep, mid)

	// Ledger: each row is measured on its own, none is a difference
	// against the traced request, so the sum is a real reconciliation.
	// The probes are serial; the traced trial has one request in flight
	// per caller, so contention between callers is in the remainder.
	routed := w.k.Telemetry().Counter("httpd.requests")
	beforeProbe := routed.Value()
	bridgeCall := (bridgeDirectUs(w.bridge, "/n100/index.html") + bridgeDirectUs(w.bridge, "/v100/index.html")) / 2
	w.base += routed.Value() - beforeProbe // the probe's calls are not the generator's
	rep.row("net/http + loopback + generator (static_rtt)", static, "probe")
	rep.row("httpd.bridge (ServeHTTP called directly - servlet LRMI)", bridgeCall-direct, "probe")
	rep.row("core servlet LRMI (capability invoked directly)", direct, "probe")
}
