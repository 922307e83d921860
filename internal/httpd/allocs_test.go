package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"testing"

	"jkernel/internal/raceflag"
)

// bareWriter is the smallest http.ResponseWriter: what the bridge costs
// without net/http or a socket around it.
type bareWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *bareWriter) Header() http.Header { return w.h }
func (w *bareWriter) WriteHeader(s int)   { w.status = s }
func (w *bareWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

type docServlet struct{ body []byte }

func (d *docServlet) Service(*Request) (*Response, error) {
	return &Response{Status: 200, Body: d.body}, nil
}

// bridgeAllocs reports allocations per Bridge.ServeHTTP call for a GET of
// path, as a server would hand it over: no body, the request target set,
// the method a string of the request's own rather than a constant.
func bridgeAllocs(t *testing.T, b *Bridge, path string) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	req, err := http.NewRequest("GET", path, http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	req.RequestURI = path
	req.Method = string([]byte(req.Method))
	w := &bareWriter{h: http.Header{}}
	return testing.AllocsPerRun(500, func() {
		clear(w.h)
		w.status = 0
		b.ServeHTTP(w, req)
		if w.status != 200 {
			t.Fatalf("bridge answered %d for %s", w.status, path)
		}
	})
}

var doc100 = make([]byte, 100)

// The request pins: what a routed request costs in the bridge, the LRMI
// and the servlet together, net/http's own ~20 left out. Before the
// compiled copy plans, the one-copy Go<->VM boundary and the mount-time
// telemetry handles these read 30 and 36.

// Measures 8: the Request, the servlet's Response, their two copies and
// the copied body (5), reflect's call (2: its result vector and the error
// result's box) and the results slice. The argument vector stays on the
// bridge's stack. It measured 9 while that vector escaped to the heap, and
// 12 while the reflect path called a bound method value (whose receiver
// reflect boxes per call) and the bridge set Content-Length itself (its
// value and its []string).
func TestAllocsBridgeNativeRequest(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountNative("n", "/n/", &docServlet{body: doc100}); err != nil {
		t.Fatal(err)
	}
	if got := bridgeAllocs(t, b, "/n/index.html"); got > 8 {
		t.Errorf("native route: %.1f allocs/request, want at most 8", got)
	}
}

// Measures 7: method and URI as VM strings in the servlet's domain (1
// allocation each: the string, its field, its byte array and the bytes in
// one block), the empty body array, the reply's bytes and their box, and
// the boxed method and URI. It measured 16 when each VM object's fields
// and bytes were allocations of their own, and 11 while a string was two
// blocks and the bridge set Content-Length itself.
func TestAllocsBridgeVMRequest(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountDocServlet("v", "/v/", doc100); err != nil {
		t.Fatal(err)
	}
	if got := bridgeAllocs(t, b, "/v/index.html"); got > 7 {
		t.Errorf("VM route: %.1f allocs/request, want at most 7", got)
	}
}

// serveAllocs reports the allocations per request of a GET of path from
// h, served by a real http.Server over one keep-alive loopback connection:
// the server's request parsing, the handler and the reply, with a client
// that allocates nothing per request. Each reply must be a 200 carrying
// exactly want, framed by its Content-Length.
func serveAllocs(t *testing.T, h http.Handler, path string, want []byte) float64 {
	t.Helper()
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	defer srv.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := []byte("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n")
	br := bufio.NewReaderSize(nc, 16<<10)
	okPrefix, clPrefix := []byte("HTTP/1.1 200 "), []byte("Content-Length: ")
	do := func() error {
		if _, err := nc.Write(req); err != nil {
			return err
		}
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(line, okPrefix) {
			return fmt.Errorf("status line %q", line)
		}
		n := -1
		for {
			if line, err = br.ReadSlice('\n'); err != nil {
				return err
			}
			if len(line) <= 2 {
				break
			}
			if bytes.HasPrefix(line, clPrefix) {
				n = 0
				for _, c := range bytes.TrimSpace(line[len(clPrefix):]) {
					n = n*10 + int(c-'0')
				}
			}
		}
		if n != len(want) {
			return fmt.Errorf("Content-Length %d, want %d", n, len(want))
		}
		body, err := br.Peek(n)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("body differs")
		}
		_, err = br.Discard(n)
		return err
	}
	const warm, runs = 200, 2000
	for range warm {
		if err := do(); err != nil {
			t.Fatal(err)
		}
	}
	// As testing.AllocsPerRun, but unrounded: the server's goroutine does
	// part of a request's work after the client has its reply.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := do(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// Measures 8 native and 7 VM, the same as Bridge.ServeHTTP called
// directly: through net/http, a bridge request allocates no more than a
// StaticHandler request does besides the LRMI and the servlet, because
// neither touches the reply's header map and net/http frames both replies
// alike. net/http's own allocations, the same for both, cancel out.
func TestAllocsBridgeOverNetHTTP(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	_, b := newBridge(t)
	if _, err := b.MountNative("n", "/n/", &docServlet{body: doc100}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MountDocServlet("v", "/v/", doc100); err != nil {
		t.Fatal(err)
	}
	static := serveAllocs(t, StaticHandler(doc100), "/index.html", doc100)
	for _, c := range []struct {
		route, path string
		ceiling     float64
	}{
		{"native", "/n/index.html", 8},
		{"VM", "/v/index.html", 7},
	} {
		got := serveAllocs(t, b, c.path, doc100)
		t.Logf("%s route: %.2f allocs/request, StaticHandler %.2f", c.route, got, static)
		if got-static > c.ceiling+0.5 {
			t.Errorf("%s route over net/http: %.2f allocs/request more than StaticHandler, want at most %.0f", c.route, got-static, c.ceiling)
		}
	}
}
