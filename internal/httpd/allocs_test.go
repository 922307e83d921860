package httpd

import (
	"net/http"
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

// Measures 12: the Request, the servlet's Response, their two copies and
// the copied body (5), reflect's method call (3), the results slice, the
// argument vector, Content-Length's value and its []string.
func TestAllocsBridgeNativeRequest(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountNative("n", "/n/", &docServlet{body: doc100}); err != nil {
		t.Fatal(err)
	}
	if got := bridgeAllocs(t, b, "/n/index.html"); got > 13 {
		t.Errorf("native route: %.1f allocs/request, want at most 13", got)
	}
}

// Measures 11: method and URI as VM strings in the servlet's domain (2
// allocations each: the string with its fields, the array with its
// bytes), the empty body array, the reply's bytes and their box, the
// boxed arguments, Content-Length's value and its []string. It measured
// 16 when each VM object's fields and bytes were allocations of their own.
func TestAllocsBridgeVMRequest(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountDocServlet("v", "/v/", doc100); err != nil {
		t.Fatal(err)
	}
	if got := bridgeAllocs(t, b, "/v/index.html"); got > 11 {
		t.Errorf("VM route: %.1f allocs/request, want at most 11", got)
	}
}
