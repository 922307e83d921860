package remote

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
)

// remoteServlet runs in the worker kernel and follows the native servlet
// contract.
type remoteServlet struct{}

func (remoteServlet) Service(req *httpd.Request) (*httpd.Response, error) {
	return &httpd.Response{
		Status:  200,
		Headers: map[string]string{"X-Worker": "1"},
		Body:    []byte("remote:" + req.Path),
	}, nil
}

// TestRemoteServletDispatch serves HTTP from a supervisor kernel whose
// servlet lives in a second kernel behind the wire: the bridge cannot
// tell, and a dead worker degrades to 503, not a crash.
func TestRemoteServletDispatch(t *testing.T) {
	// Worker kernel: hosts the servlet, exports it.
	worker := core.MustNew(core.Options{})
	httpd.RegisterTypes(worker)
	wd, err := worker.NewDomain(core.DomainConfig{Name: "servlets"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := worker.CreateNativeCapability(wd, remoteServlet{})
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Export("servlet", cap); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "servlet.sock")
	ln, err := Listen(worker, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Supervisor kernel: front server + bridge, servlet mounted remotely.
	sup := core.MustNew(core.Options{})
	bridge, err := httpd.NewBridge(sup)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(sup, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	proxy, err := conn.Import("servlet")
	if err != nil {
		t.Fatal(err)
	}
	if err := bridge.MountRemote("remote", "/r/", proxy); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("GET", "/r/hello", nil)
	rec := httptest.NewRecorder()
	bridge.ServeHTTP(rec, req)
	if rec.Code != 200 || rec.Body.String() != "remote:/r/hello" {
		t.Fatalf("remote dispatch: %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Worker") != "1" {
		t.Fatalf("headers lost: %v", rec.Header())
	}

	// Terminating one remote servlet revokes only its proxy: the
	// connection, its domain, and other imports stay usable.
	if err := bridge.TerminateServlet("remote"); err != nil {
		t.Fatal(err)
	}
	if conn.Domain().Terminated() {
		t.Fatal("terminating a remote servlet killed the whole connection domain")
	}
	if err := conn.Ping(2 * time.Second); err != nil {
		t.Fatalf("connection unusable after remote servlet terminate: %v", err)
	}
	// Remount for the worker-death check below.
	proxy2, err := conn.Import("servlet")
	if err != nil {
		t.Fatal(err)
	}
	if err := bridge.MountRemote("remote2", "/r/", proxy2); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	bridge.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("remounted servlet: %d %q", rec.Code, rec.Body.String())
	}

	// Worker death degrades to 503 (unavailable), never a crash.
	ln.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec = httptest.NewRecorder()
		bridge.ServeHTTP(rec, req)
		if rec.Code != 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker death never surfaced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec.Code != 503 {
		t.Fatalf("dead worker: got %d %q, want 503", rec.Code, rec.Body.String())
	}
}

// faultRecorder is a minimal httpd.Control that records servlet faults.
type faultRecorder struct {
	mu     sync.Mutex
	faults []string
}

func (f *faultRecorder) UploadServlet(name, prefix, main string, bundle map[string][]byte) error {
	return errors.New("not implemented")
}
func (f *faultRecorder) TerminateServlet(name string) (bool, error) { return false, nil }
func (f *faultRecorder) ServletFault(name string, err error) {
	f.mu.Lock()
	f.faults = append(f.faults, name)
	f.mu.Unlock()
}

// TestRemoteServletFaultAutoUnmount checks the two fault policies: a
// remote mount whose backing capability faults (worker connection lost)
// is removed from the router when no control plane is installed (no
// errors forever), and kept mounted — but reported — when one is, so the
// controller can atomically swap in a replacement with no 404 window.
func TestRemoteServletFaultAutoUnmount(t *testing.T) {
	worker := core.MustNew(core.Options{})
	httpd.RegisterTypes(worker)
	wd, err := worker.NewDomain(core.DomainConfig{Name: "servlets"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := worker.CreateNativeCapability(wd, remoteServlet{})
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Export("servlet", cap); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "fault.sock")
	ln, err := Listen(worker, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	sup := core.MustNew(core.Options{})
	bridge, err := httpd.NewBridge(sup)
	if err != nil {
		t.Fatal(err)
	}
	mountFlaky := func(name string) *Conn {
		t.Helper()
		conn, err := Dial(sup, "unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := conn.Import("servlet")
		if err != nil {
			t.Fatal(err)
		}
		if err := bridge.MountRemote(name, "/f/", proxy); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	waitFault := func() int {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			r := httptest.NewRecorder()
			bridge.ServeHTTP(r, httptest.NewRequest("GET", "/f/x", nil))
			if r.Code != 200 {
				return r.Code
			}
			if time.Now().After(deadline) {
				t.Fatal("fault never surfaced")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// No control plane: sever the connection, the proxy faults with a
	// revocation, and the dead mount must be gone — the next request 404s
	// instead of hitting a revoked proxy forever.
	conn := mountFlaky("flaky")
	conn.Close()
	if code := waitFault(); code != 503 {
		t.Fatalf("faulted servlet: got %d, want 503", code)
	}
	for _, n := range bridge.Router.Names() {
		if n == "flaky" {
			t.Fatal("faulted remote mount still in the router")
		}
	}
	r := httptest.NewRecorder()
	bridge.ServeHTTP(r, httptest.NewRequest("GET", "/f/x", nil))
	if r.Code != 404 {
		t.Fatalf("unmounted servlet: got %d, want 404", r.Code)
	}

	// With a control plane installed the route must survive the fault
	// (503, not 404 — re-placement is the controller's job), and the
	// controller must hear about it.
	rec := &faultRecorder{}
	bridge.SetControl(rec)
	conn = mountFlaky("flaky2")
	conn.Close()
	if code := waitFault(); code != 503 {
		t.Fatalf("faulted servlet under control plane: got %d, want 503", code)
	}
	found := false
	for _, n := range bridge.Router.Names() {
		if n == "flaky2" {
			found = true
		}
	}
	if !found {
		t.Fatal("control plane installed, but the faulted route was unmounted")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.faults) == 0 || rec.faults[0] != "flaky2" {
		t.Fatalf("control plane faults = %v, want [flaky2 ...]", rec.faults)
	}
}
