package remote

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

// TestMain lets pool tests re-exec this binary as a worker process.
func TestMain(m *testing.M) {
	MaybeRunWorker(testWorkerSetup)
	os.Exit(m.Run())
}

// --- test services ---------------------------------------------------------

type echoSvc struct{}

func (echoSvc) Echo(s string) (string, error)         { return s, nil }
func (echoSvc) Sum(a, b int64) (int64, error)         { return a + b, nil }
func (echoSvc) Fail(msg string) error                 { return errors.New(msg) }
func (echoSvc) Null() error                           { return nil }
func (echoSvc) Blob(b []byte) (int64, error)          { return int64(len(b)), nil }
func (echoSvc) Pair(s string) (string, string, error) { return s, s + "!", nil }

type counterSvc struct {
	mu sync.Mutex
	n  int64
}

func (c *counterSvc) Add(d int64) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n, nil
}

// relaySvc invokes a capability handed to it — the callback path: the
// argument capability crosses the wire by reference and comes back as a
// proxy that calls the original kernel.
type relaySvc struct {
	k *core.Kernel
	d *core.Domain
}

func (s *relaySvc) Relay(cap *core.Capability, arg string) (string, error) {
	t := s.k.NewTask(s.d, "relay")
	defer t.Close()
	res, err := cap.InvokeFrom(t, "Echo", arg)
	if err != nil {
		return "", err
	}
	out, _ := res[0].(string)
	return "relayed:" + out, nil
}

// makerSvc returns a fresh capability from a call — the result path.
type makerSvc struct {
	k *core.Kernel
	d *core.Domain
}

func (s *makerSvc) MakeCounter() (*core.Capability, error) {
	return s.k.CreateNativeCapability(s.d, &counterSvc{})
}

// testWorkerSetup is the self-exec worker body for the pool tests.
func testWorkerSetup(k *core.Kernel) error {
	d, err := k.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		return err
	}
	echo, err := k.CreateNativeCapability(d, echoSvc{})
	if err != nil {
		return err
	}
	if err := k.Export("echo", echo); err != nil {
		return err
	}
	counter, err := k.CreateNativeCapability(d, &counterSvc{})
	if err != nil {
		return err
	}
	return k.Export("counter", counter)
}

// --- in-process pair fixture ----------------------------------------------

// pair is two kernels in one process connected over a real unix socket:
// the full wire path without process-spawn overhead.
type pair struct {
	server, client *core.Kernel
	serverDom      *core.Domain
	clientDom      *core.Domain
	ln             *Listener
	conn           *Conn
	task           *core.Task
}

func newPair(t testing.TB) *pair {
	t.Helper()
	server := core.MustNew(core.Options{})
	client := core.MustNew(core.Options{})
	sd, err := server.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := client.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "pair.sock")
	ln, err := Listen(server, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(client, "unix", sock)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	task := client.NewDetachedTask(cd, "test")
	p := &pair{server: server, client: client, serverDom: sd, clientDom: cd, ln: ln, conn: conn, task: task}
	t.Cleanup(func() {
		p.conn.Close()
		p.ln.Close()
	})
	return p
}

func (p *pair) export(t testing.TB, name string, svc any) *core.Capability {
	t.Helper()
	cap, err := p.server.CreateNativeCapability(p.serverDom, svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.server.Export(name, cap); err != nil {
		t.Fatal(err)
	}
	return cap
}

// --- tests -----------------------------------------------------------------

func TestRemoteInvoke(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := proxy.InvokeFrom(p.task, "Echo", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != any("hello") {
		t.Fatalf("bad result: %#v", res)
	}
	res, err = proxy.InvokeFrom(p.task, "Sum", int64(2), int64(40))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any(int64(42)) {
		t.Fatalf("Sum: %#v", res)
	}
	res, err = proxy.InvokeFrom(p.task, "Pair", "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != any("x") || res[1] != any("x!") {
		t.Fatalf("Pair: %#v", res)
	}
}

func TestRemoteMethodsManifest(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	ms := proxy.Methods()
	want := map[string]bool{"Echo": true, "Sum": true, "Fail": true, "Null": true, "Blob": true, "Pair": true}
	if len(ms) != len(want) {
		t.Fatalf("methods: %v", ms)
	}
	for _, m := range ms {
		if !want[m] {
			t.Fatalf("unexpected method %q", m)
		}
	}
}

func TestRemoteErrors(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Callee failure crosses as a copied RemoteError.
	_, err = proxy.InvokeFrom(p.task, "Fail", "boom")
	var re *core.RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("Fail: %v", err)
	}
	// Unknown method maps onto ErrNoSuchMethod.
	_, err = proxy.InvokeFrom(p.task, "Nope")
	if !errors.Is(err, core.ErrNoSuchMethod) {
		t.Fatalf("Nope: %v", err)
	}
	// Unknown export name fails the import, and the error names it.
	if _, err := p.conn.Import("missing"); err == nil || !strings.Contains(err.Error(), `"missing"`) {
		t.Fatalf("import of an unexported name: %v", err)
	}
}

func TestRemoteRevocation(t *testing.T) {
	p := newPair(t)
	cap := p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.InvokeFrom(p.task, "Null"); err != nil {
		t.Fatal(err)
	}
	cap.Revoke()
	// The next invoke fails with the revocation sentinel, whether it races
	// the pushed revoke or not.
	if _, err := proxy.InvokeFrom(p.task, "Null"); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("invoke after revoke: %v", err)
	}
	// The push also flips the proxy's own revoked state, no wire needed.
	deadline := time.Now().Add(2 * time.Second)
	for !proxy.Revoked() {
		if time.Now().After(deadline) {
			t.Fatal("pushed revocation never reached the proxy")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteTermination(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	p.serverDom.Terminate("test")
	deadline := time.Now().Add(2 * time.Second)
	for !proxy.Revoked() {
		if time.Now().After(deadline) {
			t.Fatal("termination never reached the proxy")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := proxy.InvokeFrom(p.task, "Null"); !errors.Is(err, core.ErrDomainTerminated) {
		t.Fatalf("invoke after termination: %v", err)
	}
}

func TestRemoteCapabilityArgumentCallback(t *testing.T) {
	p := newPair(t)
	p.export(t, "relay", &relaySvc{k: p.server, d: p.serverDom})
	proxy, err := p.conn.Import("relay")
	if err != nil {
		t.Fatal(err)
	}
	// A client-side capability crosses as an argument; the server calls it
	// back through a proxy of its own.
	local, err := p.client.CreateNativeCapability(p.clientDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := proxy.InvokeFrom(p.task, "Relay", local, "ping")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any("relayed:ping") {
		t.Fatalf("callback: %#v", res)
	}
}

func TestRemoteCapabilityResult(t *testing.T) {
	p := newPair(t)
	p.export(t, "maker", &makerSvc{k: p.server, d: p.serverDom})
	proxy, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	res, err := proxy.InvokeFrom(p.task, "MakeCounter")
	if err != nil {
		t.Fatal(err)
	}
	counter, _ := res[0].(*core.Capability)
	if counter == nil {
		t.Fatalf("no capability result: %#v", res)
	}
	for want := int64(1); want <= 3; want++ {
		out, err := counter.InvokeFrom(p.task, "Add", int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != any(want) {
			t.Fatalf("Add -> %#v, want %d", out, want)
		}
	}
}

// A capability that came from the peer goes home as the peer's own export
// id, not as a proxy-to-a-proxy.
func TestRemoteCapabilityReturnsHome(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	p.export(t, "relay", &relaySvc{k: p.server, d: p.serverDom})
	echoProxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	relayProxy, err := p.conn.Import("relay")
	if err != nil {
		t.Fatal(err)
	}
	// Pass the server's own echo capability (held as our proxy) back to the
	// server: Relay must invoke it locally there and succeed.
	res, err := relayProxy.InvokeFrom(p.task, "Relay", echoProxy, "home")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any("relayed:home") {
		t.Fatalf("returning capability: %#v", res)
	}
}

func TestRemoteBindStubs(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Bind's typed stubs work through a proxy exactly as through a local
	// capability — the caller truly cannot tell.
	task := p.client.NewTask(p.clientDom, "bind-test")
	defer task.Close()
	var svc struct {
		Echo func(string) (string, error)
		Sum  func(int64, int64) (int64, error)
	}
	if err := proxy.Bind(&svc); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Echo("typed")
	if err != nil || out != "typed" {
		t.Fatalf("Echo stub: %q %v", out, err)
	}
	n, err := svc.Sum(20, 22)
	if err != nil || n != 42 {
		t.Fatalf("Sum stub: %d %v", n, err)
	}
}

func TestRemoteConnectionLossFaultsProxies(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a worker crash: the server side goes away wholesale.
	p.ln.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !proxy.Revoked() {
		if time.Now().After(deadline) {
			t.Fatal("connection loss never faulted the proxy")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = proxy.InvokeFrom(p.task, "Null")
	if !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("invoke after connection loss: %v", err)
	}
}

// shutdown marks the connection closed before it faults the imported
// proxies. A sync call landing in that window fails at register, and must
// report the capability fault every other outcome of a lost connection
// reports — the bridge turns ErrRevoked into 503, and anything but a local
// VM servlet's exception into 502.
func TestSyncInvokeOnClosedConnIsACapabilityFault(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Hold the connection in the window: closed, proxy not yet revoked.
	p.conn.mu.Lock()
	p.conn.closed, p.conn.cause = true, io.EOF
	p.conn.mu.Unlock()
	_, err = proxy.InvokeFrom(p.task, "Null")
	p.conn.mu.Lock()
	p.conn.closed, p.conn.cause = false, nil
	p.conn.mu.Unlock()

	if proxy.Revoked() {
		t.Fatal("the proxy was revoked: the call did not land in the window")
	}
	if !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("sync invoke on a closed connection: %v; want ErrRevoked", err)
	}
}

func TestRemoteConcurrentInvokes(t *testing.T) {
	p := newPair(t)
	p.export(t, "counter", &counterSvc{})
	proxy, err := p.conn.Import("counter")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := p.client.NewDetachedTask(p.clientDom, "conc")
			for j := 0; j < per; j++ {
				if _, err := proxy.InvokeFrom(task, "Add", int64(1)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := proxy.InvokeFrom(p.task, "Add", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any(int64(workers*per)) {
		t.Fatalf("lost updates: %#v", res)
	}
}

func TestRemoteLargeArgument(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 1<<20)
	for i := range blob {
		blob[i] = byte(i)
	}
	res, err := proxy.InvokeFrom(p.task, "Blob", blob)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any(int64(len(blob))) {
		t.Fatalf("Blob: %#v", res)
	}
}

// --- pool (real worker processes) ------------------------------------------

func TestPoolWorkersAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	sup := core.MustNew(core.Options{})
	supDom, err := sup.NewDomain(core.DomainConfig{Name: "sup"})
	if err != nil {
		t.Fatal(err)
	}
	task := sup.NewDetachedTask(supDom, "pool-test")

	errFile, _ := os.CreateTemp("", "worker-stderr-")
	t.Cleanup(func() {
		errFile.Seek(0, 0)
		b := make([]byte, 4096)
		n, _ := errFile.Read(b)
		if n > 0 {
			t.Logf("worker stderr:\n%s", b[:n])
		}
		errFile.Close()
		os.Remove(errFile.Name())
	})
	pool, err := StartPool(PoolOptions{Workers: 2, Log: t.Logf, Stderr: errFile})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Both workers serve the exported counter independently (sharding).
	for i := 0; i < pool.Size(); i++ {
		conn, err := pool.Worker(i).Dial(sup, 10*time.Second)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		counter, err := conn.Import("counter")
		if err != nil {
			t.Fatalf("worker %d import: %v", i, err)
		}
		res, err := counter.InvokeFrom(task, "Add", int64(10*(i+1)))
		if err != nil {
			t.Fatalf("worker %d invoke: %v", i, err)
		}
		if res[0] != any(int64(10*(i+1))) {
			t.Fatalf("worker %d state not isolated: %#v", i, res)
		}
		conn.Close()
	}

	// Crash drill: kill worker 0; its proxies fault, the supervisor keeps
	// running, and the pool restarts the process.
	w := pool.Worker(0)
	conn, err := w.Dial(sup, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echo.InvokeFrom(task, "Null"); err != nil {
		t.Fatal(err)
	}
	if err := w.Kill(); err != nil {
		t.Fatal(err)
	}
	// The in-flight connection faults as a capability error...
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err = echo.InvokeFrom(task, "Null")
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy never faulted after worker kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("worker death fault: %v", err)
	}
	// ...and the slot comes back: a fresh dial reaches the restarted
	// process with fresh state.
	conn2, err := w.Dial(sup, 15*time.Second)
	if err != nil {
		t.Fatalf("restarted worker not reachable: %v", err)
	}
	defer conn2.Close()
	counter, err := conn2.Import("counter")
	if err != nil {
		t.Fatal(err)
	}
	res, err := counter.InvokeFrom(task, "Add", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any(int64(1)) {
		t.Fatalf("restarted worker kept state: %#v", res)
	}
	if w.Restarts() < 1 {
		t.Fatalf("restart not recorded: %d", w.Restarts())
	}
}

func TestRemoteTCP(t *testing.T) {
	server := core.MustNew(core.Options{})
	client := core.MustNew(core.Options{})
	sd, err := server.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := client.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := server.CreateNativeCapability(sd, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Export("echo", cap); err != nil {
		t.Fatal(err)
	}
	ln, err := Listen(server, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := Dial(client, "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	proxy, err := conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	task := client.NewDetachedTask(cd, "tcp-test")
	res, err := proxy.InvokeFrom(task, "Echo", "over tcp")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != any("over tcp") {
		t.Fatalf("tcp: %#v", res)
	}
}

// Accounting: remote calls meter wire bytes against the caller's account.
func TestRemoteAccounting(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.InvokeFrom(p.task, "Blob", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	stats := p.clientDom.Stats()
	if stats.CopyBytes < 4096 || stats.CrossCalls < 1 {
		t.Fatalf("wire bytes not metered: %+v", stats)
	}
}

// Attribution: the same account, live at /debug/jk as the domain's gauges.
func TestDebugMuxShowsDomainAccounts(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := proxy.InvokeFrom(p.task, "Blob", make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	DebugMux(p.client).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/jk", nil))
	var page telemetry.DebugPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	stats, found := p.clientDom.Stats(), false
	for _, snap := range page.Snapshots {
		if calls, ok := snap.Gauges["domain.app.cross_calls"]; ok {
			found = true
			if calls != 3 || snap.Gauges["domain.app.copy_bytes"] != stats.CopyBytes || stats.CopyBytes < 3*1024 {
				t.Errorf("/debug/jk: domain.app cross_calls %d copy_bytes %d; Stats %+v", calls, snap.Gauges["domain.app.copy_bytes"], stats)
			}
		}
	}
	if !found {
		t.Error("/debug/jk has no domain.app.* gauges")
	}
}
