package remote

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"weak"

	"jkernel/internal/core"
)

// The kernels' own tables (core.Kernel.TableSizes) under connection
// traffic: what a connection makes ends with it, and a collection takes
// nothing the kernel still counts.

// waitKernelTables polls until k's tables match want.
func waitKernelTables(t testing.TB, what string, k *core.Kernel, want core.TableSizes) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var got core.TableSizes
	for time.Now().Before(deadline) {
		if got = k.TableSizes(); got == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s kernel tables never returned to baseline: got %+v, want %+v", what, got, want)
}

// A served call draws its task from the connection domain's idle list,
// which a collection does not empty: the server's task table stays at the
// one task a sequential caller needs.
func TestKernelTablesServerTasksFlatAcrossGC(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		t.Helper()
		if _, err := proxy.InvokeFrom(p.task, "Null"); err != nil {
			t.Fatal(err)
		}
	}
	call()
	want := p.server.TableSizes()
	for i := 0; i < 200; i++ {
		runtime.GC()
		call()
	}
	if got := p.server.TableSizes(); got.Tasks != want.Tasks {
		t.Fatalf("server tasks %d after 200 calls with a collection between each, want %d", got.Tasks, want.Tasks)
	}
}

// Dial → import → call → revoke → close, over and over: both kernels'
// tables return to where they started, and every revoked proxy gate and
// every closed connection's domain, client and server side, is collected.
func TestKernelTablesConnChurnReturnsToBaseline(t *testing.T) {
	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
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
	echo, err := server.CreateNativeCapability(sd, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Export("echo", echo); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "churn.sock")
	ln, err := Listen(server, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	task := client.NewDetachedTask(cd, "churn")
	defer task.Close()
	serverBase, clientBase := server.TableSizes(), client.TableSizes()

	var gates []weak.Pointer[core.Gate]
	var domains []weak.Pointer[core.Domain]
	for i := 0; i < cycles; i++ {
		conn, err := Dial(client, "unix", sock)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		proxy, err := conn.Import("echo")
		if err != nil {
			t.Fatalf("cycle %d: import: %v", i, err)
		}
		if _, err := proxy.InvokeFrom(task, "Null"); err != nil {
			t.Fatalf("cycle %d: call: %v", i, err)
		}
		sc := serverConn(t, ln)
		gates = append(gates, weak.Make(proxy.Gate()))
		domains = append(domains, weak.Make(conn.Domain()), weak.Make(sc.Domain()))
		proxy.Revoke()
		conn.Close()
		for deadline := time.Now().Add(5 * time.Second); len(ln.Conns()) != 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: the server never saw the close", i)
			}
		}
	}

	waitKernelTables(t, "server", server, serverBase)
	waitKernelTables(t, "client", client, clientBase)
	runtime.GC()
	runtime.GC()
	live := 0
	for _, g := range gates {
		if g.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d of %d revoked proxy gates survived a collection", live, len(gates))
	}
	live = 0
	for _, d := range domains {
		if d.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d of %d closed connections' domains survived a collection", live, len(domains))
	}
}
