package jkernel

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Conformance table for future semantics, run against every gate flavor —
// a local native gate, the same gate called through the ambient
// InvokeAsync from a goroutine NewTask bound, and a remote proxy gate over
// a real wire — so the invoke paths are proven equivalent:
//
//   - resolve: a future resolves with the call's results, idempotently;
//   - resolve-once: concurrent completion and cancellation settle on
//     exactly one stable outcome;
//   - fault propagation: callee failures surface exactly as from Invoke;
//   - cancel-after-revoke: a revocation fault is never overwritten by a
//     later Cancel;
//   - join-after-connection-loss: severing the capability's lifeline
//     (owner termination locally, connection loss remotely) resolves
//     every in-flight future — a join never hangs.

// conformSvc is the service under test. Hang blocks until release.
type conformSvc struct {
	releaseOnce sync.Once
	block       chan struct{}
}

func newConformSvc() *conformSvc { return &conformSvc{block: make(chan struct{})} }

func (s *conformSvc) release() { s.releaseOnce.Do(func() { close(s.block) }) }

func (s *conformSvc) Echo(x string) (string, error) { return x, nil }
func (s *conformSvc) Fail(msg string) error         { return errors.New(msg) }
func (s *conformSvc) Hang() error                   { <-s.block; return nil }

// futureGate is one flavor of capability under test.
type futureGate struct {
	cap    *Capability                            // caller-side handle: local capability or remote proxy
	async  func(name string, args ...any) *Future // starts a call on cap from the caller's task
	revoke func()                                 // owner-side revocation of the origin capability
	sever  func()                                 // lifeline cut: owner termination / connection loss
}

// localFutureGate serves svc from a local native gate to a client domain
// whose task is detached and named on each call (InvokeAsyncFrom), or,
// ambient, bound to the calling goroutine (InvokeAsync).
func localFutureGate(t *testing.T, svc *conformSvc, ambient bool) *futureGate {
	t.Helper()
	k := New(Options{})
	server, err := k.NewDomain(DomainConfig{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateNativeCapability(server, svc)
	if err != nil {
		t.Fatal(err)
	}
	g := &futureGate{cap: cap, revoke: cap.Revoke, sever: func() { server.Terminate("conformance sever") }}
	if ambient {
		task := k.NewTask(client, "conformance")
		t.Cleanup(task.Close)
		g.async = cap.InvokeAsync
	} else {
		task := k.NewDetachedTask(client, "conformance")
		g.async = func(name string, args ...any) *Future { return cap.InvokeAsyncFrom(task, name, args...) }
	}
	return g
}

// futureGateFlavors builds the same service behind a local gate, called
// with an explicit task and with the goroutine's, and a remote proxy gate.
var futureGateFlavors = []struct {
	name  string
	setup func(t *testing.T, svc *conformSvc) *futureGate
}{
	{
		name:  "local",
		setup: func(t *testing.T, svc *conformSvc) *futureGate { return localFutureGate(t, svc, false) },
	},
	{
		name:  "ambient",
		setup: func(t *testing.T, svc *conformSvc) *futureGate { return localFutureGate(t, svc, true) },
	},
	{
		name: "remote",
		setup: func(t *testing.T, svc *conformSvc) *futureGate {
			t.Helper()
			sup := New(Options{})
			services, err := sup.NewDomain(DomainConfig{Name: "services"})
			if err != nil {
				t.Fatal(err)
			}
			origin, err := sup.CreateNativeCapability(services, svc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sup.Export("conform", origin); err != nil {
				t.Fatal(err)
			}
			sock := filepath.Join(t.TempDir(), "conform.sock")
			ln, err := Listen(sup, "unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			client := New(Options{})
			app, err := client.NewDomain(DomainConfig{Name: "app"})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := Connect(client, "unix", sock)
			if err != nil {
				ln.Close()
				t.Fatal(err)
			}
			t.Cleanup(func() {
				conn.Close()
				ln.Close()
			})
			proxy, err := conn.Import("conform")
			if err != nil {
				t.Fatal(err)
			}
			task := client.NewDetachedTask(app, "conformance")
			return &futureGate{
				cap: proxy,
				async: func(name string, args ...any) *Future {
					return proxy.InvokeAsyncFrom(task, name, args...)
				},
				revoke: origin.Revoke,
				sever:  func() { conn.Close() },
			}
		},
	},
}

// forEachGateFlavor runs one conformance case against both flavors.
func forEachGateFlavor(t *testing.T, run func(t *testing.T, g *futureGate, svc *conformSvc)) {
	for _, flavor := range futureGateFlavors {
		t.Run(flavor.name, func(t *testing.T) {
			svc := newConformSvc()
			t.Cleanup(svc.release)
			run(t, flavor.setup(t, svc), svc)
		})
	}
}

func TestFutureResolve(t *testing.T) {
	forEachGateFlavor(t, func(t *testing.T, g *futureGate, svc *conformSvc) {
		fut := g.async("Echo", "ping")
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0] != any("ping") {
			t.Fatalf("resolve: %#v", res)
		}
		if !fut.Resolved() {
			t.Fatal("Resolved false after Wait")
		}
		// Wait is idempotent, and Cancel after resolution is a no-op.
		fut.Cancel()
		res2, err2 := fut.Wait()
		if err2 != nil || len(res2) != 1 || res2[0] != any("ping") {
			t.Fatalf("post-cancel Wait changed outcome: %#v %v", res2, err2)
		}
	})
}

func TestFutureFaultPropagation(t *testing.T) {
	forEachGateFlavor(t, func(t *testing.T, g *futureGate, svc *conformSvc) {
		// A callee failure crosses as a copied RemoteError, exactly as from
		// a synchronous Invoke.
		_, err := g.async("Fail", "boom").Wait()
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "boom" {
			t.Fatalf("callee failure: %v", err)
		}
		// An unknown method maps onto the same sentinel on both paths.
		_, err = g.async("Nope").Wait()
		if !errors.Is(err, ErrNoSuchMethod) {
			t.Fatalf("unknown method: %v", err)
		}
	})
}

func TestFutureResolveOnce(t *testing.T) {
	forEachGateFlavor(t, func(t *testing.T, g *futureGate, svc *conformSvc) {
		// Race completions against cancellations: each future must settle
		// exactly once, on either the result or ErrCancelled, and stay
		// settled.
		for i := 0; i < 20; i++ {
			fut := g.async("Echo", "race")
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fut.Cancel()
				}()
			}
			res, err := fut.Wait()
			wg.Wait()
			switch {
			case err == nil:
				if len(res) != 1 || res[0] != any("race") {
					t.Fatalf("iteration %d: %#v", i, res)
				}
			case errors.Is(err, ErrCancelled):
			default:
				t.Fatalf("iteration %d: unexpected outcome %v", i, err)
			}
			res2, err2 := fut.Wait()
			if !errors.Is(err2, err) || len(res2) != len(res) {
				t.Fatalf("iteration %d: outcome not stable: (%#v, %v) then (%#v, %v)",
					i, res, err, res2, err2)
			}
		}
	})
}

func TestFutureCancelAfterRevoke(t *testing.T) {
	forEachGateFlavor(t, func(t *testing.T, g *futureGate, svc *conformSvc) {
		g.revoke()
		fut := g.async("Echo", "late")
		if _, err := fut.Wait(); !errors.Is(err, ErrRevoked) {
			t.Fatalf("invoke after revoke: %v", err)
		}
		// The revocation fault sticks: Cancel must not rewrite history.
		fut.Cancel()
		if _, err := fut.Wait(); !errors.Is(err, ErrRevoked) || errors.Is(err, ErrCancelled) {
			t.Fatalf("cancel overwrote the revocation fault: %v", err)
		}
	})
}

func TestFutureJoinAfterConnectionLoss(t *testing.T) {
	forEachGateFlavor(t, func(t *testing.T, g *futureGate, svc *conformSvc) {
		// Start a call that will never return on its own, then cut the
		// capability's lifeline under it.
		fut := g.async("Hang")
		select {
		case <-fut.Done():
			_, err := fut.Wait()
			t.Fatalf("future resolved before sever: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		g.sever()
		select {
		case <-fut.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("join hung after sever")
		}
		_, err := fut.Wait()
		if !errors.Is(err, ErrRevoked) && !errors.Is(err, ErrDomainTerminated) {
			t.Fatalf("sever fault: %v", err)
		}
	})
}

// TestFutureAmbientWithoutTask: InvokeAsync on a goroutine no task is
// bound to has no calling domain, and resolves at once with ErrNotEntered.
func TestFutureAmbientWithoutTask(t *testing.T) {
	svc := newConformSvc()
	t.Cleanup(svc.release)
	g := localFutureGate(t, svc, false)
	errc := make(chan error, 1)
	go func() {
		fut := g.cap.InvokeAsync("Echo", "ping")
		if !fut.Resolved() {
			errc <- errors.New("future not resolved on return")
			return
		}
		_, err := fut.Wait()
		errc <- err
	}()
	if err := <-errc; !errors.Is(err, ErrNotEntered) {
		t.Fatalf("InvokeAsync without a task: %v, want ErrNotEntered", err)
	}
}
