package sched_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/remote"
	"jkernel/internal/sched"
)

// TestMain lets the pool's self-exec children turn into cluster workers.
func TestMain(m *testing.M) {
	remote.MaybeRunWorker(workerSetup)
	os.Exit(m.Run())
}

// workerSetup is the worker half: a deployer with two native factories.
func workerSetup(k *core.Kernel) error {
	_, err := sched.ServeWorker(k, map[string]func() httpd.Servlet{
		"echo": func() httpd.Servlet { return echoServlet{} },
		"slow": func() httpd.Servlet { return slowServlet{} },
	})
	return err
}

// echoServlet answers with the serving process's pid so tests can tell
// which worker a request landed on.
type echoServlet struct{}

func (echoServlet) Service(req *httpd.Request) (*httpd.Response, error) {
	return &httpd.Response{
		Status: 200,
		Body:   []byte(fmt.Sprintf("%d:%s", os.Getpid(), req.Path)),
	}, nil
}

// slowServlet holds each request long enough to build queue depth.
type slowServlet struct{}

func (slowServlet) Service(req *httpd.Request) (*httpd.Response, error) {
	time.Sleep(50 * time.Millisecond)
	return &httpd.Response{Status: 200, Body: []byte("slow")}, nil
}

// startCluster boots a supervisor kernel + bridge + scheduler for tests.
func startCluster(t *testing.T, opts sched.Options) (*httpd.Bridge, *sched.Scheduler) {
	t.Helper()
	k := core.MustNew(core.Options{})
	bridge, err := httpd.NewBridge(k)
	if err != nil {
		t.Fatal(err)
	}
	opts.Kernel = k
	opts.Bridge = bridge
	if opts.Pool.Dir == "" {
		opts.Pool.Dir = t.TempDir()
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 50 * time.Millisecond
	}
	s, err := sched.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return bridge, s
}

func get(b *httpd.Bridge, path string) (int, string) {
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestClusterDeployAndServe is the smoke test: servlets deployed through
// the control plane serve HTTP from worker processes, spread across the
// pool, and terminate cleanly.
func TestClusterDeployAndServe(t *testing.T) {
	bridge, s := startCluster(t, sched.Options{
		MinWorkers: 2,
		Autoscale:  sched.AutoscaleConfig{Disabled: true},
	})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("echo%d", i)
		if err := s.Deploy(name, fmt.Sprintf("/e%d/", i), sched.DeploySpec{Kind: "native", Impl: "echo"}); err != nil {
			t.Fatal(err)
		}
	}
	pids := map[string]bool{}
	for i := 0; i < 4; i++ {
		code, body := get(bridge, fmt.Sprintf("/e%d/ping", i))
		if code != 200 {
			t.Fatalf("echo%d: %d %q", i, code, body)
		}
		var pid int
		fmt.Sscanf(body, "%d:", &pid)
		pids[fmt.Sprint(pid)] = true
	}
	// Least-loaded over an idle 2-worker pool must use both workers.
	if len(pids) != 2 {
		t.Fatalf("placements not spread: served by %d worker process(es)", len(pids))
	}
	snap := s.Snapshot()
	if len(snap.Servlets) != 4 || len(snap.Workers) != 2 {
		t.Fatalf("snapshot: %d servlets on %d workers", len(snap.Servlets), len(snap.Workers))
	}

	// Terminate through the bridge admin path: the control plane owns it.
	if err := bridge.TerminateServlet("echo0"); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(bridge, "/e0/ping"); code != 404 {
		t.Fatalf("terminated servlet still routed: %d", code)
	}
	if n := len(s.Snapshot().Servlets); n != 3 {
		t.Fatalf("placements after terminate: %d, want 3", n)
	}
}

// TestRedeployAfterUndeploy: a worker the scheduler moved a servlet away
// from can take it back, since the undeployed domain's name is free.
func TestRedeployAfterUndeploy(t *testing.T) {
	k := core.MustNew(core.Options{})
	dep, err := sched.ServeWorker(k, map[string]func() httpd.Servlet{
		"echo": func() httpd.Servlet { return echoServlet{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	caller, err := k.NewDomain(core.DomainConfig{Name: "caller"})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewDetachedTask(caller, "caller")
	defer task.Close()
	spec := &sched.DeploySpec{Name: "foo", Kind: "native", Impl: "echo"}
	first, err := dep.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Undeploy("foo"); err != nil {
		t.Fatal(err)
	}
	if !first.Revoked() {
		t.Error("Undeploy left the servlet capability live")
	}
	again, err := dep.Deploy(spec)
	if err != nil {
		t.Fatalf("Deploy after Undeploy: %v", err)
	}
	if _, err := again.InvokeFrom(task, "Service", &httpd.Request{Path: "/x"}); err != nil {
		t.Fatalf("redeployed servlet: %v", err)
	}
}

// TestConsistentHashDeterminism deploys the same servlet names into two
// independently-started clusters and demands identical name→worker
// assignments: the ring hashes stable pool slot indexes, so placement
// survives full control-plane restarts (cache affinity, Table 13's
// repeatability requirement).
func TestConsistentHashDeterminism(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	run := func() map[string]int {
		k := core.MustNew(core.Options{})
		bridge, err := httpd.NewBridge(k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.Start(sched.Options{
			Kernel:     k,
			Bridge:     bridge,
			Pool:       remote.PoolOptions{Dir: t.TempDir()},
			MinWorkers: 3,
			Strategy:   sched.ConsistentHash(),
			Autoscale:  sched.AutoscaleConfig{Disabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := map[string]int{}
		for i, n := range names {
			if err := s.Deploy(n, fmt.Sprintf("/ch%d/", i), sched.DeploySpec{Kind: "native", Impl: "echo"}); err != nil {
				t.Fatal(err)
			}
		}
		for _, sv := range s.Snapshot().Servlets {
			got[sv.Name] = sv.Worker
		}
		return got
	}
	first := run()
	second := run()
	workers := map[int]bool{}
	for n, w := range first {
		if second[n] != w {
			t.Fatalf("placement of %q moved across restarts: %d then %d\nfirst: %v\nsecond: %v",
				n, w, second[n], first, second)
		}
		workers[w] = true
	}
	if len(workers) < 2 {
		t.Fatalf("ring collapsed onto %d worker(s): %v", len(workers), first)
	}
}

// TestFailoverSIGKILL kills a worker mid-traffic and demands every
// servlet keeps serving: the scheduler re-places the dead worker's
// servlets onto survivors within a few probe intervals, and under the
// sticky strategy the restarted worker attracts its shard back.
func TestFailoverSIGKILL(t *testing.T) {
	bridge, s := startCluster(t, sched.Options{
		MinWorkers: 3,
		Strategy:   sched.ConsistentHash(),
		Autoscale:  sched.AutoscaleConfig{Disabled: true},
	})
	names := []string{"fa", "fb", "fc", "fd", "fe", "ff"}
	for i, n := range names {
		if err := s.Deploy(n, fmt.Sprintf("/f%d/", i), sched.DeploySpec{Kind: "native", Impl: "echo"}); err != nil {
			t.Fatal(err)
		}
	}

	// Background traffic across every servlet for the whole drill. 503s
	// during the failover window are expected (the capability faulted and
	// the replacement is seconds away); 404s would mean a servlet was
	// lost, and nothing may be lost at the end.
	stop := make(chan struct{})
	var lost atomic.Int64
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := get(bridge, fmt.Sprintf("/f%d/x", i))
				if code == 404 {
					lost.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	// SIGKILL the worker owning the most servlets.
	victim := -1
	counts := map[int]int{}
	for _, sv := range s.Snapshot().Servlets {
		counts[sv.Worker]++
		if victim == -1 || counts[sv.Worker] > counts[victim] {
			victim = sv.Worker
		}
	}
	var vw *remote.PoolWorker
	for _, w := range s.Pool().Workers() {
		if w.Index == victim {
			vw = w
		}
	}
	if vw == nil {
		t.Fatalf("no pool worker for index %d", victim)
	}
	if err := vw.Kill(); err != nil {
		t.Fatal(err)
	}

	// Every servlet must be re-placed and serving again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		allPlaced := true
		for _, sv := range s.Snapshot().Servlets {
			if sv.Worker < 0 {
				allPlaced = false
			}
		}
		if allPlaced {
			ok := true
			for i := range names {
				if code, _ := get(bridge, fmt.Sprintf("/f%d/x", i)); code != 200 {
					ok = false
				}
			}
			if ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("servlets not re-placed after worker kill: %+v", s.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d request(s) saw 404: a servlet route was lost during failover", n)
	}
	if len(s.Snapshot().Servlets) != len(names) {
		t.Fatalf("servlets lost: %+v", s.Snapshot().Servlets)
	}

	// The killed worker restarts (pool supervision) and, because the
	// strategy is sticky, pulls its consistent-hash shard back home.
	deadline = time.Now().Add(15 * time.Second)
	for {
		back := false
		for _, sv := range s.Snapshot().Servlets {
			if sv.Worker == victim {
				back = true
			}
		}
		if back {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted worker %d never attracted its shard back: %+v",
				victim, s.Snapshot().Servlets)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDrainAndRemove: a drained worker takes no new placements; removing
// a worker evacuates its servlets and shrinks the pool.
func TestDrainAndRemove(t *testing.T) {
	bridge, s := startCluster(t, sched.Options{
		MinWorkers: 2,
		Autoscale:  sched.AutoscaleConfig{Disabled: true},
	})
	if err := s.Drain(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Deploy(fmt.Sprintf("d%d", i), fmt.Sprintf("/d%d/", i),
			sched.DeploySpec{Kind: "native", Impl: "echo"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sv := range s.Snapshot().Servlets {
		if sv.Worker == 0 {
			t.Fatalf("drained worker 0 received placement %q", sv.Name)
		}
	}
	if err := s.Drain(0, false); err != nil {
		t.Fatal(err)
	}

	// Remove worker 1: its servlets must move to worker 0 and keep
	// serving, and the slot must disappear.
	if err := s.RemoveWorker(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		snap := s.Snapshot()
		gone := true
		for _, w := range snap.Workers {
			if w.Worker == 1 {
				gone = false
			}
		}
		placed := true
		for _, sv := range snap.Servlets {
			if sv.Worker != 0 {
				placed = false
			}
		}
		if gone && placed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker 1 not removed cleanly: %+v", snap)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if code, _ := get(bridge, fmt.Sprintf("/d%d/x", i)); code != 200 {
			t.Fatalf("servlet d%d dead after worker removal: %d", i, code)
		}
	}
}

// TestMoveIsInvisibleToClients: clients keep calling while a worker is
// removed and its servlets move, and every request is answered 200. One
// request resolves echo0's route and then holds its body open while echo0
// moves: it must still reach the old instance, so the scheduler may
// undeploy that instance, and close its worker's connection, only once
// the request is done.
func TestMoveIsInvisibleToClients(t *testing.T) {
	bridge, s := startCluster(t, sched.Options{
		MinWorkers: 2,
		Autoscale:  sched.AutoscaleConfig{Disabled: true},
	})
	const servlets = 4
	for i := 0; i < servlets; i++ {
		if err := s.Deploy(fmt.Sprintf("echo%d", i), fmt.Sprintf("/e%d/", i), sched.DeploySpec{Kind: "native", Impl: "echo"}); err != nil {
			t.Fatal(err)
		}
	}
	workerOf := func(name string) int {
		for _, sv := range s.Snapshot().Servlets {
			if sv.Name == name {
				return sv.Worker
			}
		}
		return -1
	}

	stop := make(chan struct{})
	var requests, failed atomic.Int64
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	stopClients := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopClients()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				if code, body := get(bridge, fmt.Sprintf("/e%d/ping", i%servlets)); code != 200 {
					failed.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("%d %q", code, body))
				}
			}
		}(c)
	}

	body, bodyW := io.Pipe()
	defer bodyW.Close()
	held := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		bridge.ServeHTTP(rec, httptest.NewRequest("POST", "/e0/held", body))
		held <- rec
	}()
	bodyW.Write([]byte("x")) // returns once the bridge is reading the body: the route is resolved

	from := workerOf("echo0")
	if err := s.RemoveWorker(from); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for workerOf("echo0") == from {
		if time.Now().After(deadline) {
			t.Fatalf("echo0 never moved off worker %d: %+v", from, s.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Hold the request well inside the scheduler's 2 s grace: long enough
	// for the old instance to be torn down if nothing waited for it.
	time.Sleep(300 * time.Millisecond)
	bodyW.Close()
	if rec := <-held; rec.Code != 200 {
		t.Errorf("request held across the move: %d %q", rec.Code, rec.Body.String())
	}

	for {
		snap := s.Snapshot()
		gone := true
		for _, w := range snap.Workers {
			gone = gone && w.Worker != from
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d not removed: %+v", from, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopClients()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed while servlets moved; first: %v", n, requests.Load(), firstFailure.Load())
	}
}

// TestAutoscale drives sustained slow traffic through a 1-worker pool and
// expects the feedback loop to grow it, then shrink it back once the
// load stops. 32 clients keep more than the 16 calls in flight that
// scale a pool up.
func TestAutoscale(t *testing.T) {
	bridge, s := startCluster(t, sched.Options{
		MinWorkers: 1,
		MaxWorkers: 3,
	})
	if err := s.Deploy("slow", "/s/", sched.DeploySpec{Kind: "native", Impl: "slow"}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(bridge, "/s/x")
			}
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.Snapshot().ScaleUps == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("autoscaler never scaled up: %+v", s.Snapshot())
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Idle pool shrinks back to MinWorkers.
	deadline = time.Now().Add(30 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.ScaleDowns > 0 && len(snap.Workers) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("autoscaler never shrank back: %+v", snap)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The surviving worker still serves.
	if code, _ := get(bridge, "/s/x"); code != 200 {
		t.Fatalf("servlet dead after scale-down: %d", code)
	}
}
