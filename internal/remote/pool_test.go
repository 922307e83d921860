package remote

import (
	"strings"
	"sync"
	"testing"
	"time"

	"jkernel/internal/core"
)

// TestPoolAddRemove grows a pool at runtime, checks the new slot serves,
// and exercises the drain-aware Remove: a slot with a live connection is
// refused, a drained slot is killed and never respawned.
func TestPoolAddRemove(t *testing.T) {
	pool, err := StartPool(PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	k := core.MustNew(core.Options{})

	w1, err := pool.Add()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 2 || w1.Index != 1 {
		t.Fatalf("after Add: size=%d index=%d, want 2/1", pool.Size(), w1.Index)
	}
	conn, err := w1.Dial(k, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Import("echo"); err != nil {
		t.Fatalf("added worker does not serve: %v", err)
	}
	if w1.LiveConns() != 1 {
		t.Fatalf("live conns = %d, want 1", w1.LiveConns())
	}

	// Drain-aware: a live connection blocks removal.
	if err := pool.Remove(w1, 50*time.Millisecond); err == nil {
		t.Fatal("Remove succeeded with a live connection")
	} else if !strings.Contains(err.Error(), "live connection") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	// The refused Remove must leave the slot supervised: kill it and it
	// restarts.
	if err := w1.Kill(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if conn2, err := w1.Dial(k, 10*time.Second); err != nil {
		t.Fatalf("slot not supervised after refused Remove: %v", err)
	} else {
		conn2.Close()
	}

	// Drained: removal succeeds, the slot is gone, and its process stays
	// dead (no respawn after the kill inside Remove).
	waitLive := time.Now().Add(5 * time.Second)
	for w1.LiveConns() != 0 && time.Now().Before(waitLive) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := pool.Remove(w1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 1 {
		t.Fatalf("size after Remove = %d, want 1", pool.Size())
	}
	if _, err := dialHandshake(k, w1.network, w1.addr, 500*time.Millisecond); err == nil {
		t.Fatal("removed worker came back")
	}

	// Indices stay monotonic: the next Add does not reuse 1.
	w2, err := pool.Add()
	if err != nil {
		t.Fatal(err)
	}
	if w2.Index != 2 {
		t.Fatalf("recycled slot index %d, want 2", w2.Index)
	}
}

// TestDialRacesKillRestart hammers the Dial/Kill race: while a client
// repeatedly dials a worker slot, the slot's process is killed over and
// over. Every Dial must either succeed against the restarted process or
// fail cleanly — no panic, no wedged handshake, and the slot must serve
// again once the killing stops. Run under -race this also checks the
// pool's slot bookkeeping against concurrent monitor respawns.
func TestDialRacesKillRestart(t *testing.T) {
	pool, err := StartPool(PoolOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	w := pool.Worker(0)
	k := core.MustNew(core.Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.Kill()
			time.Sleep(15 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := w.Dial(k, 2*time.Second)
		if err != nil {
			continue // the kill won this round; Dial failed cleanly
		}
		// A successful handshake may still race the next kill; any
		// invocation outcome is fine as long as nothing wedges.
		if proxy, ierr := conn.Import("echo"); ierr == nil {
			task := k.NewDetachedTask(conn.Domain(), "race")
			proxy.InvokeFrom(task, "Echo", "x")
		}
		conn.Close()
	}
	close(stop)
	wg.Wait()

	// The slot must recover once the killing stops.
	conn, err := w.Dial(k, 10*time.Second)
	if err != nil {
		t.Fatalf("worker never recovered: %v", err)
	}
	defer conn.Close()
	proxy, err := conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewDetachedTask(conn.Domain(), "post")
	res, err := proxy.InvokeFrom(task, "Echo", "alive")
	if err != nil || res[0] != "alive" {
		t.Fatalf("post-race invoke: %v %v", res, err)
	}
}
