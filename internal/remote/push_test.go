package remote

import (
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jkernel/internal/core"
)

// stallConn is a socket whose writes park, once armed, until released: a
// peer that stopped reading, as the writer sees it.
type stallConn struct {
	net.Conn
	armed   atomic.Bool
	release chan struct{}
}

func (s *stallConn) Write(p []byte) (int, error) {
	if s.armed.Load() {
		<-s.release
	}
	return s.Conn.Write(p)
}

// returnsWithin runs fn and fails the test, without stopping it, when fn
// does not return within a generous bound.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Errorf("%s blocked behind a stalled socket", what)
	}
}

// Revocation is a local act: a peer that stops reading cannot make a
// revoker wait, nor — when an already-revoked capability is exported, so
// the hook fires under the connection lock — hold that lock for anyone
// else. The revocations queue, and reach the peer as pushes once the
// socket drains.
func TestPushStalledSocketCannotStallRevoker(t *testing.T) {
	var sc *stallConn
	sp := newScriptedPeerOn(t, func(nc net.Conn) net.Conn {
		sc = &stallConn{Conn: nc, release: make(chan struct{})}
		return sc
	})
	unstall := sync.OnceFunc(func() { close(sc.release) })
	t.Cleanup(unstall)
	base := sp.conn.TableSizes()
	export := func(cap *core.Capability) uint64 {
		sp.conn.mu.Lock()
		defer sp.conn.mu.Unlock()
		id, _ := sp.conn.exportLocked(cap, nil)
		return id
	}
	live, err := sp.k.CreateNativeCapability(sp.dom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := sp.k.CreateNativeCapability(sp.dom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	dead.Revoke()
	liveID := export(live)
	sc.armed.Store(true)

	// (a) The revoker returns.
	returnsWithin(t, "Revoke of an exported capability", live.Revoke)

	// (b) Exporting a revoked capability fires its hook under the
	// connection lock; another goroutine still gets the tables.
	deadID := make(chan uint64, 1)
	go func() { deadID <- export(dead) }()
	returnsWithin(t, "TableSizes while a revoked capability is exported", func() { sp.conn.TableSizes() })
	var ids []uint64
	select {
	case id := <-deadID:
		ids = []uint64{liveID, id}
	case <-time.After(2 * time.Second):
		t.Fatal("exporting a revoked capability blocked behind a stalled socket")
	}

	// (c) Once the socket drains, each revocation reaches the peer once,
	// as a revoke entry of a push vector, and the tables are back.
	unstall()
	seen := map[uint64]int{}
	for len(seen) < len(ids) {
		f := sp.next()
		if f.t != msgPush {
			t.Fatalf("frame of type %d, want pushes only", f.t)
		}
		for _, p := range f.pushes {
			if p.kind != pushRevoke || p.reason != revokeReasonRevoked {
				t.Fatalf("push entry %+v, want revokes only", p)
			}
			seen[p.exportID]++
		}
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("export %d revoked %d times on the wire, want once (pushes %v)", id, seen[id], seen)
		}
	}
	waitTables(t, "real end", sp.conn, base)
	if n := sp.conn.batch.pushBacklog(); n != 0 {
		t.Errorf("%d pushes still queued", n)
	}
}

// A peer repeating a handoff offer for one relay import starts one redeem,
// not one per offer: the origin below accepts and never answers, so every
// redeem started would stay parked on it.
func TestPushRepeatedOfferRedeemsOnce(t *testing.T) {
	sp := newScriptedPeer(t)
	sp.proxy(7)
	sock := filepath.Join(t.TempDir(), "origin.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // hold it open, never answer
		}
	}()

	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		sp.write(&wbuf{b: pushVector(pushEntry{kind: pushOffer, relayID: 7, exportID: 9, nonce: uint64(i + 1), network: "unix", addr: sock})})
	}
	sp.settled()
	if d := runtime.NumGoroutine() - before; d >= 10 {
		t.Fatalf("100 offers for one relay import left %d more goroutines, want < 10", d)
	}
	if n := sp.conn.TableSizes().Handoffs; n != 0 {
		t.Fatalf("%d offers parked for an import that is here", n)
	}
}
