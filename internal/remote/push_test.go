package remote

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// A peer that connects and then stops reading holds no writer for ever: a
// frame write still waiting when the socket's write deadline passes fails,
// and the connection shuts down once, with the timeout as its cause. The
// caller in the write, an async call queued behind it for the flusher and
// a revoker's next call all end with a revocation within the deadline and
// a margin, and the tables are back. The clock runs writeWindow less out
// behind, so the deadline the first frame sets lands out from now.
func TestWriteDeadlineEndsStalledPeer(t *testing.T) {
	const out, margin = 200 * time.Millisecond, 2 * time.Second
	clock := &testClock{}
	clock.advance(out - writeWindow)
	start := time.Now()
	sp := newScriptedPeerAt(t, clock.now, func(nc net.Conn) net.Conn { return nc })
	base := sp.conn.TableSizes()
	base.Pending-- // the Hello the real end sent on connecting, never answered
	proxy := sp.proxy(7)
	live, err := sp.k.CreateNativeCapability(sp.dom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	sp.conn.mu.Lock()
	sp.conn.exportLocked(live, nil)
	sp.conn.mu.Unlock()

	// From here on the script reads nothing. The sync call's argument is
	// far past what the socket buffers, so its write waits on the peer.
	// Each caller has a task of its own.
	ends := make(chan error, 3)
	caller := func(name string, call func(task *core.Task) error) {
		task := sp.k.NewDetachedTask(sp.dom, name)
		go func() {
			defer task.Close()
			ends <- call(task)
		}()
	}
	caller("sync", func(task *core.Task) error {
		_, err := proxy.InvokeFrom(task, "Null", make([]byte, 4<<20))
		return err
	})
	caller("async", func(task *core.Task) error {
		_, err := proxy.InvokeAsyncFrom(task, "Null").Wait()
		return err
	})
	caller("revoker", func(task *core.Task) error {
		live.Revoke()
		_, err := proxy.InvokeFrom(task, "Null")
		return err
	})
	for range 3 {
		select {
		case err := <-ends:
			if !errors.Is(err, core.ErrRevoked) {
				t.Errorf("a caller behind the stalled write ended with %v, want a revocation", err)
			}
		case <-time.After(time.Until(start.Add(out + margin))):
			t.Fatalf("a caller still blocked %v after the write deadline", margin)
		}
	}
	<-sp.conn.Done()
	if err := sp.conn.Err(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("connection shut down with %v, want the write timeout", err)
	}
	closed := 0
	for _, e := range sp.k.Telemetry().Events() {
		if strings.HasPrefix(e.Msg, "conn ") && strings.Contains(e.Msg, " closed: ") {
			closed++
		}
	}
	if closed != 1 {
		t.Errorf("the connection shut down %d times, want once", closed)
	}
	waitTables(t, "real end", sp.conn, base)
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
