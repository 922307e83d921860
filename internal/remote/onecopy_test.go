package remote

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"jkernel/internal/core"
)

// The one-copy rule, callee half. serveInvoke hands the callee the very
// values the wire decoded and encodes the very values it returns
// (core.Capability.ServeWire); these tests hold that to what the LRMI
// convention promises the two domains regardless of who makes the copy.

// keeperSvc keeps what it is given and hands out what it keeps.
type keeperSvc struct {
	mu    sync.Mutex
	kept  [][]byte
	state []byte
}

// Keep stores its argument — the decoded slice itself, under ServeWire.
func (s *keeperSvc) Keep(b []byte) error {
	s.mu.Lock()
	s.kept = append(s.kept, b)
	s.mu.Unlock()
	return nil
}

// State returns a slice of the service's own state, not a copy.
func (s *keeperSvc) State() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, nil
}

// Scribble overwrites the state State returned a view of.
func (s *keeperSvc) Scribble() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.state {
		s.state[i] = 'X'
	}
	return nil
}

// Same returns the capability it was given.
func (s *keeperSvc) Same(c *core.Capability) (*core.Capability, error) { return c, nil }

func keeperPair(t *testing.T) (*pair, *keeperSvc, *core.Capability) {
	p := newPair(t)
	svc := &keeperSvc{state: []byte("callee state, as first returned")}
	p.export(t, "keeper", svc)
	proxy, err := p.conn.Import("keeper")
	if err != nil {
		t.Fatal(err)
	}
	return p, svc, proxy
}

// A callee that stores its []byte argument owns it for good: the decode
// that made it copied it out of the frame, so frames recycled (and, here,
// poisoned) by later traffic never show through.
func TestStoredArgumentSurvivesFrameRecycling(t *testing.T) {
	SetBufferPoison(true)
	defer SetBufferPoison(false)
	p, svc, proxy := keeperPair(t)
	var want [][]byte
	for i, n := range []int{1, 64, 700, 5000, 40_000} {
		b := bytes.Repeat([]byte{byte('a' + i)}, n)
		want = append(want, b)
		if _, err := proxy.InvokeFrom(p.task, "Keep", b); err != nil {
			t.Fatal(err)
		}
	}
	// Churn every size class the stored arguments arrived in, sync and
	// batched.
	futs := make([]*core.Future, 64)
	for round := 0; round < 20; round++ {
		for i := range futs {
			futs[i] = proxy.InvokeAsyncFrom(p.task, "State")
		}
		for _, n := range []int{3, 100, 900, 6000, 50_000} {
			if _, err := proxy.InvokeFrom(p.task, "Keep", make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := core.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for i, b := range want {
		if !bytes.Equal(svc.kept[i], b) {
			t.Errorf("stored argument %d (%d bytes) changed under later frames: %.16q...", i, len(b), svc.kept[i])
		}
	}
}

// A callee that returns a view of its own state and changes the state
// afterwards does not change what the caller got: the reply was encoded
// before the call returned, and the caller holds its own decode of it.
func TestResultIsCopiedBeforeCalleeMutatesIt(t *testing.T) {
	p, _, proxy := keeperPair(t)
	res, err := proxy.InvokeFrom(p.task, "State")
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].([]byte)
	if _, err := proxy.InvokeFrom(p.task, "Scribble"); err != nil {
		t.Fatal(err)
	}
	if string(got) != "callee state, as first returned" {
		t.Errorf("the caller's result followed the callee's later write: %q", got)
	}
	// And the other way: writing to the result leaves the callee alone.
	for i := range got {
		got[i] = '!'
	}
	res, err = proxy.InvokeFrom(p.task, "State")
	if err != nil {
		t.Fatal(err)
	}
	if s := string(res[0].([]byte)); strings.Contains(s, "!") {
		t.Errorf("the caller's write reached the callee's state: %q", s)
	}
}

// A capability travels by reference in both directions: sent as an
// argument and returned, it comes back as the caller's own *Capability,
// and the round trip leaves no table entry behind.
func TestCapabilityArgumentComesBackIdentical(t *testing.T) {
	p, _, proxy := keeperPair(t)
	sc := serverConn(t, p.ln)
	local, err := p.client.CreateNativeCapability(p.clientDom, &counterSvc{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := proxy.InvokeFrom(p.task, "Same", local)
	if err != nil {
		t.Fatal(err)
	}
	if back, _ := res[0].(*core.Capability); back != local {
		t.Fatalf("sent %p, got back %#v", local, res[0])
	}
	// The server's inline import is the callee's to release; it did not,
	// so it stays — one import there, one export here, nothing pending.
	waitTables(t, "server", sc, TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1, Imports: 1})
	waitTables(t, "client", p.conn, TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1, Imports: 1})
}

// mixedSvc returns a fresh capability followed by a value no registry can
// name: the encode counts a wire reference for the first, then fails.
type mixedSvc struct {
	k *core.Kernel
	d *core.Domain
}

func (s *mixedSvc) Mixed() (*core.Capability, any, error) {
	c, err := s.k.CreateNativeCapability(s.d, &counterSvc{})
	return c, struct{ X int }{1}, err
}

// An unencodable result is the call's own protocol error — the connection
// and its other calls are untouched — and the wire references the encode
// had counted are returned: both ends' tables stay at baseline.
func TestUnencodableResultIsPerCallAndRollsBack(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	p.export(t, "mixed", &mixedSvc{k: p.server, d: p.serverDom})
	sc := serverConn(t, p.ln)
	echo, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := p.conn.Import("mixed")
	if err != nil {
		t.Fatal(err)
	}
	serverBase := TableSizes{Exports: 2, ExportIDs: 2, Unhook: 2}
	clientBase := TableSizes{Imports: 2}
	waitTables(t, "server baseline", sc, serverBase)

	futs := []*core.Future{
		echo.InvokeAsyncFrom(p.task, "Echo", "before"),
		mixed.InvokeAsyncFrom(p.task, "Mixed"),
		echo.InvokeAsyncFrom(p.task, "Echo", "after"),
	}
	p.conn.Flush()
	for i, want := range []string{"before", "", "after"} {
		res, err := futs[i].Wait()
		if want == "" {
			if err == nil || !strings.Contains(err.Error(), "protocol error: encode results") {
				t.Errorf("unencodable result: err = %v, want the per-call protocol error", err)
			}
			continue
		}
		if err != nil || res[0] != any(want) {
			t.Errorf("call %d beside the failing one: %v, %v", i, res, err)
		}
	}
	waitTables(t, "server after", sc, serverBase)
	waitTables(t, "client after", p.conn, clientBase)
}

// Inbound calls are charged to the connection's domain on the serving
// kernel: one crossing per call, both streams' lengths.
func TestServedCallsAreMetered(t *testing.T) {
	p, _, proxy := keeperPair(t)
	sc := serverConn(t, p.ln)
	before := sc.Domain().Stats()
	if _, err := proxy.InvokeFrom(p.task, "Keep", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.InvokeFrom(p.task, "State"); err != nil {
		t.Fatal(err)
	}
	after := sc.Domain().Stats()
	if calls := after.CrossCalls - before.CrossCalls; calls != 2 {
		t.Errorf("served 2 calls, the connection's domain was charged %d crossings", calls)
	}
	if n := after.CopyBytes - before.CopyBytes; n < 4096+int64(len("callee state, as first returned")) {
		t.Errorf("charged %d copy bytes for a 4 KiB argument stream and a result stream", n)
	}
}
