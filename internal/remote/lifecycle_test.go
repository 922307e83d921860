package remote

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"jkernel/internal/core"
)

// Capability-lifecycle tests: the export table is reference-counted (a
// handle released by the importer, or a gate revocation, drops the entry
// and its revocation hook), imports die by explicit ReleaseProxy or local
// revocation, and inline imports fetch their method manifest lazily. The
// churn regression at the bottom is the leak gate: per-connection tables
// must return to baseline after ten thousand full cycles.

// serverConn waits for the listener to surface its accepted connection.
func serverConn(t testing.TB, ln *Listener) *Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if conns := ln.Conns(); len(conns) == 1 {
			return conns[0]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("listener never surfaced its connection")
	return nil
}

// waitTables polls until the connection's tables match want.
func waitTables(t testing.TB, what string, c *Conn, want TableSizes) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var got TableSizes
	for time.Now().Before(deadline) {
		if got = c.TableSizes(); got == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s tables never drained: got %+v, want %+v", what, got, want)
}

// waitHooks polls until the gate's revocation-hook count reaches want.
func waitHooks(t testing.TB, what string, g *core.Gate, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if g.RevokeHooks() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s still holds %d revocation hooks, want %d", what, g.RevokeHooks(), want)
}

// Releasing an imported proxy drops the exporter's table entry — and its
// gate revocation hook — without revoking the capability itself: a fresh
// import is a fresh grant.
func TestReleaseProxyDropsExport(t *testing.T) {
	p := newPair(t)
	cap := p.export(t, "echo", echoSvc{})
	sc := serverConn(t, p.ln)

	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.TableSizes(); got.Exports != 1 || got.Unhook != 1 {
		t.Fatalf("after import: %+v", got)
	}
	if cap.Gate().RevokeHooks() != 1 {
		t.Fatalf("exported gate holds %d hooks, want 1", cap.Gate().RevokeHooks())
	}

	if !ReleaseProxy(proxy) {
		t.Fatal("ReleaseProxy returned false for a live wire proxy")
	}
	if _, err := proxy.InvokeFrom(p.task, "Null"); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("released proxy still invokable: %v", err)
	}
	waitTables(t, "server", sc, TableSizes{})
	waitTables(t, "client", p.conn, TableSizes{})
	waitHooks(t, "exported gate", cap.Gate(), 0)
	if cap.Revoked() {
		t.Fatal("release revoked the exporter's capability")
	}

	// A fresh import is a fresh grant over a fresh table entry.
	again, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := again.InvokeFrom(p.task, "Echo", "back"); err != nil || res[0] != any("back") {
		t.Fatalf("re-imported proxy broken: %#v %v", res, err)
	}

	// ReleaseProxy is proxy-only: local capabilities refuse.
	if ReleaseProxy(cap) {
		t.Fatal("ReleaseProxy accepted a local capability")
	}
}

// Satellite regression: a revoked gate must leave exports, exportIDs, and
// the hook table immediately — not at connection shutdown.
func TestRevokedGateLeavesTables(t *testing.T) {
	p := newPair(t)
	cap := p.export(t, "echo", echoSvc{})
	sc := serverConn(t, p.ln)

	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.TableSizes(); got.Exports != 1 {
		t.Fatalf("after import: %+v", got)
	}
	cap.Revoke()
	waitTables(t, "server", sc, TableSizes{})
	// The revocation push kills the client proxy, whose release empties
	// the import table too.
	waitTables(t, "client", p.conn, TableSizes{})
	if _, err := proxy.InvokeFrom(p.task, "Null"); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("proxy survived gate revocation: %v", err)
	}
}

// stableMaker returns the same capability from every call, so repeated
// fetches re-send one export id — the re-export path of the release
// generation counter.
type stableMaker struct {
	cap *core.Capability
}

func (s *stableMaker) Get() (*core.Capability, error) { return s.cap, nil }

// blockSvc parks calls until released, to hold invokes in flight.
type blockSvc struct {
	gate chan struct{}
}

func (b *blockSvc) Wait() error { <-b.gate; return nil }
func (b *blockSvc) Ping() error { return nil }

// Satellite regression: replacing a released/revoked cached proxy must
// not strand in-flight async invokes on the old proxy — they resolve with
// the capability fault the moment the local gate is severed.
func TestReplacedProxyResolvesInflightFutures(t *testing.T) {
	p := newPair(t)
	blocker := &blockSvc{gate: make(chan struct{})}
	bcap, err := p.server.CreateNativeCapability(p.serverDom, blocker)
	if err != nil {
		t.Fatal(err)
	}
	p.export(t, "maker", &stableMaker{cap: bcap})
	maker, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}

	res, err := maker.InvokeFrom(p.task, "Get")
	if err != nil {
		t.Fatal(err)
	}
	first := res[0].(*core.Capability)
	fut := first.InvokeAsyncFrom(p.task, "Wait")
	p.conn.Flush()

	// Sever the local handle while the call is in flight: the future must
	// resolve with the capability fault, not hang behind the blocked call.
	ReleaseProxy(first)
	select {
	case <-fut.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight future never resolved after its proxy was released")
	}
	if _, err := fut.Wait(); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("stale future resolved with %v, want ErrRevoked", err)
	}

	// Re-fetching the same export yields a working replacement proxy.
	res, err = maker.InvokeFrom(p.task, "Get")
	if err != nil {
		t.Fatal(err)
	}
	second := res[0].(*core.Capability)
	if second.Revoked() {
		t.Fatal("replacement proxy arrived revoked")
	}
	if _, err := second.InvokeFrom(p.task, "Ping"); err != nil {
		t.Fatalf("replacement proxy broken: %v", err)
	}
	close(blocker.gate) // let the abandoned Wait drain; its reply is dropped
}

// Inline imports (capability results/arguments) arrive without a method
// manifest; the first Methods() call fetches it with one round trip and
// caches it on the proxy.
func TestInlineImportLazyManifest(t *testing.T) {
	p := newPair(t)
	p.export(t, "maker", &makerSvc{k: p.server, d: p.serverDom})
	maker, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	res, err := maker.InvokeFrom(p.task, "MakeCounter")
	if err != nil {
		t.Fatal(err)
	}
	counter := res[0].(*core.Capability)

	pt := proxyOf(counter)
	if pt == nil {
		t.Fatal("inline result is not a wire proxy")
	}
	if pt.methods.Load() != nil {
		t.Fatal("inline import arrived with a manifest; the lazy path is untested")
	}

	ms := counter.Methods()
	if len(ms) != 1 || ms[0] != "Add" {
		t.Fatalf("lazy manifest: %v, want [Add]", ms)
	}

	// The manifest is cached: it survives the exporter dropping the
	// export entry (which would fail a second wire fetch).
	ReleaseProxy(counter)
	waitTables(t, "client", p.conn, TableSizes{Imports: 1}) // maker remains
	if pt.methods.Load() == nil {
		t.Fatal("manifest not cached after fetch")
	}
	if ms := pt.ProxyMethods(); len(ms) != 1 || ms[0] != "Add" {
		t.Fatalf("cached manifest: %v, want [Add]", ms)
	}

	// A manifest fetch for a dropped export reports cleanly (no methods),
	// and does not fault the connection. The release travels batched, on
	// the flusher; wait until the exporter has applied it, or the fetch —
	// written by this goroutine — can overtake it and find the export.
	waitTables(t, "server", serverConn(t, p.ln), TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}) // maker remains
	if res, err := p.conn.callPeer(0, "Manifest", pt.exportID); err == nil {
		t.Fatalf("manifest fetch for dropped export %d returned %v", pt.exportID, res)
	}
	if res, err := maker.InvokeFrom(p.task, "MakeCounter"); err != nil || res[0] == nil {
		t.Fatalf("connection damaged by dead-export manifest fetch: %v", err)
	}
}

// Satellite regression: a peer pushing revocations for exports it never
// ships must not grow preRevoked without bound — the connection faults at
// the cap.
func TestPreRevokedCapFaultsConnection(t *testing.T) {
	server := core.MustNew(core.Options{})
	sock := filepath.Join(t.TempDir(), "prerevoke.sock")
	ln, err := Listen(server, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	flood := make([]pushEntry, maxPreRevoked+1)
	for i := range flood {
		flood[i] = pushEntry{kind: pushRevoke, exportID: uint64(1000 + i), reason: revokeReasonRevoked}
	}
	if err := writeFrame(nc, pushVector(flood...)); err != nil {
		t.Fatal(err)
	}
	// The server may get its Hello out before the flood faults it, so
	// drain frames until the connection actually dies.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	for {
		_, err := nc.Read(buf)
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("connection survived a parked-revocation flood")
		}
		return // faulted, as required
	}
}

// churnMaker mints a fresh capability per call and can revoke the last
// one it handed out — the server half of the churn cycle.
type churnMaker struct {
	k *core.Kernel
	d *core.Domain

	mu   sync.Mutex
	last *core.Capability
}

func (m *churnMaker) Make() (*core.Capability, error) {
	cap, err := m.k.CreateNativeCapability(m.d, &counterSvc{})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.last = cap
	m.mu.Unlock()
	return cap, nil
}

func (m *churnMaker) RevokeLast() error {
	m.mu.Lock()
	last := m.last
	m.last = nil
	m.mu.Unlock()
	if last != nil {
		last.Revoke()
	}
	return nil
}

// takerSvc receives a capability and releases it — the callee's half of
// the handle-discipline contract for inbound inline imports.
type takerSvc struct{}

func (takerSvc) Take(cap *core.Capability) error {
	if cap == nil {
		return errors.New("no capability")
	}
	if !ReleaseProxy(cap) {
		return errors.New("argument was not a wire proxy")
	}
	return nil
}

// leakProbe is registered only on the client's seri registry, so the
// server can decode the capability that precedes it in an argument
// vector but must fail on the probe itself.
type leakProbe struct {
	N int64
}

// A vector that fails to decode mid-stream must release the inline
// proxies it already minted: nothing else will ever own them, so without
// the decode rollback both ends' tables leak one entry per failed call.
func TestFailedDecodeReleasesMintedProxies(t *testing.T) {
	p := newPair(t)
	p.export(t, "taker", takerSvc{})
	sc := serverConn(t, p.ln)
	taker, err := p.conn.Import("taker")
	if err != nil {
		t.Fatal(err)
	}
	p.client.SeriRegistry().Register("LeakProbe", leakProbe{})

	serverBase := TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}
	clientBase := TableSizes{Imports: 1}
	waitTables(t, "server pre-fail", sc, serverBase)

	local, err := p.client.CreateNativeCapability(p.clientDom, &counterSvc{})
	if err != nil {
		t.Fatal(err)
	}
	// The capability decodes (and is imported server-side) before the
	// unregistered probe fails the vector; the call must error without
	// stranding that import or the client's export reference.
	if _, err := taker.InvokeFrom(p.task, "Take", local, leakProbe{N: 7}); err == nil {
		t.Fatal("invoke with an undecodable argument succeeded")
	}
	waitTables(t, "server post-fail", sc, serverBase)
	waitTables(t, "client post-fail", p.conn, clientBase)
	waitHooks(t, "client-local gate", local.Gate(), 0)
	if local.Revoked() {
		t.Fatal("decode rollback revoked the sender's capability")
	}
}

// The leak gate: ten thousand export/import/revoke/release cycles over
// one connection, in both directions, must leave every per-connection
// table at its pre-churn size.
func TestChurnTablesReturnToBaseline(t *testing.T) {
	cycles := 10000
	if testing.Short() {
		cycles = 1000
	}
	p := newPair(t)
	p.export(t, "maker", &churnMaker{k: p.server, d: p.serverDom})
	p.export(t, "taker", takerSvc{})
	sc := serverConn(t, p.ln)

	maker, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	taker, err := p.conn.Import("taker")
	if err != nil {
		t.Fatal(err)
	}

	// Steady state: the two lookup imports and nothing else.
	serverBase := TableSizes{Exports: 2, ExportIDs: 2, Unhook: 2}
	clientBase := TableSizes{Imports: 2}
	waitTables(t, "server pre-churn", sc, serverBase)
	waitTables(t, "client pre-churn", p.conn, clientBase)

	for i := 0; i < cycles; i++ {
		res, err := maker.InvokeFrom(p.task, "Make")
		if err != nil {
			t.Fatalf("cycle %d: Make: %v", i, err)
		}
		cap := res[0].(*core.Capability)
		switch i % 5 {
		case 0:
			// Exercise the lazy manifest before releasing.
			if ms := cap.Methods(); len(ms) != 1 || ms[0] != "Add" {
				t.Fatalf("cycle %d: manifest %v", i, ms)
			}
			ReleaseProxy(cap)
		case 1:
			// Server-side revocation: the push must clear both ends.
			if _, err := maker.InvokeFrom(p.task, "RevokeLast"); err != nil {
				t.Fatalf("cycle %d: RevokeLast: %v", i, err)
			}
		case 2:
			// The client→server direction: ship a fresh local capability
			// inline; the taker releases it on arrival.
			local, err := p.client.CreateNativeCapability(p.clientDom, &counterSvc{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := taker.InvokeFrom(p.task, "Take", local); err != nil {
				t.Fatalf("cycle %d: Take: %v", i, err)
			}
			ReleaseProxy(cap)
		default:
			if _, err := cap.InvokeFrom(p.task, "Add", int64(1)); err != nil {
				t.Fatalf("cycle %d: Add: %v", i, err)
			}
			ReleaseProxy(cap)
		}
	}

	waitTables(t, "server post-churn", sc, serverBase)
	waitTables(t, "client post-churn", p.conn, clientBase)

	// The telemetry gauges must agree with the drained tables: per-conn
	// table gauges back at their pre-churn values, nothing pending, and no
	// async call still counted in flight.
	cbase := "remote.conn." + p.conn.domain.Name
	waitGauges(t, "client post-churn", p.client, map[string]int64{
		cbase + ".imports":      2,
		cbase + ".pending":      0,
		cbase + ".push_backlog": 0,
		"core.async.inflight":   0,
	})
	sbase := "remote.conn." + sc.domain.Name
	waitGauges(t, "server post-churn", p.server, map[string]int64{
		sbase + ".exports":     2,
		sbase + ".pending":     0,
		sbase + ".pre_revoked": 0,
		"core.async.inflight":  0,
	})
}

// waitGauges polls a kernel's registry snapshot until every named gauge
// reads its wanted value.
func waitGauges(t testing.TB, what string, k *core.Kernel, want map[string]int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var got map[string]int64
	for time.Now().Before(deadline) {
		got = k.Telemetry().Snapshot().Gauges
		ok := true
		for name, v := range want {
			if got[name] != v {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s gauges never returned to baseline: got %v, want %v", what, got, want)
}

// Async churn: released handles queued behind batched invokes must drain
// the same way — a fan-out wave followed by a release sweep returns to
// baseline.
func TestChurnAsyncReleaseSweep(t *testing.T) {
	p := newPair(t)
	p.export(t, "maker", &churnMaker{k: p.server, d: p.serverDom})
	sc := serverConn(t, p.ln)
	maker, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	serverBase := TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}
	waitTables(t, "server pre-sweep", sc, serverBase)

	const wave = 256
	caps := make([]*core.Capability, 0, wave)
	for i := 0; i < wave; i++ {
		res, err := maker.InvokeFrom(p.task, "Make")
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, res[0].(*core.Capability))
	}
	futs := make([]*core.Future, 0, wave)
	for _, cap := range caps {
		futs = append(futs, cap.InvokeAsyncFrom(p.task, "Add", int64(1)))
	}
	p.conn.Flush()
	if err := core.WaitAll(futs...); err != nil {
		t.Fatal(err)
	}
	for _, cap := range caps {
		ReleaseProxy(cap)
	}
	p.conn.Flush()
	waitTables(t, "server post-sweep", sc, serverBase)
	waitTables(t, "client post-sweep", p.conn, TableSizes{Imports: 1})
}

// slowMaker mints a capability, but only once the test lets it return.
type slowMaker struct {
	k       *core.Kernel
	d       *core.Domain
	entered chan struct{}
	release chan struct{}
}

func (s *slowMaker) Make() (*core.Capability, error) {
	s.entered <- struct{}{}
	<-s.release
	return s.k.CreateNativeCapability(s.d, &counterSvc{})
}

// A reply that arrives after its call was cancelled has no record to
// complete, but the capability handle in it is real: the exporter counted
// a wire reference for it. The reader must release what the reply would
// have minted, or the import entry here and the export entry there outlive
// the call until the connection closes.
func TestLateReplyReleasesImports(t *testing.T) {
	p := newPair(t)
	svc := &slowMaker{k: p.server, d: p.serverDom, entered: make(chan struct{}), release: make(chan struct{})}
	p.export(t, "maker", svc)
	p.export(t, "echo", echoSvc{})
	sc := serverConn(t, p.ln)
	maker, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	echo, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	serverBase := TableSizes{Exports: 2, ExportIDs: 2, Unhook: 2}
	clientBase := TableSizes{Imports: 2}
	waitTables(t, "server baseline", sc, serverBase)
	replies := func() int64 { return p.server.Telemetry().Snapshot().Counters["remote.frames_out.reply"] }
	sent := replies()

	fut := maker.InvokeAsyncFrom(p.task, "Make")
	p.conn.Flush()
	<-svc.entered
	fut.Cancel()
	if _, err := fut.Wait(); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled future: %v", err)
	}
	close(svc.release)
	// Once the server has started writing the late reply, a round trip is
	// answered after it: when Null returns, the reader has dispatched it.
	for deadline := time.Now().Add(5 * time.Second); replies() == sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled call's reply never left the server")
		}
	}
	if _, err := echo.InvokeFrom(p.task, "Null"); err != nil {
		t.Fatal(err)
	}
	waitTables(t, "client after the late reply", p.conn, clientBase)
	waitTables(t, "server after the late reply", sc, serverBase)
}

// A future that another outcome resolved after the reader took its record
// drops the reply's results; the proxies their decode minted must be
// released with them, or the import entry here and the export entry there
// outlive the call. Revocation resolves the future but leaves the record
// pending, so the reply always loses; Cancel loses when it lands after the
// reader took the record, which the loop provokes by cancelling the moment
// the record leaves the pending table.
func TestLostRaceReleasesImports(t *testing.T) {
	for _, tc := range []struct {
		name  string
		calls int
		// lose lets Make return (release) and makes the future's resolution
		// race its reply.
		lose func(t *testing.T, p *pair, maker *core.Capability, fut *core.Future, release func())
	}{
		{"revoke", 1, func(t *testing.T, p *pair, maker *core.Capability, fut *core.Future, release func()) {
			maker.Revoke()
			release()
			if _, err := fut.Wait(); !errors.Is(err, core.ErrRevoked) {
				t.Fatalf("future of a revoked proxy: %v", err)
			}
		}},
		{"cancel", 50, func(t *testing.T, p *pair, _ *core.Capability, fut *core.Future, release func()) {
			release()
			for p.conn.TableSizes().Pending != 0 && !fut.Resolved() {
				runtime.Gosched()
			}
			fut.Cancel()
			if res, err := fut.Wait(); err == nil {
				res[0].(*core.Capability).Revoke() // the reply won: the result is ours to drop
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t)
			p.export(t, "echo", echoSvc{})
			sc := serverConn(t, p.ln)
			echo, err := p.conn.Import("echo")
			if err != nil {
				t.Fatal(err)
			}
			serverBase := TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}
			clientBase := TableSizes{Imports: 1}
			waitTables(t, "server baseline", sc, serverBase)
			serverKernel, clientKernel := p.server.TableSizes(), p.client.TableSizes()
			replies := func() int64 { return p.server.Telemetry().Snapshot().Counters["remote.frames_out.reply"] }
			for i := 0; i < tc.calls; i++ {
				svc := &slowMaker{k: p.server, d: p.serverDom, entered: make(chan struct{}), release: make(chan struct{})}
				name := fmt.Sprintf("maker-%d", i)
				p.export(t, name, svc)
				maker, err := p.conn.Import(name)
				if err != nil {
					t.Fatal(err)
				}
				sent := replies()
				fut := maker.InvokeAsyncFrom(p.task, "Make")
				p.conn.Flush()
				<-svc.entered
				tc.lose(t, p, maker, fut, func() { close(svc.release) })
				// Once the server has written the reply (and put Make's task
				// back), a round trip is answered after it: when Null
				// returns, the reader has dispatched it.
				for deadline := time.Now().Add(5 * time.Second); replies() == sent; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("Make's reply never left the server")
					}
				}
				if _, err := echo.InvokeFrom(p.task, "Null"); err != nil {
					t.Fatal(err)
				}
				maker.Revoke()
				p.server.Unexport(name)
			}
			waitTables(t, "client after the lost races", p.conn, clientBase)
			waitTables(t, "server after the lost races", sc, serverBase)
			waitKernelTables(t, "client", p.client, clientKernel)
			waitKernelTables(t, "server", p.server, serverKernel)
		})
	}
}
