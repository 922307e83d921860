package remote

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jkernel/internal/core"
)

// Three-party handoff tests: kernel A (origin) exports a capability, B
// (middleman) imports it and re-exports it to C (receiver), and C
// silently redeems the handoff ticket for a direct A–C import. The
// relay path must keep working whenever shortening cannot happen — an
// origin with no address, an unreachable one, revocation racing the
// redeem.

// capHolder republishes whatever capability the test parked in it — the
// middleman's re-export surface.
type capHolder struct {
	mu  sync.Mutex
	cap *core.Capability
}

func (h *capHolder) set(cap *core.Capability) {
	h.mu.Lock()
	h.cap = cap
	h.mu.Unlock()
}

func (h *capHolder) Get() (*core.Capability, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cap == nil {
		return nil, errors.New("holder is empty")
	}
	return h.cap, nil
}

// triple is three kernels chained over real unix sockets: B dials A, C
// dials B, and (when a handoff is redeemed) C dials A directly.
type triple struct {
	a, b, c          *core.Kernel
	aDom, bDom, cDom *core.Domain
	lnA, lnB         *Listener
	sockA            string
	ba               *Conn // B's connection to A
	cb               *Conn // C's connection to B
	ab               *Conn // A's server-side connection for B's dial
	bc               *Conn // B's server-side connection for C's dial
	holder           *capHolder
	taskB            *core.Task
	taskC            *core.Task
	clock            *testClock // the three kernels' wire-state clock
}

// testClock is a wire-state clock (kernelState.now) that a test moves past
// a TTL instead of waiting it out.
type testClock struct{ skew atomic.Int64 }

func (c *testClock) now() time.Time { return time.Now().Add(time.Duration(c.skew.Load())) }

func (c *testClock) advance(d time.Duration) { c.skew.Add(int64(d)) }

func newTriple(t testing.TB) *triple { return buildTriple(t, false) }

// newRelayTriple is newTriple with no origin address anywhere: A and B
// listen without advertising and B and C dial raw sockets, so no kernel
// in the chain can tell a receiver where to redeem, and every re-export
// stays on the relay path.
func newRelayTriple(t testing.TB) *triple { return buildTriple(t, true) }

func buildTriple(t testing.TB, relayOnly bool) *triple {
	t.Helper()
	listen := func(k *core.Kernel, sock string) *Listener {
		if !relayOnly {
			ln, err := Listen(k, "unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			return ln
		}
		nl, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		ln := NewListener(k, nl)
		go ln.Serve()
		return ln
	}
	dial := func(k *core.Kernel, sock string) *Conn {
		var c *Conn
		var err error
		if !relayOnly {
			c, err = Dial(k, "unix", sock)
		} else if nc, derr := net.Dial("unix", sock); derr != nil {
			err = derr
		} else {
			c, err = NewConn(k, nc)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tr := &triple{
		a:     core.MustNew(core.Options{}),
		b:     core.MustNew(core.Options{}),
		c:     core.MustNew(core.Options{}),
		clock: &testClock{},
	}
	for _, k := range []*core.Kernel{tr.a, tr.b, tr.c} {
		stateOf(k).now = tr.clock.now
	}
	var err error
	if tr.aDom, err = tr.a.NewDomain(core.DomainConfig{Name: "origin"}); err != nil {
		t.Fatal(err)
	}
	if tr.bDom, err = tr.b.NewDomain(core.DomainConfig{Name: "middle"}); err != nil {
		t.Fatal(err)
	}
	if tr.cDom, err = tr.c.NewDomain(core.DomainConfig{Name: "receiver"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tr.sockA = filepath.Join(dir, "a.sock")
	sockB := filepath.Join(dir, "b.sock")
	tr.lnA, tr.lnB = listen(tr.a, tr.sockA), listen(tr.b, sockB)
	tr.ba = dial(tr.b, tr.sockA)
	tr.ab = serverConn(t, tr.lnA)
	tr.cb = dial(tr.c, sockB)
	tr.bc = serverConn(t, tr.lnB)
	tr.holder = &capHolder{}
	holderCap, err := tr.b.CreateNativeCapability(tr.bDom, tr.holder)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.b.Export("holder", holderCap); err != nil {
		t.Fatal(err)
	}
	tr.taskB = tr.b.NewDetachedTask(tr.bDom, "triple-b")
	tr.taskC = tr.c.NewDetachedTask(tr.cDom, "triple-c")
	t.Cleanup(func() {
		tr.cb.Close()
		tr.ba.Close()
		tr.lnB.Close()
		tr.lnA.Close()
	})
	return tr
}

// relayImport runs one grant through the chain: B imports A's
// "origin-svc" export, parks it in the holder, and C re-imports it
// through B. The returned proxy is the relay import (possibly already
// shortened in the background).
func (tr *triple) relayImport(t testing.TB) *core.Capability {
	t.Helper()
	proxy, err := tr.ba.Import("origin-svc")
	if err != nil {
		t.Fatal(err)
	}
	tr.holder.set(proxy)
	holder, err := tr.cb.Import("holder")
	if err != nil {
		t.Fatal(err)
	}
	res, err := holder.InvokeFrom(tr.taskC, "Get")
	if err != nil {
		t.Fatal(err)
	}
	cap, ok := res[0].(*core.Capability)
	if !ok {
		t.Fatalf("Get returned %#v", res)
	}
	return cap
}

func waitShortened(t testing.TB, tr *triple, cap *core.Capability) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !HandoffDone(cap) {
		if time.Now().After(deadline) {
			reg := tr.c.Telemetry()
			t.Fatalf("handoff never redeemed (offers=%d redeemed=%d fallback=%d revoked=%d)",
				tr.b.Telemetry().Counter("remote.handoff.offers").Value(),
				reg.Counter("remote.handoff.redeemed").Value(),
				reg.Counter("remote.handoff.fallback").Value(),
				reg.Counter("remote.handoff.revoked").Value())
		}
		time.Sleep(time.Millisecond)
	}
}

func counterValue(k *core.Kernel, name string) int64 {
	return k.Telemetry().Counter(name).Value()
}

// The happy path: a re-exported import is silently shortened to a direct
// origin connection, the middleman's tables drain back to baseline, and
// the capability keeps working after the middleman's upstream link dies.
func TestHandoffShortensReexport(t *testing.T) {
	tr := newTriple(t)
	svc, err := tr.a.CreateNativeCapability(tr.aDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("origin-svc", svc); err != nil {
		t.Fatal(err)
	}

	cap := tr.relayImport(t)
	if res, err := cap.InvokeFrom(tr.taskC, "Echo", "via-b"); err != nil || res[0] != any("via-b") {
		t.Fatalf("relay invoke: %v %#v", err, res)
	}
	waitShortened(t, tr, cap)

	// The shortened proxy never lazy-fetches through the middleman: the
	// manifest arrived with the redeem reply.
	if ms := cap.Methods(); len(ms) == 0 {
		t.Fatal("redeemed import has no prefetched manifest")
	}
	if res, err := cap.InvokeFrom(tr.taskC, "Echo", "direct"); err != nil || res[0] != any("direct") {
		t.Fatalf("shortened invoke: %v %#v", err, res)
	}

	// The middleman drops out of the route: its relay export to C dies,
	// which unpins its own import — but B still HOLDS that import (the
	// holder), so the entry stays and B's proxy keeps working. Only the
	// relay plumbing drains.
	waitTables(t, "middleman B->C", tr.bc, TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}) // just the holder
	waitTables(t, "middleman B->A", tr.ba, TableSizes{Imports: 1})                          // B's own origin-svc import
	if res, err := tr.holder.cap.InvokeFrom(tr.taskB, "Echo", "b-still-works"); err != nil || res[0] != any("b-still-works") {
		t.Fatalf("middleman's own import died with the handoff: %v %#v", err, res)
	}
	if got := counterValue(tr.c, "remote.handoff.redeemed"); got != 1 {
		t.Fatalf("redeemed counter = %d, want 1", got)
	}
	if tickets := HandoffTableSizes(tr.a).Tickets; tickets != 0 {
		t.Fatalf("origin still holds %d tickets", tickets)
	}

	// Directness proof: sever B's upstream connection entirely — a relay
	// would fault, the shortened route does not care.
	tr.ba.Close()
	if res, err := cap.InvokeFrom(tr.taskC, "Sum", int64(40), int64(2)); err != nil || res[0] != any(int64(42)) {
		t.Fatalf("invoke after middleman upstream loss: %v %#v", err, res)
	}
}

// An unreachable origin leaves the relay path untouched: the capability
// keeps working through the middleman and no shortening is claimed.
func TestHandoffFallbackWhenOriginUnreachable(t *testing.T) {
	tr := newTriple(t)
	svc, err := tr.a.CreateNativeCapability(tr.aDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("origin-svc", svc); err != nil {
		t.Fatal(err)
	}

	proxy, err := tr.ba.Import("origin-svc")
	if err != nil {
		t.Fatal(err)
	}
	tr.holder.set(proxy)

	// Unlink A's socket AFTER B's connection is up: the established B–A
	// link lives on (so the offer is still minted with A's address), but
	// C's redeem dial must fail and fall back to the relay.
	os.Remove(tr.sockA)

	holder, err := tr.cb.Import("holder")
	if err != nil {
		t.Fatal(err)
	}
	res, err := holder.InvokeFrom(tr.taskC, "Get")
	if err != nil {
		t.Fatal(err)
	}
	cap := res[0].(*core.Capability)

	deadline := time.Now().Add(15 * time.Second)
	for counterValue(tr.c, "remote.handoff.fallback") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("redeem never fell back")
		}
		time.Sleep(time.Millisecond)
	}
	if HandoffDone(cap) {
		t.Fatal("handoff claimed shortened with the origin unreachable")
	}
	if res, err := cap.InvokeFrom(tr.taskC, "Echo", "still-relayed"); err != nil || res[0] != any("still-relayed") {
		t.Fatalf("relay fallback invoke: %v %#v", err, res)
	}
}

// An origin that never advertised an address pins re-exports of its
// capabilities to the relay path: no offers, no tickets, and the
// capability still works.
func TestHandoffDisabledPinsRelay(t *testing.T) {
	tr := newRelayTriple(t)
	svc, err := tr.a.CreateNativeCapability(tr.aDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("origin-svc", svc); err != nil {
		t.Fatal(err)
	}

	cap := tr.relayImport(t)
	if res, err := cap.InvokeFrom(tr.taskC, "Echo", "relay-only"); err != nil || res[0] != any("relay-only") {
		t.Fatalf("relay invoke: %v %#v", err, res)
	}
	// Give any stray offer time to land, then assert none was minted.
	time.Sleep(50 * time.Millisecond)
	if got := counterValue(tr.b, "remote.handoff.offers"); got != 0 {
		t.Fatalf("middleman minted %d offers for an origin with no address", got)
	}
	if HandoffDone(cap) {
		t.Fatal("handoff claimed shortened with no origin address")
	}
	if tickets := HandoffTableSizes(tr.a).Tickets; tickets != 0 {
		t.Fatalf("origin holds %d tickets it could never be redeemed at", tickets)
	}
}

// End-to-end revocation across a shortened path: A revokes while C holds
// in-flight sync and async calls on the redeemed import — everything
// resolves with the capability fault, nothing hangs. The second half
// re-runs the scenario on the relay fallback (no origin address).
func TestHandoffRevocationAcrossShortenedPath(t *testing.T) {
	for _, relayOnly := range []bool{false, true} {
		name := "shortened"
		if relayOnly {
			name = "relay-fallback"
		}
		t.Run(name, func(t *testing.T) {
			tr := buildTriple(t, relayOnly)
			block := &blockSvc{gate: make(chan struct{})}
			svc, err := tr.a.CreateNativeCapability(tr.aDom, block)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.a.Export("origin-svc", svc); err != nil {
				t.Fatal(err)
			}
			cap := tr.relayImport(t)
			if !relayOnly {
				waitShortened(t, tr, cap)
			}

			// In-flight traffic: a parked sync call and a wave of futures.
			syncErr := make(chan error, 1)
			go func() {
				_, err := cap.InvokeFrom(tr.c.NewDetachedTask(tr.cDom, "sync-wait"), "Wait")
				syncErr <- err
			}()
			futs := make([]*core.Future, 8)
			for i := range futs {
				futs[i] = cap.InvokeAsyncFrom(tr.taskC, "Wait")
			}
			tr.cb.Flush()
			time.Sleep(20 * time.Millisecond) // let the calls park server-side

			svc.Revoke()
			close(block.gate) // unblock the servers; replies race the push

			for i, fut := range futs {
				if _, err := fut.Wait(); err != nil && !capFault(err) {
					t.Fatalf("future %d: non-capability fault %v", i, err)
				}
			}
			if err := <-syncErr; err != nil && !capFault(err) {
				t.Fatalf("sync call: non-capability fault %v", err)
			}

			// The push reached C: every further call faults.
			deadline := time.Now().Add(10 * time.Second)
			for {
				_, err := cap.InvokeFrom(tr.taskC, "Ping")
				if capFault(err) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("revocation never reached the receiver (last err: %v)", err)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// Mid-redeem revocation: a ticket whose gate dies between mint and redeem
// must fault the redemption, never resurrect the export. Driven
// deterministically through the origin's own tables.
func TestHandoffMidRedeemRevocationFaults(t *testing.T) {
	tr := newTriple(t)
	svc, err := tr.a.CreateNativeCapability(tr.aDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("origin-svc", svc); err != nil {
		t.Fatal(err)
	}

	// Mint a ticket by hand at the origin, then revoke the gate before
	// anyone redeems: the redeem must answer with the capability fault.
	nonce := newNonce()
	if err := stateOf(tr.a).registerTicket(nonce, svc, 7); err != nil {
		t.Fatal(err)
	}
	svc.Revoke()

	oc, err := stateOf(tr.c).originConn(tr.c, "unix", tr.sockA)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := oc.redeem(nonce, 7); !errors.Is(err, core.ErrRevoked) {
		t.Fatalf("redeem of a revoked ticket: %v, want ErrRevoked", err)
	}
	if got := HandoffTableSizes(tr.a).Tickets; got != 0 {
		t.Fatalf("consumed ticket still registered (%d left)", got)
	}
	// One-time semantics: the same nonce can never be redeemed twice.
	if _, _, err := oc.redeem(nonce, 7); err == nil {
		t.Fatal("second redeem of a one-time ticket succeeded")
	}
}

// The -race stress companion to the mid-redeem race: grants are minted,
// handed off, and revoked concurrently; every outcome must be either a
// working (possibly shortened) import or a clean capability fault, and
// all three kernels' handoff tables must drain.
func TestHandoffStressMintRedeemRevoke(t *testing.T) {
	tr := newTriple(t)
	maker := &churnMaker{k: tr.a, d: tr.aDom}
	mcap, err := tr.a.CreateNativeCapability(tr.aDom, maker)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("maker", mcap); err != nil {
		t.Fatal(err)
	}
	bmaker, err := tr.ba.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	holder, err := tr.cb.Import("holder")
	if err != nil {
		t.Fatal(err)
	}

	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		res, err := bmaker.InvokeFrom(tr.taskB, "Make")
		if err != nil {
			t.Fatalf("iter %d: Make: %v", i, err)
		}
		fresh := res[0].(*core.Capability)
		tr.holder.set(fresh)
		got, err := holder.InvokeFrom(tr.taskC, "Get")
		if err != nil {
			t.Fatalf("iter %d: Get: %v", i, err)
		}
		cap := got[0].(*core.Capability)

		// Revocation races the background redeem from a second goroutine.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			}
			if _, err := bmaker.InvokeFrom(tr.taskB, "RevokeLast"); err != nil {
				t.Errorf("iter %d: RevokeLast: %v", i, err)
			}
		}()
		if _, err := cap.InvokeFrom(tr.taskC, "Add", int64(1)); err != nil && !capFault(err) {
			t.Fatalf("iter %d: non-capability fault %v", i, err)
		}
		wg.Wait()
		ReleaseProxy(cap)
		ReleaseProxy(fresh)
	}

	// Tickets are one-time and TTL-bounded; after the storm the origin's
	// table must drain (redeems consumed them, revoked ones answered the
	// fault, and the TTL, which the clock skips, took any other) and no
	// offer may stay parked at the receiver.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ht := HandoffTableSizes(tr.a)
		cs := tr.cb.TableSizes()
		if ht.Tickets == 0 && cs.Handoffs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff tables never drained: origin=%+v receiver=%+v", ht, cs)
		}
		tr.clock.advance(ticketTTL + time.Second)
		time.Sleep(5 * time.Millisecond)
	}
}

// Depth-2 relay manifest regression: with no origin address anywhere the
// chain A->B->C->D stays a two-deep relay, and a manifest fetch on the
// deepest import must traverse it without wedging any connection's reader.
func TestHandoffDepthTwoRelayManifest(t *testing.T) {
	tr := newRelayTriple(t)
	d := core.MustNew(core.Options{})
	dDom, err := d.NewDomain(core.DomainConfig{Name: "deep"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tr.a.CreateNativeCapability(tr.aDom, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("origin-svc", svc); err != nil {
		t.Fatal(err)
	}
	cap := tr.relayImport(t) // depth-1 relay at C

	// Re-export the relay one hop further: C -> D.
	sockC := filepath.Join(t.TempDir(), "c.sock")
	lnC, err := Listen(tr.c, "unix", sockC)
	if err != nil {
		t.Fatal(err)
	}
	defer lnC.Close()
	deepHolder := &capHolder{}
	deepHolder.set(cap)
	dh, err := tr.c.CreateNativeCapability(tr.cDom, deepHolder)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.c.Export("deep-holder", dh); err != nil {
		t.Fatal(err)
	}
	dc, err := Dial(d, "unix", sockC)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	holder, err := dc.Import("deep-holder")
	if err != nil {
		t.Fatal(err)
	}
	taskD := d.NewDetachedTask(dDom, "deep")
	res, err := holder.InvokeFrom(taskD, "Get")
	if err != nil {
		t.Fatal(err)
	}
	deep := res[0].(*core.Capability)

	// The regression: Methods() walks manifest fetches D->C->B->A; each
	// hop must run off its reader so the chain cannot stall behind its
	// own pending reply.
	done := make(chan []string, 1)
	go func() { done <- deep.Methods() }()
	select {
	case ms := <-done:
		if len(ms) == 0 {
			t.Fatal("depth-2 relay manifest came back empty")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("depth-2 relay manifest fetch wedged")
	}
	if res, err := deep.InvokeFrom(taskD, "Echo", "deep"); err != nil || res[0] != any("deep") {
		t.Fatalf("depth-2 invoke: %v %#v", err, res)
	}
}

// Ticket-table flood discipline: a middleman registering more tickets
// than one TTL window allows is refused, reusing the preRevoked bound
// semantics (the connection-level caller faults on the error).
func TestHandoffTicketFloodRefused(t *testing.T) {
	k := core.MustNew(core.Options{})
	d, err := k.NewDomain(core.DomainConfig{Name: "flood"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateNativeCapability(d, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	ks := stateOf(k)
	for i := 0; i < maxTickets; i++ {
		if err := ks.registerTicket(uint64(i+1), cap, uint64(i)); err != nil {
			t.Fatalf("ticket %d refused below the cap: %v", i, err)
		}
	}
	if err := ks.registerTicket(uint64(maxTickets+1), cap, 0); err == nil {
		t.Fatal("ticket table grew past its bound")
	}
}

// Tickets and a connection's parked revocations age on the kernel's wire
// clock: moved past their TTLs they are pruned, and not a moment before.
func TestTTLFollowsTheWireClock(t *testing.T) {
	k, peer := core.MustNew(core.Options{}), core.MustNew(core.Options{})
	clock := &testClock{}
	stateOf(k).now = clock.now
	d, err := k.NewDomain(core.DomainConfig{Name: "ttl"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateNativeCapability(d, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "peer.sock")
	ln, err := Listen(peer, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial(k, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := stateOf(k).registerTicket(1, cap, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.handleRevoke(42, revokeReasonRevoked); err != nil {
		t.Fatal(err)
	}
	clock.advance(preRevokedTTL - time.Second)
	if got := c.TableSizes().PreRevoked; got != 1 {
		t.Fatalf("%d parked revocations inside their window, want 1", got)
	}
	clock.advance(2 * time.Second)
	if got := c.TableSizes().PreRevoked; got != 0 {
		t.Errorf("%d parked revocations past their window, want 0", got)
	}
	clock.advance(ticketTTL - preRevokedTTL - 2*time.Second)
	if got := HandoffTableSizes(k).Tickets; got != 1 {
		t.Fatalf("%d tickets inside the TTL, want 1", got)
	}
	clock.advance(2 * time.Second)
	if got := HandoffTableSizes(k).Tickets; got != 0 {
		t.Errorf("%d tickets past the TTL, want 0", got)
	}
}

// TestChurnThreeKernelTablesReturnToBaseline is satellite coverage for
// the relayed-capability release leak: grant/relay/redeem/release cycles
// across three kernels must leave every table — A's exports, B's relay
// entries and upstream imports, C's imports, and the origin's ticket
// table — at its pre-churn size, with handoff shortening every grant and
// on the relay path alone (no origin address anywhere). (The TestChurn
// prefix keeps it inside the CI leak-soak pattern.)
func TestChurnThreeKernelTablesReturnToBaseline(t *testing.T) {
	t.Run("shortened", func(t *testing.T) { churnThreeKernels(t, newTriple(t)) })
	t.Run("relay", func(t *testing.T) { churnThreeKernels(t, newRelayTriple(t)) })
}

func churnThreeKernels(t *testing.T, tr *triple) {
	maker := &churnMaker{k: tr.a, d: tr.aDom}
	mcap, err := tr.a.CreateNativeCapability(tr.aDom, maker)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.a.Export("maker", mcap); err != nil {
		t.Fatal(err)
	}
	bmaker, err := tr.ba.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	holder, err := tr.cb.Import("holder")
	if err != nil {
		t.Fatal(err)
	}

	baBase := TableSizes{Imports: 1}                          // B's maker proxy
	abBase := TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1} // A's maker export
	bcBase := TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1} // B's holder export
	cbBase := TableSizes{Imports: 1}                          // C's holder proxy
	waitTables(t, "B->A pre-churn", tr.ba, baBase)
	waitTables(t, "A->B pre-churn", tr.ab, abBase)

	cycles := 2000
	if testing.Short() {
		cycles = 300
	}
	for i := 0; i < cycles; i++ {
		res, err := bmaker.InvokeFrom(tr.taskB, "Make")
		if err != nil {
			t.Fatalf("cycle %d: Make: %v", i, err)
		}
		fresh := res[0].(*core.Capability)
		tr.holder.set(fresh)
		got, err := holder.InvokeFrom(tr.taskC, "Get")
		if err != nil {
			t.Fatalf("cycle %d: Get: %v", i, err)
		}
		cap := got[0].(*core.Capability)
		switch i % 3 {
		case 0:
			// Use, then release from the receiver outward: the relay
			// entry's death must propagate B's own references upstream.
			if _, err := cap.InvokeFrom(tr.taskC, "Add", int64(1)); err != nil && !capFault(err) {
				t.Fatalf("cycle %d: Add: %v", i, err)
			}
			ReleaseProxy(cap)
			ReleaseProxy(fresh)
		case 1:
			// Origin-side revocation mid-flight: the push must clear all
			// three kernels whether or not the redeem won the race.
			if _, err := bmaker.InvokeFrom(tr.taskB, "RevokeLast"); err != nil {
				t.Fatalf("cycle %d: RevokeLast: %v", i, err)
			}
			ReleaseProxy(cap)
			ReleaseProxy(fresh)
		case 2:
			// Release without ever invoking (the redeem may still be in
			// flight when the proxy dies).
			ReleaseProxy(cap)
			ReleaseProxy(fresh)
		}
	}

	waitTables(t, "B->A post-churn", tr.ba, baBase)
	waitTables(t, "A->B post-churn", tr.ab, abBase)
	waitTables(t, "B->C post-churn", tr.bc, bcBase)
	waitTables(t, "C->B post-churn", tr.cb, cbBase)
	// A ticket whose redeem never came (the grant was revoked or released
	// first) expires with the TTL, which the clock skips.
	deadline := time.Now().Add(10 * time.Second)
	for {
		at := HandoffTableSizes(tr.a)
		if at.Tickets == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("origin ticket table never drained: %+v", at)
		}
		tr.clock.advance(ticketTTL + time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	// The direct A<-C connection minted per-cycle exports; all of them
	// must be released once every redeemed proxy died.
	for _, conn := range tr.lnA.Conns() {
		if conn == tr.ab {
			continue
		}
		waitTables(t, "A->C post-churn", conn, TableSizes{})
	}
}
