package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/seri"
)

// writeFrame writes one length-prefixed frame, the way a raw peer does.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame into a fresh allocation.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// appendCall appends one complete call entry to a msgInvoke body (the live
// sender writes the header and hands the args to writev).
func appendCall(w *wbuf, reqID, exportID uint64, method string, traceID, parentSpan uint64, args []byte) {
	appendCallHeader(w, reqID, exportID, method, traceID, parentSpan, len(args))
	w.raw(args)
}

// bootInvoke is the frame of a call on the receiver's bootstrap, as a
// peer writes it: a vector of one.
func bootInvoke(reqID uint64, method string, args ...any) []byte {
	stream, err := seri.AppendVector(nil, nil, args, nil, nil)
	if err != nil {
		panic(err)
	}
	w := &wbuf{}
	w.u8(msgInvoke)
	w.uvarint(1)
	appendCall(w, reqID, bootstrapID, method, 0, 0, stream)
	return w.b
}

// replyVector is the msgReply frame carrying reps, as a peer writes it.
func replyVector(reps ...replyFrame) []byte {
	w := &wbuf{}
	w.u8(msgReply)
	w.uvarint(uint64(len(reps)))
	for i := range reps {
		w.raw(appendReplyHeader(w, &reps[i]))
	}
	return w.b
}

// pushVector is the msgPush frame carrying entries, as a peer writes it.
func pushVector(entries ...pushEntry) []byte {
	w := &wbuf{}
	w.u8(msgPush)
	w.uvarint(uint64(len(entries)))
	for i := range entries {
		appendPush(w, &entries[i])
	}
	return w.b
}

// isHello reports whether call is a Hello on the receiver's bootstrap.
func isHello(call invokeFrame) bool {
	return call.exportID == bootstrapID && string(call.method) == "Hello"
}

// scriptedPeer is the far end of a connection played by the test: a raw
// socket on which the test reads the frames a real Conn sends and answers
// them when, and in the order, it chooses — the only way to make a reply
// late or a route stale on purpose.
type scriptedPeer struct {
	t    *testing.T
	nc   net.Conn
	conn *Conn // the real end
	k    *core.Kernel
	dom  *core.Domain
	task *core.Task
	// calls holds the calls of the last msgInvoke vector read that
	// nextInvoke has not handed out yet.
	calls []invokeFrame
}

func newScriptedPeer(t *testing.T) *scriptedPeer {
	t.Helper()
	return newScriptedPeerOn(t, func(nc net.Conn) net.Conn { return nc })
}

// newScriptedPeerOn is newScriptedPeer with the real end's socket seen
// through wrap.
func newScriptedPeerOn(t *testing.T, wrap func(net.Conn) net.Conn) *scriptedPeer {
	t.Helper()
	return newScriptedPeerAt(t, time.Now, wrap)
}

// newScriptedPeerAt is newScriptedPeerOn with the real end's kernel on the
// wire-state clock now from its first frame on.
func newScriptedPeerAt(t *testing.T, now func() time.Time, wrap func(net.Conn) net.Conn) *scriptedPeer {
	t.Helper()
	k := core.MustNew(core.Options{})
	stateOf(k).now = now
	d, err := k.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "peer.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := NewConn(k, wrap(dialed))
	if err != nil {
		t.Fatal(err)
	}
	sp := &scriptedPeer{t: t, nc: nc, conn: conn, k: k, dom: d, task: k.NewDetachedTask(d, "test")}
	t.Cleanup(func() {
		conn.Close()
		nc.Close()
	})
	// NewConn announces itself with a Hello on the peer's bootstrap; leave
	// it unanswered but consume it.
	if call := sp.nextInvoke(); !isHello(call) {
		t.Fatalf("first call is %+v, want a Hello on the bootstrap", call)
	}
	return sp
}

// next reads and decodes the next frame the real end sent.
func (sp *scriptedPeer) next() inFrame {
	sp.t.Helper()
	sp.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := readFrame(sp.nc)
	if err != nil {
		sp.t.Fatalf("scripted peer read: %v", err)
	}
	var f inFrame
	if err := decodeFrame(raw, &f); err != nil {
		sp.t.Fatalf("scripted peer decode: %v", err)
	}
	return f
}

// nextInvoke returns the next call the real end sent, reading frames
// until a msgInvoke vector arrives when none is left over from the last.
func (sp *scriptedPeer) nextInvoke() invokeFrame {
	sp.t.Helper()
	for len(sp.calls) == 0 {
		if f := sp.next(); f.t == msgInvoke {
			sp.calls = f.calls
		}
	}
	call := sp.calls[0]
	sp.calls = sp.calls[1:]
	return call
}

func (sp *scriptedPeer) write(w *wbuf) {
	sp.t.Helper()
	if err := writeFrame(sp.nc, w.b); err != nil {
		sp.t.Fatalf("scripted peer write: %v", err)
	}
}

func (sp *scriptedPeer) replyOK(reqID uint64) {
	sp.write(&wbuf{b: replyVector(replyFrame{reqID: reqID, status: statusOK})})
}

func (sp *scriptedPeer) replyFail(reqID uint64, kind byte, msg string) {
	sp.write(&wbuf{b: replyVector(replyFrame{reqID: reqID, status: statusErr, kind: kind, msg: msg})})
}

// proxy mints a proxy for the scripted peer's (imaginary) export id.
func (sp *scriptedPeer) proxy(id uint64) *core.Capability {
	sp.t.Helper()
	sp.conn.mu.Lock()
	cap, _, _, err := sp.conn.importLocked(id)
	sp.conn.mu.Unlock()
	if err != nil {
		sp.t.Fatal(err)
	}
	proxyOf(cap).setManifest([]string{"Null"})
	return cap
}

// recordOf returns the record pending under reqID on the real end.
func (sp *scriptedPeer) recordOf(reqID uint64) *callRecord {
	sp.conn.mu.Lock()
	defer sp.conn.mu.Unlock()
	return sp.conn.pending[reqID]
}

// settled waits until the real end's reader has consumed everything the
// script wrote so far, by bouncing a Hello off its bootstrap: the reader
// dispatches frames in order, and the answer leaves after the call it
// answers. No invoke may be in flight toward the script.
func (sp *scriptedPeer) settled() {
	sp.t.Helper()
	if len(sp.calls) != 0 {
		sp.t.Fatalf("calls nobody read: %+v", sp.calls)
	}
	sp.write(&wbuf{b: bootInvoke(1<<40, "Hello", "", "")})
	for {
		switch f := sp.next(); f.t {
		case msgReply:
			for _, rep := range f.replies {
				if rep.reqID != 1<<40 {
					continue
				}
				if rep.status != statusOK {
					sp.t.Fatalf("the bootstrap refused a Hello: %s", rep.msg)
				}
				return
			}
		case msgInvoke:
			sp.t.Fatalf("an invoke frame nobody expected: %+v", f)
		}
	}
}

// failingConn is a socket whose writes start failing on cue.
type failingConn struct {
	net.Conn
	fail atomic.Bool
}

var errWriteFailed = errors.New("write failed on cue")

func (fc *failingConn) Write(p []byte) (int, error) {
	if fc.fail.Load() {
		return 0, errWriteFailed
	}
	return fc.Conn.Write(p)
}

// A frame that cannot be written faults the connection with the write's
// error, whichever writer hit it: a reply vector, so the peer's calls fail
// through its own teardown instead of waiting on a live connection for
// replies that will never come, and an invoke vector, whose stream may
// hold half a frame, so the caller's call and the connection end together.
func TestReplyWriteFailureFaultsConnection(t *testing.T) {
	for _, c := range []struct {
		name string
		// write makes the real end write a frame and returns what to check
		// once the connection is down.
		write func(t *testing.T, sp *scriptedPeer) (after func())
	}{
		{"reply", func(t *testing.T, sp *scriptedPeer) func() {
			hello, err := seri.AppendVector(nil, nil, []any{"", ""}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			w := &wbuf{}
			w.u8(msgInvoke)
			w.uvarint(2)
			appendCall(w, 1, bootstrapID, "Hello", 0, 0, hello)
			appendCall(w, 2, bootstrapID, "Hello", 0, 0, hello)
			sp.write(w)
			return func() {}
		}},
		{"invoke", func(t *testing.T, sp *scriptedPeer) func() {
			fut := sp.proxy(7).InvokeAsyncFrom(sp.task, "Null")
			return func() {
				if _, err := fut.Wait(); !errors.Is(err, core.ErrRevoked) {
					t.Errorf("a call whose invoke write failed: %v, want a revocation", err)
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var fc *failingConn
			sp := newScriptedPeerOn(t, func(nc net.Conn) net.Conn {
				fc = &failingConn{Conn: nc}
				return fc
			})
			fc.fail.Store(true)
			after := c.write(t, sp)
			select {
			case <-sp.conn.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("the connection is still up after its %s write failed", c.name)
			}
			if err := sp.conn.Err(); !errors.Is(err, errWriteFailed) {
				t.Fatalf("connection shut down with %v, want the write error", err)
			}
			after()
		})
	}
}

// A record is recycled the moment its one completion (or its drop) is
// done, and the next call may get the same struct. Whatever still names
// the old call — an answer that arrives after its Ping timed out, a reply to
// a cancelled invoke, a second cancel with the old token — must find
// nothing and leave the record's new call alone.
func TestStaleCompletionsAreInertAgainstARecycledRecord(t *testing.T) {
	// One P, so the pool hands the next Get what the last Put returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := newScriptedPeer(t)
	proxy := sp.proxy(7)

	// reuse ends a call early (stale: a timeout or a cancel; it returns
	// the call's request id and record) and starts a victim call, until the
	// victim is running on the stale call's recycled record — the pool
	// promises nothing, and drops Puts at random under the race detector.
	reuse := func(stale func() (uint64, *callRecord)) (staleID uint64, victim *core.Future, inv invokeFrame) {
		t.Helper()
		for try := 0; try < 200; try++ {
			id, rec := stale()
			if rec == nil {
				t.Fatal("the stale call never had a pending record")
			}
			fut := proxy.InvokeAsyncFrom(sp.task, "Null")
			inv := sp.nextInvoke()
			if sp.recordOf(inv.reqID) == rec {
				return id, fut, inv
			}
			sp.replyOK(inv.reqID)
			if _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatal("the pool never handed a recycled record to the next call")
		return 0, nil, invokeFrame{}
	}
	// untouched checks, once the reader has consumed what the script sent,
	// that the victim is still pending on its own record.
	untouched := func(what string, victim *core.Future, inv invokeFrame) {
		t.Helper()
		rec := sp.recordOf(inv.reqID)
		sp.settled()
		if victim.Resolved() {
			_, err := victim.Wait()
			t.Fatalf("%s completed the call that reused its record (err %v)", what, err)
		}
		if rec == nil || sp.recordOf(inv.reqID) != rec {
			t.Fatalf("%s took the pending slot of the call that reused its record", what)
		}
	}
	finish := func(victim *core.Future, inv invokeFrame) {
		t.Helper()
		sp.replyOK(inv.reqID)
		if _, err := victim.Wait(); err != nil {
			t.Fatalf("victim call: %v", err)
		}
	}

	// A Ping times out; its answer arrives after the record moved on.
	pingID, victim, inv := reuse(func() (uint64, *callRecord) {
		pinged := make(chan error, 1)
		go func() { pinged <- sp.conn.Ping(20 * time.Millisecond) }()
		ping := sp.nextInvoke()
		if !isHello(ping) {
			t.Fatalf("call %+v, want a Hello", ping)
		}
		rec := sp.recordOf(ping.reqID)
		if err := <-pinged; err == nil {
			t.Fatal("unanswered ping did not time out")
		}
		return ping.reqID, rec
	})
	sp.replyOK(pingID)
	untouched("a late answer to a ping", victim, inv)
	finish(victim, inv)

	// An invoke is cancelled; its reply arrives after the record moved on,
	// and then a second cancel with the old token.
	cancelledID, victim, inv := reuse(func() (uint64, *callRecord) {
		doomed := proxy.InvokeAsyncFrom(sp.task, "Null")
		dinv := sp.nextInvoke()
		rec := sp.recordOf(dinv.reqID)
		doomed.Cancel()
		if _, err := doomed.Wait(); !errors.Is(err, core.ErrCancelled) {
			t.Fatalf("cancelled future: %v", err)
		}
		return dinv.reqID, rec
	})
	sp.replyFail(cancelledID, errKindRemote, "late reply to a cancelled call")
	untouched("a late reply", victim, inv)
	proxyOf(proxy).CancelProxy(cancelledID)
	untouched("a stale cancel", victim, inv)
	finish(victim, inv)

	if n := sp.conn.TableSizes().Pending; n != 1 { // the unanswered announcement
		t.Fatalf("%d records still pending, want the announcing Hello's one", n)
	}
}

// A parked bootstrap call is not load: PendingCalls counts user invokes
// only, while TableSizes still sees every record.
func TestPendingCallsCountsInvokesOnly(t *testing.T) {
	sp := newScriptedPeer(t)
	proxy := sp.proxy(7)
	base := sp.conn.TableSizes().Pending

	pinged := make(chan error, 1)
	go func() { pinged <- sp.conn.Ping(5 * time.Second) }()
	ping := sp.nextInvoke()
	if got := sp.conn.PendingCalls(); got != 0 {
		t.Fatalf("PendingCalls = %d with only a ping parked, want 0", got)
	}
	if got := sp.conn.TableSizes().Pending; got != base+1 {
		t.Fatalf("TableSizes.Pending = %d with a ping parked, want %d", got, base+1)
	}

	fut := proxy.InvokeAsyncFrom(sp.task, "Null")
	inv := sp.nextInvoke()
	synced := make(chan error, 1)
	go func() {
		task := sp.k.NewDetachedTask(sp.dom, "sync")
		_, err := proxy.InvokeFrom(task, "Null")
		synced <- err
	}()
	inv2 := sp.nextInvoke()
	if got := sp.conn.PendingCalls(); got != 2 {
		t.Fatalf("PendingCalls = %d with an async and a sync invoke in flight, want 2", got)
	}

	sp.replyOK(ping.reqID)
	if err := <-pinged; err != nil {
		t.Fatal(err)
	}
	sp.replyOK(inv.reqID)
	sp.replyOK(inv2.reqID)
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got := sp.conn.PendingCalls(); got != 0 {
		t.Fatalf("PendingCalls = %d after every reply, want 0", got)
	}
}

// A blocking call whose relay route is released under it (the handoff was
// redeemed mid-call, so the middleman rejects it before dispatch with
// errKindUnknownExport) never ran: it is reissued on the shortened route,
// exactly once, and its caller sees only the second answer.
func TestSyncCallOnReleasedRelayRouteIsReissuedOnce(t *testing.T) {
	relay, direct := newScriptedPeer(t), newScriptedPeer(t)
	proxy := relay.proxy(7)
	proxyOf(proxy).next.Store(&proxyTarget{conn: direct.conn, exportID: 9, redeemed: true})

	done := make(chan error, 1)
	go func() {
		_, err := proxy.InvokeFrom(relay.task, "Null")
		done <- err
	}()
	first := relay.nextInvoke()
	if first.exportID != 7 {
		t.Fatalf("relay saw export %d, want 7", first.exportID)
	}
	relay.replyFail(first.reqID, errKindUnknownExport, "unknown export 7")
	second := direct.nextInvoke()
	if second.exportID != 9 || string(second.method) != "Null" {
		t.Fatalf("shortened route saw %q on export %d, want Null on 9", second.method, second.exportID)
	}
	select {
	case err := <-done:
		t.Fatalf("call returned before the shortened route answered: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	direct.replyOK(second.reqID)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reissued call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call still parked after the shortened route answered: was it reissued more than once?")
	}
	// Exactly once: nothing else was written to either peer.
	relay.settled()
	direct.settled()
	for _, sp := range []*scriptedPeer{relay, direct} {
		if n := sp.conn.PendingCalls(); n != 0 {
			t.Fatalf("%d invokes still pending", n)
		}
	}
}

// A callee that ran and then failed a nested call through a released
// proxy answers with a revocation whose text names an unknown export. It
// ran, so it is not reissued even on a shortened route: only the wire kind
// of a rejection before dispatch says a call never ran.
func TestStaleRouteNestedRevocationIsNotReissued(t *testing.T) {
	relay, direct := newScriptedPeer(t), newScriptedPeer(t)
	proxy := relay.proxy(7)
	proxyOf(proxy).next.Store(&proxyTarget{conn: direct.conn, exportID: 9, redeemed: true})

	done := make(chan error, 1)
	go func() {
		_, err := proxy.InvokeFrom(relay.task, "Null")
		done <- err
	}()
	first := relay.nextInvoke()
	const nested = "capability revoked (remote): unknown export 12"
	relay.replyFail(first.reqID, errKindRevoked, nested)
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrRevoked) || !strings.Contains(err.Error(), "unknown export 12") {
			t.Fatalf("call returned %v, want the callee's revocation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call still parked after the relay answered: it was reissued")
	}
	// No invoke reached the shortened route.
	relay.settled()
	direct.settled()
	for _, sp := range []*scriptedPeer{relay, direct} {
		if n := sp.conn.PendingCalls(); n != 0 {
			t.Fatalf("%d invokes still pending", n)
		}
	}
}

// Connection loss in the middle of a blocking call is the capability
// fault, delivered by shutdown's sweep of the pending records — the wait
// has no arm of its own for it.
func TestSyncCallInterruptedByConnectionLoss(t *testing.T) {
	sp := newScriptedPeer(t)
	proxy := sp.proxy(7)
	done := make(chan error, 1)
	go func() {
		_, err := proxy.InvokeFrom(sp.task, "Null")
		done <- err
	}()
	sp.nextInvoke()
	sp.nc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrRevoked) {
			t.Fatalf("interrupted call: %v; want ErrRevoked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking call still parked after its connection died")
	}
}

// Many goroutines calling synchronously through one connection all return,
// and coalescing can only save frames: never more invoke frames than
// calls.
func TestConcurrentSyncCallsShareFrames(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	framesOut := func() int64 {
		snap := p.client.Telemetry().Snapshot()
		return snap.Counters["remote.frames_out.invoke"]
	}
	before := framesOut()
	const workers, per = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := p.client.NewDetachedTask(p.clientDom, "sync")
			for j := 0; j < per; j++ {
				if _, err := proxy.InvokeFrom(task, "Null"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("synchronous callers still parked: a queued call was never written")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if frames := framesOut() - before; frames > workers*per || frames == 0 {
		t.Fatalf("%d invoke frames for %d calls", frames, workers*per)
	}
	if n := p.conn.PendingCalls(); n != 0 {
		t.Fatalf("%d invokes still pending", n)
	}
}

// --- inbound runs: the invoke frames one read delivered are served as one
// run, and their replies leave together.

// framed joins length-prefixed frames into the bytes of one write.
func framed(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// callOn is the msgInvoke frame of one argument-less call on export id.
func callOn(reqID, exportID uint64, method string) []byte {
	w := &wbuf{}
	w.u8(msgInvoke)
	w.uvarint(1)
	appendCall(w, reqID, exportID, method, 0, 0, nil)
	return w.b
}

// raw writes b to the real end in one write.
func (sp *scriptedPeer) raw(b []byte) {
	sp.t.Helper()
	if _, err := sp.nc.Write(b); err != nil {
		sp.t.Fatalf("scripted peer write: %v", err)
	}
}

// exportOn exports svc from the real end under a fresh export id.
func (sp *scriptedPeer) exportOn(svc any) uint64 {
	sp.t.Helper()
	cap, err := sp.k.CreateNativeCapability(sp.dom, svc)
	if err != nil {
		sp.t.Fatal(err)
	}
	sp.conn.mu.Lock()
	id, _ := sp.conn.exportLocked(cap, nil)
	sp.conn.mu.Unlock()
	return id
}

// nextReply returns the request ids of the next msgReply vector the real
// end sent, failing on any reply that is not a success.
func (sp *scriptedPeer) nextReply() []uint64 {
	sp.t.Helper()
	for {
		f := sp.next()
		if f.t != msgReply {
			continue
		}
		ids := make([]uint64, len(f.replies))
		for i, rep := range f.replies {
			if rep.status != statusOK {
				sp.t.Fatalf("reply %d failed: %s", rep.reqID, rep.msg)
			}
			ids[i] = rep.reqID
		}
		return ids
	}
}

// runCalls reads the real end's calls-per-run histogram as (runs, calls).
func (sp *scriptedPeer) runCalls() (runs, calls int64) {
	h := sp.k.Telemetry().Snapshot().Histograms["remote.inbound.run_calls"]
	return h.Count, int64(h.Mean*float64(h.Count) + 0.5)
}

// Two invoke frames in one write are one run. At one P its claimer serves
// both calls before the spare it submitted runs, so one msgReply carries
// both replies and the run counts two calls; at the default P count the
// spare may claim 102 in parallel and answer it in a vector of its own.
func TestInboundRunMergesFramesOfOneRead(t *testing.T) {
	sp := newScriptedPeer(t)
	echo := sp.exportOn(echoSvc{})
	sp.raw(framed(callOn(101, echo, "Null"), callOn(102, echo, "Null")))
	answered := map[uint64]bool{}
	for len(answered) < 2 {
		for _, id := range sp.nextReply() {
			answered[id] = true
		}
	}
	if !answered[101] || !answered[102] {
		t.Fatalf("replies answer %v, want 101 and 102", answered)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runs0, calls0 := sp.runCalls()
	occ0 := sp.k.Telemetry().Snapshot().Histograms["remote.reply.occupancy"].Count
	sp.raw(framed(callOn(103, echo, "Null"), callOn(104, echo, "Null")))
	if ids := sp.nextReply(); len(ids) != 2 || ids[0] != 103 || ids[1] != 104 {
		t.Fatalf("first reply vector answers %v, want [103 104]", ids)
	}
	if runs, calls := sp.runCalls(); runs-runs0 != 1 || calls-calls0 != 2 {
		t.Errorf("run_calls saw %d runs of %d calls, want 1 of 2", runs-runs0, calls-calls0)
	}
	if occ := sp.k.Telemetry().Snapshot().Histograms["remote.reply.occupancy"].Count; occ-occ0 != 1 {
		t.Errorf("reply.occupancy saw %d reply frames, want 1", occ-occ0)
	}
}

// The reader never waits for bytes to grow a run: a frame whose rest has
// not arrived ends the run before it, and is served on its own once it is
// whole, with nothing written after it.
func TestInboundRunNeverWaitsForBytes(t *testing.T) {
	sp := newScriptedPeer(t)
	echo := sp.exportOn(echoSvc{})
	second := framed(callOn(202, echo, "Null"))
	cut := len(second) / 2
	sp.raw(append(framed(callOn(201, echo, "Null")), second[:cut]...))
	if ids := sp.nextReply(); len(ids) != 1 || ids[0] != 201 {
		t.Fatalf("reply vector answers %v, want [201]", ids)
	}
	sp.raw(second[cut:])
	if ids := sp.nextReply(); len(ids) != 1 || ids[0] != 202 {
		t.Fatalf("reply vector answers %v, want [202]", ids)
	}
}

// Frames act in the order they arrived: for invoke, release, invoke in
// one write, the release is handled after the first run is submitted and
// before the second, which finds its export gone.
func TestInboundRunKeepsFrameOrder(t *testing.T) {
	sp := newScriptedPeer(t)
	echo := sp.exportOn(echoSvc{})
	runs0, calls0 := sp.runCalls()
	release := pushVector(pushEntry{kind: pushRelease, exportID: echo, count: 1, gen: 1})
	sp.raw(framed(bootInvoke(301, "Hello", "", ""), release, callOn(302, echo, "Null")))

	replies := map[uint64]replyFrame{}
	for frames := 0; len(replies) < 2; {
		f := sp.next()
		if f.t != msgReply {
			continue
		}
		if frames++; len(f.replies) != 1 {
			t.Fatalf("reply vector %d carries %d replies: the release did not split the run", frames, len(f.replies))
		}
		replies[f.replies[0].reqID] = f.replies[0]
	}
	if rep := replies[301]; rep.status != statusOK {
		t.Errorf("the Hello before the release failed: %s", rep.msg)
	}
	if rep := replies[302]; rep.status != statusErr || !strings.Contains(rep.msg, "unknown export") {
		t.Errorf("the call after the release: status %d %q, want unknown export", rep.status, rep.msg)
	}
	if runs, calls := sp.runCalls(); runs-runs0 != 2 || calls-calls0 != 2 {
		t.Errorf("run_calls saw %d runs of %d calls, want 2 of 1", runs-runs0, calls-calls0)
	}
}

// A malformed frame behind a buffered invoke faults the connection, and
// the run the reader held — never served — gives its frame back.
func TestInboundRunMalformedFrameReleasesBuffers(t *testing.T) {
	sp := newScriptedPeer(t)
	echo := sp.exportOn(echoSvc{})
	base := poolOutstanding()
	sp.raw(framed(callOn(401, echo, "Null"), []byte{msgInvoke, 0xce, 0xff, 0xff}))
	select {
	case <-sp.conn.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a malformed frame behind a buffered invoke did not fault the connection")
	}
	for deadline := time.Now().Add(5 * time.Second); poolOutstanding() != base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers outstanding after the fault, %d before", poolOutstanding(), base)
		}
	}
}

// gateSvc blocks Wait until the test opens its gate.
type gateSvc struct {
	entered, gate chan struct{}
}

func (g *gateSvc) Wait() error { g.entered <- struct{}{}; <-g.gate; return nil }
func (g *gateSvc) Null() error { return nil }

// A call that arrives in a later read is a later run: a call blocked in
// one does not delay it.
func TestInboundRunBlockedCallDoesNotDelayLaterRead(t *testing.T) {
	sp := newScriptedPeer(t)
	svc := &gateSvc{entered: make(chan struct{}), gate: make(chan struct{})}
	id := sp.exportOn(svc)
	sp.raw(framed(callOn(501, id, "Wait")))
	<-svc.entered
	sp.raw(framed(callOn(502, id, "Null")))
	if ids := sp.nextReply(); len(ids) != 1 || ids[0] != 502 {
		t.Fatalf("reply vector answers %v, want [502] while 501 is blocked", ids)
	}
	close(svc.gate)
	if ids := sp.nextReply(); len(ids) != 1 || ids[0] != 501 {
		t.Fatalf("reply vector answers %v, want [501]", ids)
	}
}

// A finished reply does not wait for a sibling of its run: with a blocked
// Wait and a Null in one write, Null is answered while Wait is blocked.
func TestInboundRunReplyDoesNotWaitForSibling(t *testing.T) {
	sp := newScriptedPeer(t)
	svc := &gateSvc{entered: make(chan struct{}), gate: make(chan struct{})}
	id := sp.exportOn(svc)
	sp.raw(framed(callOn(601, id, "Wait"), callOn(602, id, "Null")))
	<-svc.entered
	if ids := sp.nextReply(); len(ids) != 1 || ids[0] != 602 {
		t.Fatalf("reply vector answers %v, want [602] while 601 is blocked", ids)
	}
	close(svc.gate)
	if ids := sp.nextReply(); len(ids) != 1 || ids[0] != 601 {
		t.Fatalf("reply vector answers %v, want [601]", ids)
	}
}

// barrierSvc blocks every Wait until n of them have entered.
type barrierSvc struct {
	n         int32
	entered   atomic.Int32
	all, quit chan struct{}
}

func (b *barrierSvc) Wait() error {
	if b.entered.Add(1) == b.n {
		close(b.all)
	}
	select {
	case <-b.all:
		return nil
	case <-b.quit:
		return errors.New("the barrier was abandoned")
	}
}

// A run whose calls all block gets a goroutine per call, even at one P: a
// claimer that takes a call while others are unclaimed has a spare in
// flight to take the next. Without the spare the first Wait would hold
// the other 127 unclaimed, and the barrier would never open.
func TestInboundRunOfBlockingCallsAllEnter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := newScriptedPeer(t)
	svc := &barrierSvc{n: maxBatchCalls, all: make(chan struct{}), quit: make(chan struct{})}
	t.Cleanup(func() { close(svc.quit) })
	id := sp.exportOn(svc)
	w := &wbuf{}
	w.u8(msgInvoke)
	w.uvarint(maxBatchCalls)
	for i := uint64(0); i < maxBatchCalls; i++ {
		appendCall(w, 700+i, id, "Wait", 0, 0, nil)
	}
	sp.raw(framed(w.b))
	answered := map[uint64]bool{}
	for len(answered) < maxBatchCalls {
		for _, id := range sp.nextReply() {
			answered[id] = true
		}
	}
	if entered := svc.entered.Load(); entered != maxBatchCalls {
		t.Fatalf("%d calls entered, want %d", entered, maxBatchCalls)
	}
}

// At one P, windows of 128 async echo calls are served by a claimer and its
// spare, not a goroutine per call: the server's executor stays at a few
// workers (a goroutine per call grew it to 128).
func TestInboundRunWindowsNeedFewWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newPair(t)
	p.server.RegisterWireType("echoMsg", echoMsg{})
	p.client.RegisterWireType("echoMsg", echoMsg{})
	p.export(t, "msg", msgSvc{})
	proxy, err := p.conn.Import("msg")
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*core.Future, maxBatchCalls)
	for window := 0; window < 50; window++ {
		for j := range futs {
			futs[j] = proxy.InvokeAsyncFrom(p.task, "EchoMsg", echoMsg{Seq: int64(j), Data: make([]byte, echoMix[j%len(echoMix)])})
		}
		p.conn.Flush()
		for j, f := range futs {
			res, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if m := res[0].(echoMsg); m.Seq != int64(j) {
				t.Fatalf("call %d echoed seq %d", j, m.Seq)
			}
		}
	}
	var workers int64
	for name, v := range p.server.Telemetry().Snapshot().Gauges {
		if strings.HasSuffix(name, ".exec_workers") {
			workers = max(workers, v)
		}
	}
	if workers == 0 || workers > 4 {
		t.Fatalf("the server's executor has %d workers after windows of %d echo calls, want 1 to 4", workers, maxBatchCalls)
	}
}
