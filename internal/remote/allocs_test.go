package remote

import (
	"encoding/binary"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/raceflag"
)

// sinkConn is an in-memory net.Conn that accepts every write, and any
// write deadline.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

func (sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestAllocsSendBatchedPush pins one framed vectored write — a push vector
// of every entry kind — at zero allocations: the header builder, the
// segments and the header net.Buffers.WriteTo consumes live in the Conn.
func TestAllocsSendBatchedPush(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := &Conn{nc: sinkConn{}, ks: &kernelState{now: time.Now}}
	pushes := []pushEntry{
		{kind: pushRelease, exportID: 9, count: 2, gen: 4},
		{kind: pushRevoke, exportID: 5, reason: revokeReasonTerminated},
		{kind: pushRegister, nonce: 0xfeedc0ffee, exportID: 9},
		{kind: pushOffer, relayID: 3, exportID: 9, nonce: 0xfeedc0ffee, network: "unix", addr: "/tmp/origin.sock"},
	}
	got := testing.AllocsPerRun(1000, func() {
		err := c.sendBatched(msgPush, len(pushes), func(w *wbuf, i int) []byte {
			appendPush(w, &pushes[i])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("sendBatched: %.2f allocs per push vector, want 0", got)
	}
}

// nullPair is a connected kernel pair over a real socket with echoSvc
// imported, warmed up so pools, executor workers and map buckets exist.
func nullPair(t *testing.T) (*pair, *core.Capability) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	proxy, err := p.conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := proxy.InvokeFrom(p.task, "Null"); err != nil {
			t.Fatal(err)
		}
	}
	return p, proxy
}

// TestAllocsSyncRemoteNull pins the whole synchronous null call — both
// kernels: record, frames, decode, executor hand-off, reply — at the
// callee's one reflect method-value call plus one of slack (sampled
// telemetry, pool refills after a collection). The parent measured 9.
func TestAllocsSyncRemoteNull(t *testing.T) {
	p, proxy := nullPair(t)
	got := testing.AllocsPerRun(2000, func() {
		if _, err := proxy.InvokeFrom(p.task, "Null"); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Errorf("sync remote null call: %.2f allocs, want <= 2", got)
	}
}

// TestAllocsAsyncBatchedNull pins one call of a 128-call batched window,
// both kernels: the future and the callee's reflect call, plus the
// per-frame costs spread over the window (2.03 measured). The parent
// measured 4.13 with this loop; the issue's bar is that minus one, and the
// ceiling sits under it, at the two allocations a call lost for good (its
// record, the method-name string) plus slack for sampled telemetry.
func TestAllocsAsyncBatchedNull(t *testing.T) {
	p, proxy := nullPair(t)
	const window = 128
	got := testing.AllocsPerRun(100, asyncWindow(t, p, proxy, window)) / window
	if got > 2.5 {
		t.Errorf("async batched null call: %.2f allocs per call, want <= 2.5", got)
	}
}

// asyncWindow returns a loop body that issues n async null calls, flushes
// and joins them; it runs the body once to warm it up.
func asyncWindow(t *testing.T, p *pair, proxy *core.Capability, n int) func() {
	futs := make([]*core.Future, n)
	run := func() {
		for i := range futs {
			futs[i] = proxy.InvokeAsyncFrom(p.task, "Null")
		}
		p.conn.Flush()
		if err := core.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return run
}

// TestAllocsBatchOfTwo: a call costs the same allocations in a vector of
// two (one msgInvoke, one msgReply) as in a vector of one — the vector
// envelope itself, on both ends, allocates nothing. That is what keeps two
// blocking callers who happen to coalesce from paying for it.
func TestAllocsBatchOfTwo(t *testing.T) {
	p, proxy := nullPair(t)
	vectors := func() int64 {
		return p.client.Telemetry().Snapshot().Counters["remote.frames_out.invoke"]
	}
	one := testing.AllocsPerRun(500, asyncWindow(t, p, proxy, 1))
	window, windows := asyncWindow(t, p, proxy, 2), int64(0)
	before := vectors()
	two := testing.AllocsPerRun(500, func() { window(); windows++ }) / 2
	if vectors()-before == 2*windows {
		t.Fatal("windows of two never left as one vector")
	}
	if two > one+0.05 {
		t.Errorf("a call in a vector of two: %.2f allocs, in a vector of one: %.2f", two, one)
	}
}

// echoMsg is the async echo pins' payload, registered as a wire type on
// both kernels so it crosses by its compiled seri plan.
type echoMsg struct {
	Seq  int64
	Data []byte
}

type msgSvc struct{}

func (msgSvc) EchoMsg(m echoMsg) (echoMsg, error) { return m, nil }

// echoWindows runs windows of 128 async EchoMsg calls over a real socket
// pair, payload sizes drawn from sizes in a fixed shuffle, and returns the
// heap allocations and bytes per call, process-wide (both kernels), and the
// mean payload size.
func echoWindows(t *testing.T, sizes []int) (allocs, bytes, meanPayload float64) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newPair(t)
	p.server.RegisterWireType("echoMsg", echoMsg{})
	p.client.RegisterWireType("echoMsg", echoMsg{})
	p.export(t, "msg", msgSvc{})
	proxy, err := p.conn.Import("msg")
	if err != nil {
		t.Fatal(err)
	}
	const window, windows = 128, 40
	rng := rand.New(rand.NewPCG(1, 2))
	argv := make([][]any, 10*window)
	var total int
	for i := range argv {
		n := sizes[rng.IntN(len(sizes))]
		total += n
		argv[i] = []any{echoMsg{Seq: int64(i), Data: make([]byte, n)}}
	}
	futs := make([]*core.Future, window)
	next := 0
	run := func() {
		for j := range futs {
			futs[j] = proxy.InvokeAsyncFrom(p.task, "EchoMsg", argv[next+j]...)
		}
		p.conn.Flush()
		for j, f := range futs {
			res, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if m := res[0].(echoMsg); m.Seq != int64(next+j) || len(m.Data) != len(argv[next+j][0].(echoMsg).Data) {
				t.Fatalf("call %d: echoed seq %d with %d bytes", next+j, m.Seq, len(m.Data))
			}
		}
		next = (next + window) % len(argv)
	}
	for i := 0; i < 2*len(argv)/window; i++ {
		run() // every message once through every pool, twice
	}
	// The collector stays off while counting: sync.Pool sheds buffers at
	// every cycle, and the pin is on what the code allocates, not on when
	// a collection happens to fall (TestFramePoolHoming logs those misses).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < windows; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	calls := float64(windows * window)
	return float64(m1.Mallocs-m0.Mallocs) / calls, float64(m1.TotalAlloc-m0.TotalAlloc) / calls, float64(total) / float64(len(argv))
}

// echoMix is the benchmark's payload mix: 64 B / 1 KiB / 16 KiB at 50/40/10.
var echoMix = []int{64, 64, 64, 64, 64, 1024, 1024, 1024, 1024, 16384}

// checkEcho holds one async echo call, both kernels, to 20 allocations and
// to twice its payload (one allocation per direction: the callee's decode
// and the caller's) plus 1.5 KB.
func checkEcho(t *testing.T, sizes []int) {
	allocs, bytes, mean := echoWindows(t, sizes)
	t.Logf("%.1f allocs, %.0f B per call (mean payload %.0f B)", allocs, bytes, mean)
	if allocs > 20 {
		t.Errorf("async echo: %.1f allocs per call, want <= 20", allocs)
	}
	if limit := 2*mean + 1536; bytes > limit {
		t.Errorf("async echo: %.0f B per call, want <= %.0f (2 x mean payload + 1.5 KB)", bytes, limit)
	}
}

// TestAllocsAsyncEcho1K and TestAllocsAsyncEchoMixed pin what a payload
// costs the wire: one allocation of its size per direction. The parent
// measured 37.5 allocs and 15.6 KB per call on the mix (mean payload
// 2.08 KB): the callee copied its decoded arguments and its results again,
// and every encode outgrew a 64-byte frame buffer.
func TestAllocsAsyncEcho1K(t *testing.T)    { checkEcho(t, []int{1024}) }
func TestAllocsAsyncEchoMixed(t *testing.T) { checkEcho(t, echoMix) }

// TestAllocsMergedRun: two invoke frames that arrive in one read, served as
// one run with one msgReply back, allocate no more than the same two frames
// served as two runs. The scripted peer writes prebuilt bytes and reads the
// replies into one buffer, so what is counted is the real end's.
func TestAllocsMergedRun(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sp := newScriptedPeer(t)
	echo := sp.exportOn(echoSvc{})
	a, b := framed(callOn(1, echo, "Null")), framed(callOn(2, echo, "Null"))
	both := framed(callOn(1, echo, "Null"), callOn(2, echo, "Null"))
	buf := make([]byte, 4096)
	send := func(frames []byte, replies int) {
		if _, err := sp.nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		for replies > 0 {
			if _, err := io.ReadFull(sp.nc, buf[:4]); err != nil {
				t.Fatal(err)
			}
			n := binary.LittleEndian.Uint32(buf)
			if _, err := io.ReadFull(sp.nc, buf[:n]); err != nil {
				t.Fatal(err)
			}
			if buf[0] == msgReply {
				replies -= int(buf[1])
			}
		}
	}
	for i := 0; i < 200; i++ {
		send(both, 2)
	}
	separate := testing.AllocsPerRun(1000, func() { send(a, 1); send(b, 1) })
	runs := sp.conn.metrics.runCalls.Count()
	merged, pairs := testing.AllocsPerRun(1000, func() { send(both, 2) }), int64(1001)
	if sp.conn.metrics.runCalls.Count()-runs == 2*pairs {
		t.Fatal("frames written together were never served as one run")
	}
	t.Logf("two calls: %.2f allocs as one run, %.2f as two", merged, separate)
	if merged > separate+0.05 {
		t.Errorf("two frames merged into one run: %.2f allocs, served as two runs: %.2f", merged, separate)
	}
}
