package remote

import (
	"net"
	"testing"

	"jkernel/internal/core"
	"jkernel/internal/raceflag"
)

// sinkConn is an in-memory net.Conn that accepts every write.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

// TestAllocsSendSegments pins one framed vectored write at zero
// allocations: the header net.Buffers.WriteTo consumes lives in the Conn.
func TestAllocsSendSegments(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := &Conn{nc: sinkConn{}}
	head, body := []byte{msgInvoke, 1, 2, 3}, make([]byte, 64)
	got := testing.AllocsPerRun(1000, func() {
		if err := c.sendSegments(head, body); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("sendSegments: %.2f allocs per frame, want 0", got)
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

// TestAllocsBatchOfTwo: two calls sharing one msgBatchInvoke (and one
// msgBatchReply) cost no more than the same two calls in lone frames —
// the batch envelope itself, on both ends, allocates nothing. That is what
// keeps two blocking callers who happen to coalesce from paying for it.
func TestAllocsBatchOfTwo(t *testing.T) {
	p, proxy := nullPair(t)
	batchFrames := func() int64 {
		return p.client.Telemetry().Snapshot().Counters["remote.frames_out.batch_invoke"]
	}
	lone := testing.AllocsPerRun(500, asyncWindow(t, p, proxy, 1))
	before := batchFrames()
	two := testing.AllocsPerRun(500, asyncWindow(t, p, proxy, 2))
	if batchFrames() == before {
		t.Fatal("windows of two never left as a batch frame")
	}
	if two > 2*lone+0.1 {
		t.Errorf("a batch of two: %.2f allocs, two lone frames: %.2f", two, 2*lone)
	}
}
