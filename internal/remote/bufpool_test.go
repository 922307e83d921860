package remote

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

func TestBufClass(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, minBufClass}, {1, minBufClass}, {512, minBufClass},
		{513, 10}, {1024, 10}, {1025, 11},
		{maxFrame, maxBufClass},
	}
	for _, c := range cases {
		if got := bufClass(c.n); got != c.class {
			t.Errorf("bufClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestFrameBufRefcount(t *testing.T) {
	fb := getFrame(100)
	if cap(fb.b) < 100 || len(fb.b) != 0 {
		t.Fatalf("getFrame(100): len %d cap %d", len(fb.b), cap(fb.b))
	}
	fb.retain()
	fb.release()
	if fb.refs.Load() != 1 {
		t.Fatalf("refs after retain+release: %d", fb.refs.Load())
	}
	fb.release() // back to the pool
	defer func() {
		if recover() == nil {
			t.Fatal("release past zero did not panic")
		}
	}()
	fb.release()
}

func TestFrameBufGrowReclass(t *testing.T) {
	fb := getFrame(16) // minimum class
	fb.b = append(fb.b, make([]byte, 10_000)...)
	grown := cap(fb.b)
	fb.release() // must re-home by final capacity, not the original class
	fb2 := getFrame(grown)
	if cap(fb2.b) < 10_000 {
		t.Fatalf("reclassed buffer not reusable: cap %d", cap(fb2.b))
	}
	fb2.release()
}

func TestPoisonOnPut(t *testing.T) {
	SetBufferPoison(true)
	defer SetBufferPoison(false)
	fb := getFrame(64)
	fb.b = append(fb.b, []byte("payload-still-referenced")...)
	alias := fb.b
	fb.release()
	for i, c := range alias {
		if c != 0xDB {
			t.Fatalf("byte %d not poisoned after release: %q", i, alias)
		}
	}
}

// blobSvc serves deterministic payloads for the lifetime churn.
type blobSvc struct{}

func (blobSvc) Make(n, seed int64) ([]byte, error) {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + int64(i))
	}
	return b, nil
}

func (blobSvc) EchoBlob(b []byte) ([]byte, error) { return b, nil }

func wantBlob(n, seed int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + int64(i))
	}
	return b
}

// TestBufferLifetimeChurn is the pool-lifetime regression: with poisoning
// on, every frame buffer recycled while still referenced would overwrite
// in-flight argument or result bytes with 0xDB. The churn mixes sync and
// async-batched invokes whose result payloads are retained well past the
// call, across payload sizes spanning several pool classes, and verifies
// every retained payload afterward. Run under -race in CI.
func TestBufferLifetimeChurn(t *testing.T) {
	SetBufferPoison(true)
	defer SetBufferPoison(false)

	p := newPair(t)
	p.export(t, "blob", blobSvc{})
	proxy, err := p.conn.Import("blob")
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		rounds  = 200
	)
	sizes := []int64{0, 7, 100, 600, 5_000, 70_000}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := p.client.NewDetachedTask(p.clientDom, fmt.Sprintf("churn-%d", w))
			retained := make([][]byte, 0, rounds)
			expected := make([][]byte, 0, rounds)
			for r := 0; r < rounds; r++ {
				n := sizes[r%len(sizes)]
				seed := int64(w*1000 + r)
				if r%2 == 0 {
					res, err := proxy.InvokeFrom(task, "Make", n, seed)
					if err != nil {
						errs <- fmt.Errorf("worker %d round %d Make: %w", w, r, err)
						return
					}
					b, _ := res[0].([]byte)
					retained = append(retained, b)
					expected = append(expected, wantBlob(n, seed))
				} else {
					futs := []*core.Future{
						proxy.InvokeAsyncFrom(task, "EchoBlob", wantBlob(n, seed)),
						proxy.InvokeAsyncFrom(task, "Make", n/2+1, seed),
					}
					p.conn.Flush()
					for fi, fut := range futs {
						res, err := fut.Wait()
						if err != nil {
							errs <- fmt.Errorf("worker %d round %d async %d: %w", w, r, fi, err)
							return
						}
						b, _ := res[0].([]byte)
						retained = append(retained, b)
					}
					expected = append(expected, wantBlob(n, seed), wantBlob(n/2+1, seed))
				}
			}
			// Every retained payload must still hold its original bytes: a
			// buffer recycled while referenced would have been poisoned.
			for i := range retained {
				if !bytes.Equal(retained[i], expected[i]) && !(len(retained[i]) == 0 && len(expected[i]) == 0) {
					errs <- fmt.Errorf("worker %d: retained payload %d corrupted (len %d, want len %d)",
						w, i, len(retained[i]), len(expected[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// poolOutstanding sums the pooled frame buffers drawn and not yet put
// back, over every size class.
func poolOutstanding() (n int64) {
	for c := range poolStats {
		n += poolStats[c].outstanding()
	}
	return n
}

// TestFramePoolHoming: a frame buffer ends in the size class it is
// returned to. Windows of echo calls whose payloads outgrow the 512-byte
// buffer every encode starts in (1 KiB, 16 KiB) beside ones that fit
// (64 B) grow through the pool, so no buffer is given back to a class
// other than the one it was drawn from — the instruments read zero
// rehomes — and once the window is joined every buffer is home again.
func TestFramePoolHoming(t *testing.T) {
	p := newPair(t)
	p.export(t, "blob", blobSvc{})
	proxy, err := p.conn.Import("blob")
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{make([]byte, 64), make([]byte, 1024), make([]byte, 16384)}
	futs := make([]*core.Future, 128)
	window := func() {
		for i := range futs {
			futs[i] = proxy.InvokeAsyncFrom(p.task, "EchoBlob", payloads[i%len(payloads)])
		}
		p.conn.Flush()
		if err := core.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() (rehomes, misses int64) {
		for c := range poolStats {
			rehomes += poolStats[c].rehomes.Load()
			misses += poolStats[c].misses.Load()
		}
		return
	}
	window() // fill the pools
	// The server releases a reply's buffers after writing it, which the
	// client can see before that: let the last ones land.
	settle := func() int64 {
		var out int64
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if out = poolOutstanding(); out == 0 {
				break
			}
		}
		return out
	}
	if out := settle(); out != 0 {
		t.Fatalf("%d buffers outstanding on an idle connection", out)
	}
	rehomes0, misses0 := snapshot()
	for i := 0; i < 20; i++ {
		window()
	}
	rehomes, misses := snapshot()
	t.Logf("20 windows of 128: %d rehomes, %d pool misses", rehomes-rehomes0, misses-misses0)
	if rehomes != rehomes0 {
		t.Errorf("%d buffers were returned to a class they were not drawn from", rehomes-rehomes0)
	}
	if out := settle(); out != 0 {
		t.Errorf("%d buffers outstanding after the windows were joined", out)
	}
	// The instruments are in the process-wide registry, /debug/jk's first.
	if _, ok := telemetry.Default().Snapshot().Gauges["remote.bufpool.512.hits"]; !ok {
		t.Error("remote.bufpool.512.hits is not in the default registry's snapshot")
	}
}
