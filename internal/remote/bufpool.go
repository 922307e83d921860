package remote

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"jkernel/internal/telemetry"
)

// Pooled frame buffers — the allocation half of the zero-copy hot path.
//
// Every wire frame, outbound or inbound, lives in a frameBuf drawn from a
// size-classed pool (power-of-two classes, 512 B up to maxFrame). The
// ownership rules, which README's "wire hot path" section documents for
// integrators:
//
//   - Writers: the goroutine building a frame holds the buffer from
//     getFrame until the frame is on the wire (or abandoned), then calls
//     release. Encoded argument/result payloads (marshalVectorInto) live
//     inside the same buffer, so nothing outlives the send.
//   - Homing: a buffer ends in the size class it is returned to. A stream
//     that outgrows its buffer moves, through the pool, to one of the class
//     that fits (Grow) and the outgrown buffer goes back to its own class,
//     so no class is drained by payloads larger than it and a steady mix of
//     sizes allocates no buffers at all. The per-class instruments below
//     say when that fails.
//   - Readers: the read loop owns one reference for the dispatch of each
//     inbound frame. Decoded payloads that alias the frame
//     (invokeFrame.args, replyFrame.body) are only read inside that hold;
//     anything retained past dispatch — strings, decoded seri values — is
//     copied out by the parsers/decoder. Invoke handlers run off the
//     reader goroutine, so dispatch retains an extra reference per invoke
//     frame that the handler drops the moment unmarshalVector returns.
//
// A buffer returns to the pool only when its refcount hits zero. With
// poisoning on (SetBufferPoison, the lifetime-regression debug mode),
// every returned buffer is overwritten with 0xDB first, so a use-after-
// release shows up as corrupt data or a decode error instead of a
// heisenbug.

const (
	minBufClass = 9  // 512 B — smaller frames just use the smallest class
	maxBufClass = 24 // 16 MiB == maxFrame
)

// framePools[c] holds *frameBuf with cap(b) >= 1<<c.
var framePools [maxBufClass + 1]sync.Pool

// classStats are one size class's instruments: buffers drawn from the pool
// (hits) or made because it was empty (misses), buffers given back (puts),
// and those given back with a capacity of another class (rehomes: append
// moved the stream instead of Grow). Package-level atomics, a cache line
// per class; a class shows up in the process-wide telemetry registry — and
// so at /debug/jk — as remote.bufpool.<bytes>.{hits,misses,rehomes,
// outstanding} from its first miss on.
type classStats struct {
	hits, misses, puts, rehomes atomic.Int64
	_                           [32]byte
}

var poolStats [maxBufClass + 1]classStats

// outstanding is how many of the class's buffers are out of the pool.
func (s *classStats) outstanding() int64 {
	return s.hits.Load() + s.misses.Load() - s.puts.Load()
}

func (s *classStats) publish(class int) {
	reg, base := telemetry.Default(), fmt.Sprintf("remote.bufpool.%d.", 1<<class)
	reg.GaugeFunc(base+"hits", s.hits.Load)
	reg.GaugeFunc(base+"misses", s.misses.Load)
	reg.GaugeFunc(base+"rehomes", s.rehomes.Load)
	reg.GaugeFunc(base+"outstanding", s.outstanding)
}

// poisonPut, when on, overwrites buffers with 0xDB as they return to the
// pool. Test/debug mode: it turns "recycled while still referenced" into a
// deterministic data corruption the lifetime regression can detect.
var poisonPut atomic.Bool

// SetBufferPoison toggles poison-on-put for the frame-buffer pools.
func SetBufferPoison(on bool) { poisonPut.Store(on) }

// frameBuf is one pooled, refcounted frame buffer. b is the live frame
// content; writers append to it. class is the pool class it was drawn from
// (-1: larger than any class, never pooled).
type frameBuf struct {
	b     []byte //jk:data
	refs  atomic.Int32
	class int8
}

// bufClass is the pool class for a buffer of at least n bytes: the
// smallest power-of-two class that fits, floored at minBufClass.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}

// getFrame returns a buffer with len(b) == 0 and cap(b) >= n, holding one
// reference. n beyond maxFrame is the caller's protocol error; the buffer
// is still served (unpooled) so the size check can fail gracefully.
//
//jk:acquire
func getFrame(n int) *frameBuf {
	c := bufClass(n)
	if c > maxBufClass {
		fb := &frameBuf{b: make([]byte, 0, n), class: -1}
		fb.refs.Store(1)
		return fb
	}
	st := &poolStats[c]
	fb, _ := framePools[c].Get().(*frameBuf)
	if fb != nil {
		st.hits.Add(1)
		fb.b = fb.b[:0]
	} else {
		if st.misses.Add(1) == 1 {
			st.publish(c)
		}
		fb = &frameBuf{b: make([]byte, 0, 1<<c)}
	}
	fb.class = int8(c)
	fb.refs.Store(1)
	return fb
}

// growSlack is the room Grow leaves past what it was asked for: the tags,
// field names and small values that follow a payload are appended without
// asking.
const growSlack = 64

// Grow implements seri.Grower for the encode in progress on fb (b is the
// stream so far, fb.b what fb held before it): the stream moves to a buffer
// of the class that fits n more bytes, and fb trades arrays with it, so
// what fb outgrew goes home to its own class and fb's holder still owns the
// one buffer.
func (fb *frameBuf) Grow(b []byte, n int) []byte {
	nb := getFrame(len(b) + n + growSlack)
	grown := append(nb.b, b...)
	// Past maxFrame there is nothing to trade: nb is not pooled, and the
	// size check after the encode fails the call.
	if nb.class >= 0 {
		nb.b, fb.b = fb.b[:0], grown[:len(fb.b)]
		nb.class, fb.class = fb.class, nb.class
	}
	nb.release()
	return grown
}

// retain adds one reference (dispatch handing an invoke frame to an
// off-reader handler).
//
//jk:retain
func (fb *frameBuf) retain() { fb.refs.Add(1) }

// release drops one reference; the last one returns the buffer to the pool
// of its capacity's class — the class it was drawn from, unless append
// moved the stream to an array of its own (a rehome; one the pool has no
// class for is left to the GC).
//
//jk:release
func (fb *frameBuf) release() {
	n := fb.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("remote: frameBuf released more times than retained")
	}
	if fb.class < 0 {
		return
	}
	cp := cap(fb.b)
	c := bits.Len(uint(cp)) - 1 // floor(log2 cap): cap >= 1<<c holds
	st := &poolStats[fb.class]
	st.puts.Add(1)
	if c != int(fb.class) {
		st.rehomes.Add(1)
		if c < minBufClass || c > maxBufClass {
			return
		}
	}
	if poisonPut.Load() {
		b := fb.b[:cp]
		for i := range b {
			b[i] = 0xDB
		}
	}
	fb.b = fb.b[:0]
	framePools[c].Put(fb)
}
