package remote

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/raceflag"
	"jkernel/internal/seri"
)

// fuzzRef stands in for a capability in fuzzed streams: the External hook
// accepts any handle, so the fuzzer can reach past the reference tags.
type fuzzRef struct{ H uint64 }

type fuzzWireExt struct{}

func (fuzzWireExt) EncodeExternal(v any) (uint64, bool) {
	if r, ok := v.(*fuzzRef); ok {
		return r.H, true
	}
	return 0, false
}

func (fuzzWireExt) DecodeExternal(h uint64) (any, error) {
	return &fuzzRef{H: h}, nil
}

// seedFrames builds one of every protocol frame with the same encoders
// the live connection uses — a captured-traffic corpus without the
// capture: these are byte-for-byte the frames a real exchange produces.
func seedFrames() [][]byte {
	reg := fuzzRegistry()
	args, err := seri.MarshalExt(reg, []any{"hello", int64(42), []byte{1, 2, 3}, &fuzzRef{H: 7}}, fuzzWireExt{})
	if err != nil {
		panic(err)
	}
	results, err := seri.Marshal(reg, []any{int64(1), "ok"})
	if err != nil {
		panic(err)
	}

	var frames [][]byte
	add := func(w *wbuf) { frames = append(frames, w.b) }

	// A vector of one, untraced (flags byte zero) and carrying a trace
	// context.
	for _, traceID := range []uint64{0, 0xdeadbeefcafe} {
		w := &wbuf{}
		w.u8(msgInvoke)
		w.uvarint(1)
		appendCall(w, 1, 0, "Echo", traceID, 42, args)
		add(w)
	}

	// A vector of three, traced and untraced calls mixed.
	w := &wbuf{}
	w.u8(msgInvoke)
	w.uvarint(3)
	appendCall(w, 2, 0, "Null", 0, 0, nil)
	appendCall(w, 3, 1, "Sum", 0xfeedface, 7, args)
	appendCall(w, 4, 0, "Echo", 0, 0, args)
	add(w)

	// Replies: success and error alone, then a vector of mixed status.
	frames = append(frames,
		replyVector(replyFrame{reqID: 1, status: statusOK, body: results}),
		replyVector(replyFrame{reqID: 2, status: statusErr, kind: errKindRevoked, msg: "gone"}),
		replyVector(replyFrame{reqID: 3, status: statusOK, body: results},
			replyFrame{reqID: 4, status: statusErr, kind: errKindRemote, class: "panic", msg: "boom"}))

	// Push vectors: a revocation alone; batched import releases (export
	// id, receipt count, generation); the three-party handoff's ticket
	// registration and the offer relayed to the receiver, each alone; and
	// one vector of all four kinds, as a flusher coalesces them.
	revoke := pushEntry{kind: pushRevoke, exportID: 5, reason: revokeReasonTerminated}
	register := pushEntry{kind: pushRegister, nonce: 0xfeedc0ffee, exportID: 9}
	offer := pushEntry{kind: pushOffer, relayID: 3, exportID: 9, nonce: 0xfeedc0ffee, network: "unix", addr: "/tmp/origin.sock"}
	release := pushEntry{kind: pushRelease, exportID: 9, count: 2, gen: 4}
	frames = append(frames,
		pushVector(revoke),
		pushVector(release,
			pushEntry{kind: pushRelease, exportID: 0, count: 1, gen: 1},
			pushEntry{kind: pushRelease, exportID: 1 << 40, count: 7, gen: 300}),
		pushVector(register),
		pushVector(offer),
		pushVector(release, revoke, register, offer))

	// Calls on the bootstrap (export 0) and their answers: a hello, a
	// lookup, a lazy manifest fetch, a handoff redeem.
	frames = append(frames,
		bootInvoke(6, "Hello", "unix", "/tmp/origin.sock"),
		bootInvoke(7, "Lookup", "counter"),
		bootInvoke(8, "Manifest", uint64(9)),
		bootInvoke(9, "Redeem", uint64(0xfeedc0ffee), uint64(9)))
	manifest := Manifest{Methods: []string{"Add", "Get"}}
	for i, answer := range [][]any{
		{&fuzzRef{H: packHandle(9, handleKindTheirs)}, manifest},
		{manifest},
		{uint64(14), manifest},
	} {
		stream, err := seri.AppendVector(nil, reg, answer, fuzzWireExt{}, nil)
		if err != nil {
			panic(err)
		}
		frames = append(frames, replyVector(replyFrame{reqID: uint64(7 + i), status: statusOK, body: stream}))
	}
	frames = append(frames, replyVector(replyFrame{reqID: 7, status: statusErr, kind: errKindRemote,
		class: "*errors.errorString", msg: "no export named \"x\""}))

	return frames
}

// retiredTypes are the message types nothing sends any more: the lone
// invoke and reply the call vectors replaced, the lone revocation and
// handoff frames the push vector replaced, and the control frames the
// bootstrap capability replaced (lookup, ping and pong, manifest, redeem,
// with their replies).
var retiredTypes = []byte{1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14, 15}

// fuzzRegistry knows what the seed frames' streams carry.
func fuzzRegistry() *seri.Registry {
	reg := seri.NewRegistry()
	reg.Register("jk.remote.Manifest", Manifest{})
	return reg
}

// FuzzDecodeFrame drives arbitrary bytes through the full inbound decode
// surface: the frame parsers (decodeFrame, exactly what conn.dispatch
// runs) and, for frames that carry them, the seri argument/result
// streams. Malformed input must come back as an error — which faults the
// connection — never as a panic.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	// Malformed trace blocks seed the corpus too: the fuzzer mutates from
	// the rejection paths as well as the happy ones.
	f.Add([]byte{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 0xff})
	f.Add([]byte{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 1, 0, 9})
	f.Add([]byte{msgInvoke, 1, 2, 0, 4, 'N', 'u', 'l', 'l', 1, 7})
	// Malformed push vectors: an unknown entry kind, an offer with no
	// origin address, and an empty vector. Each must be rejected (faulting
	// the connection), never panic.
	f.Add([]byte{msgPush, 1, 9, 1, 2})
	f.Add([]byte{msgPush, 1, pushOffer, 3, 9, 5, 4, 'u', 'n', 'i', 'x', 0})
	f.Add([]byte{msgPush, 0})
	// The retired frames, each as its old self would have begun: they are
	// unknown types now.
	for _, t := range retiredTypes {
		f.Add([]byte{t, 12, 0})
	}
	reg := fuzzRegistry()
	// used plays the read loop's one inFrame: it carries whatever the
	// previous input (and the seed below) left in it into every decode.
	var used inFrame
	_ = decodeFrame(seedFrames()[2], &used)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh inFrame
		err := decodeFrame(data, &fresh)
		// The reuse property: decoding into a struct that last held another
		// frame equals decoding into a zero one — no field of the old frame
		// leaks, whether or not this one is well formed.
		prev := used.t
		uerr := decodeFrame(data, &used)
		if (err == nil) != (uerr == nil) || !reflect.DeepEqual(normalized(fresh), normalized(used)) {
			t.Fatalf("decode into a used frame (last type %d) differs from decode into a fresh one:\nfresh %+v (%v)\nused  %+v (%v)",
				prev, fresh, err, used, uerr)
		}
		if err != nil {
			return
		}
		// Follow the dispatch path into the embedded seri streams.
		switch fresh.t {
		case msgInvoke:
			for _, call := range fresh.calls {
				_, _ = seri.UnmarshalExt(reg, call.args, fuzzWireExt{})
			}
		case msgReply:
			for _, rep := range fresh.replies {
				if rep.status == statusOK {
					_, _ = seri.UnmarshalExt(reg, rep.body, fuzzWireExt{})
				}
			}
		}
	})
}

// normalized maps f's empty reused slices to nil: a kept backing array of
// length zero and no array at all are the same decoded frame.
func normalized(f inFrame) inFrame {
	if len(f.calls) == 0 {
		f.calls = nil
	}
	if len(f.replies) == 0 {
		f.replies = nil
	}
	if len(f.pushes) == 0 {
		f.pushes = nil
	}
	return f
}

// Every seed frame decoded into an inFrame that last held every other seed
// frame: the reuse property on real traffic, in the ordinary test run (the
// fuzz target extends it to arbitrary bytes).
func TestDecodeFrameReuse(t *testing.T) {
	frames := seedFrames()
	for i, a := range frames {
		for j, b := range frames {
			var used, fresh inFrame
			if err := decodeFrame(a, &used); err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			if err := decodeFrame(b, &used); err != nil {
				t.Fatalf("seed %d after %d: %v", j, i, err)
			}
			if err := decodeFrame(b, &fresh); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalized(fresh), normalized(used)) {
				t.Fatalf("seed %d decoded after seed %d keeps part of it:\nfresh %+v\nused  %+v", j, i, fresh, used)
			}
		}
	}
}

// decodeFrame knows exactly three message types: invoke and reply (8 and
// 9, the call vectors) and push (10, the byte the release frame it grew
// from always had). Every other type byte — the retired lone-call,
// revocation, handoff and control frames among them — is an unknown type.
func TestDecodeFrameKnowsThreeTypes(t *testing.T) {
	known := map[byte]bool{8: true, 9: true, 10: true}
	for _, mt := range []byte{msgInvoke, msgReply, msgPush} {
		if !known[mt] {
			t.Fatalf("message type %d is not on the wire's list", mt)
		}
	}
	for _, rt := range retiredTypes {
		if known[rt] {
			t.Fatalf("retired type %d is still known", rt)
		}
	}
	for i := 0; i < 256; i++ {
		var f inFrame
		err := decodeFrame([]byte{byte(i), 12, 0}, &f)
		unknown := err != nil && strings.Contains(err.Error(), "unknown message type")
		if unknown == known[byte(i)] {
			t.Errorf("type %d: known %v, decode error %v", i, known[byte(i)], err)
		}
	}
}

// decodeCost measures what decodeFrame allocates for frame, per decode,
// into a fresh inFrame each time (the reader's reused one allocates less).
func decodeCost(frame []byte) (allocs, bytes uint64) {
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var f inFrame
		_ = decodeFrame(frame, &f)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// The cost oracle: what decodeFrame allocates stays under a bound linear
// in the frame's length, on real traffic and on the adversary's best
// shapes — every collection at the largest count its bytes can carry, and
// counts that claim more than the frame holds (refused before anything is
// allocated for them). seri's TestDecodeCompileBounded holds the streams
// inside the frames to the same kind of bound.
func TestDecodeFrameCostIsLinear(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's allocations are not the decoder's")
	}
	maxCount := func(t byte, n int, entry ...byte) []byte {
		w := &wbuf{}
		w.u8(t)
		w.uvarint(uint64(n))
		for i := 0; i < n; i++ {
			w.raw(entry)
		}
		return w.b
	}
	const n = 1 << 14
	frames := map[string][]byte{
		"invoke, minimal calls": maxCount(msgInvoke, n, 0, 0, 0, 0, 0),
		"reply, empty results":  maxCount(msgReply, n, 0, statusOK, 0),
		"reply, short errors":   maxCount(msgReply, n, 0, statusErr, errKindRemote, 2, 'a', 'b', 2, 'c', 'd'),
		"push, minimal entries": maxCount(msgPush, n, pushRevoke, 0, 0),
		"invoke, forged count":  {msgInvoke, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0, 0, 0, 0},
		"reply, forged count":   {msgReply, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0},
		"push, forged count":    {msgPush, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0},
	}
	for i, f := range seedFrames() {
		frames[fmt.Sprintf("seed %d", i)] = f
	}
	for _, rt := range retiredTypes {
		frames[fmt.Sprintf("retired type %d", rt)] = []byte{rt, 12, 0}
	}
	for name, frame := range frames {
		allocs, bytes := decodeCost(frame)
		if len(frame) > 1024 {
			t.Logf("%s: %d-byte frame, %d allocs, %d bytes", name, len(frame), allocs, bytes)
		}
		maxAllocs, maxBytes := 4+uint64(len(frame))/4, 1024+64*uint64(len(frame))
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s: a %d-byte frame costs %d allocs, %d bytes to decode; bound %d, %d",
				name, len(frame), allocs, bytes, maxAllocs, maxBytes)
		}
	}
}

// A malformed frame over a live connection faults that connection — and
// only that connection: the serving kernel keeps serving.
func TestMalformedFrameFaultsConnection(t *testing.T) {
	server := core.MustNew(core.Options{})
	sd, err := server.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := server.CreateNativeCapability(sd, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Export("echo", cap); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "fuzz.sock")
	ln, err := Listen(server, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Raw client: a well-framed payload of garbage (bad message type, then
	// a truncated vector on a second connection).
	for _, garbage := range [][]byte{
		{0xff, 0x01, 0x02},
		{msgInvoke, 0xce, 0xff, 0xff}, // count overruns frame
		{msgReply},                    // truncated
		// Malformed trace blocks: unknown flags value, a set trace flag
		// with a zero trace id, and a trace block truncated before the
		// parent span. Each must fault the connection, never panic.
		{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 0xff},
		{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 1, 0, 9},
		{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 1, 7},
	} {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(nc, garbage); err != nil {
			t.Fatal(err)
		}
		// The server must close this connection (read eventually errors),
		// not crash and not hang. Reads may first see the server's Hello,
		// so drain until the close lands.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		for {
			_, err := nc.Read(buf)
			if err == nil {
				continue // the server's Hello or similar chatter; keep draining
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept talking after a malformed frame")
			}
			break // connection faulted, as required
		}
		nc.Close()
	}

	// The kernel behind the listener is unharmed: a fresh, well-behaved
	// connection still imports and invokes.
	client := core.MustNew(core.Options{})
	cd, err := client.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(client, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	proxy, err := conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	task := client.NewDetachedTask(cd, "after-garbage")
	res, err := proxy.InvokeFrom(task, "Echo", "still here")
	if err != nil || res[0] != any("still here") {
		t.Fatalf("server damaged by malformed frame: %#v %v", res, err)
	}
	if errors.Is(err, core.ErrRevoked) {
		t.Fatal("unexpected revocation")
	}
}
