// Package remote extends the J-Kernel's capability discipline across
// process boundaries: a supervisor kernel and worker kernels, each a full
// single-process J-Kernel, exchange capabilities over a length-prefixed
// wire protocol. Imported capabilities materialize as proxy gates that
// plug into the ordinary core invoke path, so callers cannot tell a local
// capability from a remote one — the paper's LRMI semantics (copy
// non-capability arguments, pass capabilities by reference, propagate
// revocation and termination as exceptions) hold across the wire.
//
// The protocol is symmetric: either end may export, import, and invoke.
// Each connection keeps an export table (local capabilities the peer may
// invoke, keyed by export id) and an import table (peer capabilities this
// side holds proxies for). Export id 0 is never a table entry: it names
// the connection's bootstrap capability (bootstrap.go), through which a
// peer looks names up, fetches manifests and redeems handoff tickets — so
// every request that wants an answer is an invocation, and everything else
// the peer must hear is an entry of a push vector. Arguments cross as an
// intermediate byte array produced by internal/seri, with capability
// references encoded through seri's External hook. Revocation — explicit,
// or implied by domain termination — is queued as a push the moment the
// gate dies, so proxies fail fast without the revoker ever waiting on a
// socket, and a lost connection faults every proxy imported over it
// ("worker died" surfaces as a capability fault, never as a supervisor
// crash).
//
// The //jk:faultpath mark below puts this package's handle*/serve*/reply*
// frame handlers in scope of jkvet's faultpath pass: an error a handler
// drops is a connection silently running on a broken socket.
//
//jk:faultpath
package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Message types. A request that wants an answer is an invocation — a user
// call or a call on the peer's bootstrap — and anything one-way is a push.
// Both travel as vectors (the paper's Table 4 lesson applied to the wire):
// one msgInvoke carries every call the batcher held when it was written,
// one or many, and the msgReply answering them carries per-call status, so
// one faulting call cannot poison its vector; one msgPush carries every
// revocation, release and handoff entry queued meanwhile. Types 1 and 2
// were the lone-call frames, 3 and 13 the lone revocation and handoff
// pushes, and 4–7, 11, 12, 14 and 15 control request/reply pairs before
// the bootstrap took their place; all of them decode as unknown types.
const (
	msgInvoke byte = 8  // count, then per call: reqID, exportID, method, trace, argLen, args
	msgReply  byte = 9  // count, then per call: reqID, status, bodyLen+body | error
	msgPush   byte = 10 // count, then per entry: kind, then that kind's fields
)

// Push entry kinds.
//
// Capability lifecycle: imports release their wire references when the
// local proxy dies (explicit ReleaseProxy, local revocation, or a pushed
// revocation), and the export side drops its table entry when the
// reference count reaches zero. A release carries the receipt count and a
// generation, which makes a stale or duplicated release for a re-imported
// id harmless (see Conn.handleRelease). A revoked gate's export entry is
// dropped and its revocation pushed.
//
// Three-party handoff (path shortening): when a proxy imported from kernel
// A is re-exported to kernel C, the middleman B mints a redeemable ticket
// instead of settling for a relay. A register entry carries the ticket to
// A, and an offer entry carries A's address, A's export id and the
// one-time nonce to C; C dials A — or reuses a pooled connection — and
// trades the nonce for a first-class import with a Redeem call on A's
// bootstrap. The relay path stays as the transparent fallback.
const (
	pushRelease  byte = 1 // exportID, count, gen
	pushRevoke   byte = 2 // exportID, reason
	pushRegister byte = 3 // nonce, exportID (middleman -> origin)
	pushOffer    byte = 4 // relayID, exportID, nonce, network, addr (middleman -> receiver)
)

// Reply statuses.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// Wire error kinds, mapped back onto kernel sentinels by the caller.
const (
	errKindRevoked    byte = 1
	errKindTerminated byte = 2
	errKindNoMethod   byte = 3
	errKindRemote     byte = 5 // copied callee failure (class + message)
	errKindProtocol   byte = 6
)

// Revocation reasons a revoke entry carries.
const (
	revokeReasonRevoked    byte = 0
	revokeReasonTerminated byte = 1
)

// maxFrame bounds one protocol frame (header-declared length).
const maxFrame = 1 << 24

// Capability handles: a handle names a gate relative to the *sender*.
// kind 0 means "owned by me, import it"; kind 1 means "owned by you,
// here is your own export id back". Packed as id<<1|kind so a handle fits
// seri's single-uint64 External contract.
const (
	handleKindTheirs = 0 // receiver should import (sender-owned)
	handleKindYours  = 1 // receiver's own export returning home
)

func packHandle(id uint64, kind uint64) uint64 { return id<<1 | kind }
func unpackHandle(h uint64) (id uint64, kind uint64) {
	return h >> 1, h & 1
}

// readFrameInto reads one length-prefixed frame into a pooled frame
// buffer. The caller (the read loop) owns the returned reference and
// releases it when dispatch is done with the frame. The length header is
// read in place in the reader's own buffer, so a frame costs no allocation
// beyond its pooled buffer.
func readFrameInto(br *bufio.Reader) (*frameBuf, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds limit", n)
	}
	if _, err := br.Discard(4); err != nil {
		return nil, err
	}
	fb := getFrame(int(n))
	fb.b = fb.b[:n]
	if _, err := io.ReadFull(br, fb.b); err != nil {
		fb.release()
		return nil, err
	}
	return fb, nil
}

// invokeBuffered reports whether br already holds the whole next frame and
// that frame is a msgInvoke, so reading it cannot block.
func invokeBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false // Peek would wait for the bytes
	}
	hdr, _ := br.Peek(5)
	n := binary.LittleEndian.Uint32(hdr)
	return hdr[4] == msgInvoke && n > 0 && int64(n)+4 <= int64(br.Buffered())
}

// wbuf builds a frame payload.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)        { w.b = append(w.b, v) }
func (w *wbuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) raw(p []byte) { w.b = append(w.b, p...) }

// rbuf walks a frame payload.
type rbuf struct {
	b   []byte
	pos int
}

func (r *rbuf) fail(what string) error {
	return fmt.Errorf("remote: malformed frame: %s at offset %d", what, r.pos)
}

func (r *rbuf) u8() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, r.fail("truncated byte")
	}
	v := r.b[r.pos]
	r.pos++
	return v, nil
}

func (r *rbuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, r.fail("bad uvarint")
	}
	r.pos += n
	return v, nil
}

func (r *rbuf) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.pos) {
		return "", r.fail("string overruns frame")
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// wireErr reads a statusErr reply's tail: the error kind, the callee's
// error class and its message.
func (r *rbuf) wireErr() (kind byte, class, msg string, err error) {
	if kind, err = r.u8(); err != nil {
		return
	}
	if class, err = r.str(); err != nil {
		return
	}
	msg, err = r.str()
	return
}

// count reads a collection count and rejects values that cannot fit in the
// remaining frame bytes (each element needs at least elemMin bytes), so a
// malformed frame cannot trigger a huge up-front allocation — and a count
// that passes may size its collection in one allocation, linear in the
// frame's length (TestDecodeFrameCostIsLinear).
func (r *rbuf) count(elemMin int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(len(r.b)-r.pos)/uint64(elemMin) {
		return 0, r.fail("collection overruns frame")
	}
	return int(n), nil
}

// bytes reads a length-prefixed byte payload (aliasing the frame buffer).
func (r *rbuf) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, r.fail("bytes overrun frame")
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// rest returns the unread tail of the frame (the seri stream).
func (r *rbuf) rest() []byte { return r.b[r.pos:] }

// --- typed frames -----------------------------------------------------------
//
// Every inbound frame decodes through one of the parse functions below
// before any side effect happens; conn.dispatch acts on the typed result.
// The split keeps the full decode surface reachable from pure functions,
// which is what FuzzDecodeFrame exercises: malformed input must return an
// error (faulting the connection), never panic.

// inFrame is the decoded form of one inbound frame: t is the message type
// and says which one member is meaningful. The read loop owns a single
// inFrame and decodeFrame refills it for every frame — nothing is boxed,
// and the vector slices keep their backing arrays from frame to frame — so
// whatever must outlive dispatch is copied out of it.
type inFrame struct {
	t       byte
	calls   []invokeFrame // msgInvoke
	replies []replyFrame  // msgReply
	pushes  []pushEntry   // msgPush
}

// Trace block flags. Every call entry carries a one-byte flags field after
// the method name; traceFlagContext adds the caller's trace id and parent
// span id, so a traced call chain stitches across kernels. Unknown flag bits are a protocol error — the fuzz suite
// holds decode to "error, never panic" here like everywhere else.
const traceFlagContext byte = 1

// invokeFrame is one decoded call of a msgInvoke vector.
type invokeFrame struct {
	reqID    uint64
	exportID uint64
	method   []byte // aliases the frame buffer, like args
	// traceID/parentSpan carry the caller's trace context when the frame's
	// trace flags include traceFlagContext (traceID is nonzero then).
	traceID    uint64
	parentSpan uint64
	args       []byte // seri stream, aliases the frame buffer
}

// replyFrame is one decoded reply of a msgReply vector. It doubles as the
// outbound reply representation: serveInvoke's encoder
// (inbound.EncodeResults) puts the result stream in a pooled buffer
// recorded in bodyBuf (nil on parsed inbound frames), which the reply
// sender releases after the write.
type replyFrame struct {
	reqID   uint64
	status  byte
	body    []byte // statusOK: seri stream of results
	kind    byte   // statusErr: wire error kind
	class   string
	msg     string
	bodyBuf *frameBuf // outbound only: pooled owner of body
}

// pushEntry is one entry of a msgPush vector; kind says which fields are
// meaningful. It doubles as the batcher's queued push: a release queued
// by a dying proxy's hook is an intent with count 0, which the flusher
// resolves against the import table before the entry is written (see
// Conn.sendPushes). It holds ids and strings only, so a queued push pins
// no gate.
type pushEntry struct {
	kind     byte
	reason   byte   // revoke
	exportID uint64 // the sender's export for a revoke, the receiver's for a release or register, the origin's for an offer
	count    uint64 // release: the receipts returned
	gen      uint64 // release: the import generation they belong to
	nonce    uint64 // register, offer: the one-time ticket
	relayID  uint64 // offer: the middleman's relay export id on this conn
	network  string // offer: the origin kernel's dialable endpoint
	addr     string
}

// parseTrace decodes the trace block following the method name: one flags
// byte, then — with traceFlagContext — the trace id and parent span id.
func parseTrace(r *rbuf, f *invokeFrame) error {
	flags, err := r.u8()
	if err != nil {
		return err
	}
	switch flags {
	case 0:
		return nil
	case traceFlagContext:
		if f.traceID, err = r.uvarint(); err != nil {
			return err
		}
		if f.traceID == 0 {
			return r.fail("zero trace id")
		}
		f.parentSpan, err = r.uvarint()
		return err
	default:
		return r.fail("unknown trace flags")
	}
}

// appendTrace encodes the trace block (the common untraced case is one
// zero byte).
func appendTrace(w *wbuf, traceID, parentSpan uint64) {
	if traceID == 0 {
		w.u8(0)
		return
	}
	w.u8(traceFlagContext)
	w.uvarint(traceID)
	w.uvarint(parentSpan)
}

// parseCall decodes one call entry of a msgInvoke vector.
func parseCall(r *rbuf) (f invokeFrame, err error) {
	if f.reqID, err = r.uvarint(); err != nil {
		return f, err
	}
	if f.exportID, err = r.uvarint(); err != nil {
		return f, err
	}
	if f.method, err = r.bytes(); err != nil {
		return f, err
	}
	if err = parseTrace(r, &f); err != nil {
		return f, err
	}
	f.args, err = r.bytes()
	return f, err
}

// parseCalls decodes a msgInvoke vector, appending to calls (the reader's
// reused backing array).
func parseCalls(r *rbuf, calls []invokeFrame) ([]invokeFrame, error) {
	n, err := r.count(5) // reqID + exportID + method len + trace flags + arg len, 1 byte each minimum
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, r.fail("empty call vector")
	}
	calls = slices.Grow(calls, n)
	for i := 0; i < n; i++ {
		f, err := parseCall(r)
		if err != nil {
			return nil, err
		}
		calls = append(calls, f)
	}
	if len(r.rest()) != 0 {
		return nil, r.fail("trailing bytes after call vector")
	}
	return calls, nil
}

// parseReplies decodes a msgReply vector (per-call status), appending to
// replies.
func parseReplies(r *rbuf, replies []replyFrame) ([]replyFrame, error) {
	n, err := r.count(3) // reqID + status + 1 byte of payload minimum
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, r.fail("empty reply vector")
	}
	replies = slices.Grow(replies, n)
	for i := 0; i < n; i++ {
		var f replyFrame
		if f.reqID, err = r.uvarint(); err != nil {
			return nil, err
		}
		if f.status, err = r.u8(); err != nil {
			return nil, err
		}
		if f.status == statusOK {
			f.body, err = r.bytes()
		} else {
			f.kind, f.class, f.msg, err = r.wireErr()
		}
		if err != nil {
			return nil, err
		}
		replies = append(replies, f)
	}
	if len(r.rest()) != 0 {
		return nil, r.fail("trailing bytes after reply vector")
	}
	return replies, nil
}

// parsePush decodes one entry of a msgPush vector.
func parsePush(r *rbuf) (p pushEntry, err error) {
	if p.kind, err = r.u8(); err != nil {
		return p, err
	}
	switch p.kind {
	case pushRelease:
		if p.exportID, err = r.uvarint(); err != nil {
			return p, err
		}
		if p.count, err = r.uvarint(); err != nil {
			return p, err
		}
		p.gen, err = r.uvarint()
	case pushRevoke:
		if p.exportID, err = r.uvarint(); err != nil {
			return p, err
		}
		p.reason, err = r.u8()
	case pushRegister:
		if p.nonce, err = r.uvarint(); err != nil {
			return p, err
		}
		p.exportID, err = r.uvarint()
	case pushOffer:
		if p.relayID, err = r.uvarint(); err != nil {
			return p, err
		}
		if p.exportID, err = r.uvarint(); err != nil {
			return p, err
		}
		if p.nonce, err = r.uvarint(); err != nil {
			return p, err
		}
		if p.network, err = r.str(); err != nil {
			return p, err
		}
		if p.addr, err = r.str(); err == nil && p.addr == "" {
			err = r.fail("offer without origin address")
		}
	default:
		err = r.fail("unknown push kind")
	}
	return p, err
}

// parsePushes decodes a msgPush vector, appending to pushes.
func parsePushes(r *rbuf, pushes []pushEntry) ([]pushEntry, error) {
	n, err := r.count(3) // kind + two fields, 1 byte each minimum
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, r.fail("empty push vector")
	}
	pushes = slices.Grow(pushes, n)
	for i := 0; i < n; i++ {
		p, err := parsePush(r)
		if err != nil {
			return nil, err
		}
		pushes = append(pushes, p)
	}
	if len(r.rest()) != 0 {
		return nil, r.fail("trailing bytes after push vector")
	}
	return pushes, nil
}

// decodeFrame decodes one frame into f, which it first resets — keeping
// only the vector slices' backing arrays — so nothing of the frame f held
// before shows through: decoding into a used inFrame and into a fresh one
// give the same result. f.t is set even when the frame is malformed (the
// error faults the connection). It is the single decode entry point for
// conn.dispatch and for the fuzz targets.
func decodeFrame(frame []byte, f *inFrame) error {
	clear(f.calls)
	clear(f.replies)
	clear(f.pushes)
	*f = inFrame{calls: f.calls[:0], replies: f.replies[:0], pushes: f.pushes[:0]}
	r := &rbuf{b: frame}
	var err error
	if f.t, err = r.u8(); err != nil {
		return err
	}
	switch f.t {
	case msgInvoke:
		f.calls, err = parseCalls(r, f.calls)
	case msgReply:
		f.replies, err = parseReplies(r, f.replies)
	case msgPush:
		f.pushes, err = parsePushes(r, f.pushes)
	default:
		err = fmt.Errorf("remote: unknown message type %d", f.t)
	}
	return err
}

// --- frame encoders ---------------------------------------------------------

// appendCallHeader appends one call's header (everything but the argument
// bytes) to a msgInvoke body. The vectored sender emits the args as their
// own write segment, so the header declares the length and the payload
// never moves.
func appendCallHeader(w *wbuf, reqID, exportID uint64, method string, traceID, parentSpan uint64, argLen int) {
	w.uvarint(reqID)
	w.uvarint(exportID)
	w.str(method)
	appendTrace(w, traceID, parentSpan)
	w.uvarint(uint64(argLen))
}

// appendPush appends one entry to a msgPush body.
func appendPush(w *wbuf, p *pushEntry) {
	w.u8(p.kind)
	switch p.kind {
	case pushRelease:
		w.uvarint(p.exportID)
		w.uvarint(p.count)
		w.uvarint(p.gen)
	case pushRevoke:
		w.uvarint(p.exportID)
		w.u8(p.reason)
	case pushRegister:
		w.uvarint(p.nonce)
		w.uvarint(p.exportID)
	case pushOffer:
		w.uvarint(p.relayID)
		w.uvarint(p.exportID)
		w.uvarint(p.nonce)
		w.str(p.network)
		w.str(p.addr)
	}
}

// appendReplyHeader appends one reply entry to a msgReply body and returns
// the payload that follows it on the wire: a success's result stream, which
// the header declares the length of (the vectored sender writes it as its
// own segment), or nil for a failure, whose entry the header completes.
func appendReplyHeader(w *wbuf, rep *replyFrame) []byte {
	w.uvarint(rep.reqID)
	w.u8(rep.status)
	if rep.status == statusOK {
		w.uvarint(uint64(len(rep.body)))
		return rep.body
	}
	w.u8(rep.kind)
	w.str(rep.class)
	w.str(rep.msg)
	return nil
}
