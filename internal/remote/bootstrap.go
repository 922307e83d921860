package remote

import (
	"errors"
	"fmt"
	"time"

	"jkernel/internal/core"
)

// The bootstrap capability. A domain gets its first capabilities by name
// from the kernel, and every cross-domain interaction is a capability
// invocation — the wire keeps both rules: each connection serves an
// ordinary native capability at export id 0, owned by the connection's
// domain and created before the reader starts, and a peer's lookups,
// manifest fetches, handoff redeems and hellos are calls on it. They take
// the one invoke path (InvokeProxy → batcher → serveInvoke → ServeWire),
// their results decode on the reader like every reply — so an imported
// handle keeps its place in the stream against later revocation pushes —
// and their failures cross as every callee failure does. Export id 0 is
// never a table entry: no release, revocation push or returning handle can
// name it, and TableSizes does not count it.

// bootstrapID is the export id of the bootstrap capability.
const bootstrapID = 0

// Manifest is an export's method list on the wire. It is a registered
// struct rather than a []string because a gate target may only hand out
// capabilities and registered deep-copy types.
type Manifest struct {
	Methods []string
}

// answerAt returns result i of a bootstrap call as a T: the zero T when
// the peer answered fewer results, or another type.
func answerAt[T any](res []any, i int) T {
	var v T
	if i < len(res) {
		v, _ = res[i].(T)
	}
	return v
}

// bootstrap is the target of a connection's export 0.
type bootstrap struct{ c *Conn }

// Hello announces the peer's listen endpoint ("" when it has none), which
// makes the peer a handoff origin for what it exports; a dialed connection
// keeps the endpoint it dialed. Its answer is the liveness proof Ping
// waits for.
func (b *bootstrap) Hello(network, addr string) error {
	c := b.c
	c.count("remote.bootstrap.hello")
	c.mu.Lock()
	if c.peerAddr == "" {
		c.peerNet, c.peerAddr = network, addr
	}
	c.mu.Unlock()
	return nil
}

// Lookup answers an Import from the kernel's export table: the capability
// travels as a handle, its method list alongside.
func (b *bootstrap) Lookup(name string) (*core.Capability, Manifest, error) {
	b.c.count("remote.bootstrap.lookup")
	cap := b.c.k.ExportedCapability(name)
	if cap == nil {
		return nil, Manifest{}, fmt.Errorf("no export named %q", name)
	}
	return cap, Manifest{cap.Methods()}, nil
}

// Manifest answers a lazy manifest fetch for one of this connection's
// exports. A re-exported proxy's manifest may take a call upstream.
func (b *bootstrap) Manifest(exportID uint64) (Manifest, error) {
	b.c.count("remote.bootstrap.manifest")
	cap := b.c.exported(exportID)
	if cap == nil {
		return Manifest{}, fmt.Errorf("%w: unknown export %d", core.ErrRevoked, exportID)
	}
	return Manifest{cap.Methods()}, nil
}

// Redeem trades a handoff ticket at the origin for a fresh export and its
// manifest (a shortened import never lazy-fetches through the middleman).
// The ticket is consumed either way; a gate revoked between mint and
// redeem answers with the capability fault, never a resurrected export.
func (b *bootstrap) Redeem(nonce, exportID uint64) (uint64, Manifest, error) {
	c := b.c
	c.count("remote.bootstrap.redeem")
	t, ok := c.ks.takeTicket(nonce)
	if !ok || t.exportID != exportID {
		return 0, Manifest{}, errors.New("unknown or expired handoff ticket")
	}
	if t.cap.Revoked() {
		fault := core.ErrRevoked
		if t.cap.Owner().Terminated() {
			fault = core.ErrDomainTerminated
		}
		return 0, Manifest{}, fmt.Errorf("%w: capability revoked before the handoff was redeemed", fault)
	}
	id, ok := c.exportFreshHandle(t.cap)
	if !ok {
		return 0, Manifest{}, errors.New("handoff target not exportable on this connection")
	}
	return id, Manifest{t.cap.Methods()}, nil
}

// replyChan takes one bootstrap call's outcome (a core.AsyncCompleter).
type replyChan chan wireResult

func (ch replyChan) CompleteWire(results []any, _ int64, err error) bool {
	ch <- wireResult{results: results, err: err}
	return true
}

// callPeer invokes method on the peer's bootstrap. A positive timeout
// bounds the wait: the call goes asynchronous, and a record still pending
// at the deadline is cancelled, so its reply is inert when it comes. A
// reply that took the record first wins.
//
//jk:blocking
func (c *Conn) callPeer(timeout time.Duration, method string, args ...any) ([]any, error) {
	call := core.ProxyCall{Method: method, Args: args}
	if timeout <= 0 {
		res, _, _, err := c.peerBoot.InvokeProxy(call)
		return res, err
	}
	done := make(replyChan, 1)
	call.Done = done
	_, _, tok, _ := c.peerBoot.InvokeProxy(call)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res.results, res.err
	case <-timer.C:
	}
	if rec := c.takePending(tok); rec != nil {
		putRecord(rec)
		return nil, fmt.Errorf("remote: %s timed out after %v", method, timeout)
	}
	res := <-done
	return res.results, res.err
}

// Ping proves the peer kernel is up and serving with one Hello. Dial loops
// use it as a readiness probe: a connection can land in the listen backlog
// of a process that is already dying, and only an answered call tells the
// two apart.
//
//jk:blocking
func (c *Conn) Ping(timeout time.Duration) error {
	network, addr := advertised(c.k)
	_, err := c.callPeer(timeout, "Hello", network, addr)
	return err
}

// Import asks the peer for the capability it exports under name and
// returns a local proxy for it.
//
//jk:blocking
func (c *Conn) Import(name string) (*core.Capability, error) {
	res, err := c.callPeer(0, "Lookup", name)
	if err != nil {
		return nil, fmt.Errorf("remote: import %q: %w", name, err)
	}
	cap := answerAt[*core.Capability](res, 0)
	if cap == nil {
		return nil, fmt.Errorf("remote: lookup %q returned no capability", name)
	}
	if pt := proxyOf(cap); pt != nil {
		pt.setManifest(answerAt[Manifest](res, 1).Methods)
	}
	return cap, nil
}

// redeem trades a handoff ticket at this (origin) connection's peer for a
// fresh export id and its manifest.
func (c *Conn) redeem(nonce, exportID uint64) (uint64, []string, error) {
	res, err := c.callPeer(redeemReplyTimeout, "Redeem", nonce, exportID)
	if err != nil {
		return 0, nil, err
	}
	id := answerAt[uint64](res, 0)
	if id == bootstrapID {
		return 0, nil, errors.New("remote: redeem answered no export")
	}
	return id, answerAt[Manifest](res, 1).Methods, nil
}
