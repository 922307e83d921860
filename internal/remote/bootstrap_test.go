package remote

import (
	"testing"
	"time"

	"jkernel/internal/core"
)

// Export id 0 is the bootstrap, never a table entry: the tables do not
// count it, a release or a revocation push naming it does nothing, and it
// cannot travel as a capability handle in either direction.
func TestBootstrapIsNotAnExport(t *testing.T) {
	p := newPair(t)
	p.export(t, "echo", echoSvc{})
	sc := serverConn(t, p.ln)
	if _, err := p.conn.Import("echo"); err != nil {
		t.Fatal(err)
	}
	serverBase := TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}
	clientBase := TableSizes{Imports: 1}
	waitTables(t, "server", sc, serverBase)
	waitTables(t, "client", p.conn, clientBase)

	// The client pushes a release of the server's export 0 and a
	// revocation of its own, as two entries of one push vector; the Ping
	// behind them is answered once the server's reader has dispatched it.
	pushes := []pushEntry{
		{kind: pushRelease, exportID: bootstrapID, count: 1, gen: 1},
		{kind: pushRevoke, exportID: bootstrapID, reason: revokeReasonRevoked},
	}
	err := p.conn.sendBatched(msgPush, len(pushes), func(w *wbuf, i int) []byte {
		appendPush(w, &pushes[i])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.conn.Ping(5 * time.Second); err != nil {
		t.Fatalf("bootstrap after a release and a revocation of export 0: %v", err)
	}
	waitTables(t, "server", sc, serverBase)
	if _, err := p.conn.Import("echo"); err != nil {
		t.Fatalf("import after a release and a revocation of export 0: %v", err)
	}

	for _, kind := range []uint64{handleKindTheirs, handleKindYours} {
		ext := connExternal{c: sc}
		if v, err := ext.DecodeExternal(packHandle(bootstrapID, kind)); err == nil {
			t.Errorf("handle of kind %d naming export 0 decoded to %v", kind, v)
		}
	}
	waitTables(t, "server", sc, serverBase)
	waitTables(t, "client", p.conn, clientBase)
}

// The calls a connection's bootstrap serves are counted by method, so an
// operator still sees lookups, pings and manifest fetches at /debug/jk.
func TestBootstrapCallsAreCounted(t *testing.T) {
	p := newPair(t)
	p.export(t, "maker", &makerSvc{k: p.server, d: p.serverDom})
	maker, err := p.conn.Import("maker")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.conn.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := maker.InvokeFrom(p.task, "MakeCounter")
	if err != nil {
		t.Fatal(err)
	}
	if ms := res[0].(*core.Capability).Methods(); len(ms) != 1 {
		t.Fatalf("lazy manifest: %v", ms)
	}
	// The client's announcing Hello is asynchronous: its flusher may write
	// it after the calls above have been answered.
	for method, want := range map[string]int64{"lookup": 1, "manifest": 1, "hello": 2} {
		got := counterValue(p.server, "remote.bootstrap."+method)
		for deadline := time.Now().Add(5 * time.Second); got < want && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			got = counterValue(p.server, "remote.bootstrap."+method)
		}
		if got != want {
			t.Errorf("remote.bootstrap.%s = %d, want %d", method, got, want)
		}
	}
}
