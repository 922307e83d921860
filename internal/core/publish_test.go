package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"jkernel/internal/account"
	"jkernel/internal/vmkit"
)

// A crossing books its charges and counters on its carrier
// (vmkit.Thread.Pending), and the carrier publishes them at its step flush
// and on every return to Go. These tests hold the publish points: exact
// figures once a Go caller has its result, figures that keep rising while
// bytecode runs without returning, and nothing landing on an account that
// froze before the publish.

const (
	pubIface = `
.class Pub interface implements jk/kernel/Remote
.method nop ()V
.end
`
	pubImpl = `
.class PubImpl implements Pub
.method nop ()V
  ret
.end
`
	pubClient = `
.class PubClient
.field static svc LPub;
.method static setup ()V
  sconst "pub"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Pub
  putstatic PubClient.svc:LPub;
  ret
.end
.method static calls (I)V
loop:
  load 0
  ifz done
  getstatic PubClient.svc:LPub;
  invokeinterface Pub.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static native kill ()V
.end
.method static callsThenKill (I)V
  load 0
  invokestatic PubClient.calls:(I)V
  invokestatic PubClient.kill:()V
  ret
.end
`
)

// flushWindow is vmkit's stepsFlushEvery: the steps a frame runs between
// publishes.
const flushWindow = 4096

type pubFixture struct {
	k              *Kernel
	server, client *Domain
	vmCap          *Capability
	task           *Task
}

// newPubFixture builds a server exporting PubImpl as "pub" and a client
// holding it, whose native PubClient.kill terminates the server.
func newPubFixture(t *testing.T) *pubFixture {
	t.Helper()
	k := MustNew(Options{})
	f := &pubFixture{k: k}
	k.VM.RegisterNative("PubClient.kill:()V", func(*vmkit.Env, *vmkit.Object, []vmkit.Value) (vmkit.Value, *vmkit.Object) {
		f.server.Terminate("killed by its client")
		return vmkit.Value{}, nil
	})
	var err error
	if f.server, err = k.NewDomain(DomainConfig{Name: "server", Classes: map[string][]byte{
		"Pub": mustAsm(t, pubIface), "PubImpl": mustAsm(t, pubImpl)}}); err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(f.server, "Pub")
	if err != nil {
		t.Fatal(err)
	}
	if f.client, err = k.NewDomain(DomainConfig{Name: "client", Shared: []*SharedClass{sc},
		Classes: map[string][]byte{"PubClient": mustAsm(t, pubClient)}}); err != nil {
		t.Fatal(err)
	}
	target, err := f.server.NewInstance("PubImpl")
	if err != nil {
		t.Fatal(err)
	}
	if f.vmCap, err = k.CreateVMCapability(f.server, target); err != nil {
		t.Fatal(err)
	}
	if err := k.Repository().Bind("pub", f.vmCap); err != nil {
		t.Fatal(err)
	}
	f.task = k.NewDetachedTask(f.client, "pub")
	t.Cleanup(f.task.Close)
	f.run(t, "setup:()V")
	return f
}

func (f *pubFixture) run(t *testing.T, method string, args ...vmkit.Value) {
	t.Helper()
	if _, err := f.task.CallStatic("PubClient."+method, args...); err != nil {
		t.Fatalf("%s: %v", method, err)
	}
}

// pubFigures is what another goroutine can read of a client→server
// crossing: both accounts, the two path counters and the edge.
type pubFigures struct {
	client, server     account.Stats
	vmCalls, lrmiCalls int64
	edge               int64
}

func (f *pubFixture) figures() pubFigures {
	reg := f.k.Telemetry()
	return pubFigures{
		client: f.client.Stats(), server: f.server.Stats(),
		vmCalls: reg.Counter("core.vm.calls").Value(), lrmiCalls: reg.Counter("core.lrmi.calls").Value(),
		edge: reg.Edge("client", "server").Value(),
	}
}

// TestPublishExactAtGoReturn: once a VM, native, proxy or served call has
// returned to its Go caller, the accounts, the path's call counter and the
// edge counter hold every charge and count of it, to the unit.
func TestPublishExactAtGoReturn(t *testing.T) {
	f := newPubFixture(t)
	native, err := f.k.CreateNativeCapability(f.server, allocNop{})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := f.k.CreateProxyCapability(f.server, nopProxy{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for _, c := range []struct {
		name string
		call func() error
		// calls is the number of crossings, vm and lrmi the path counters'
		// share of them, steps the server's, copied the bytes.
		calls, vm, lrmi, steps, copied int64
	}{
		{"Task.CallStatic", func() error {
			_, err := f.task.CallStatic("PubClient.calls:(I)V", vmkit.IntVal(n))
			return err
		}, n, n, 0, n, 0},
		// InvokeVM copies nothing for a void result, as a bytecode LRMI does.
		{"InvokeVM", func() error { _, err := f.vmCap.InvokeVM(f.task, "nop"); return err }, 1, 1, 0, 1, 0},
		{"InvokeFrom native", func() error { _, err := native.InvokeFrom(f.task, "Nop"); return err }, 1, 0, 1, 0, 0},
		{"InvokeFrom proxy", func() error { _, err := proxy.InvokeFrom(f.task, "Nop"); return err }, 1, 0, 0, 0, 0},
		{"ServeWire", func() error { return native.ServeWire(f.task, "Nop", nil, 10, &wireSink{}) }, 1, 0, 1, 0, 10},
	} {
		before := f.figures()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := f.figures()
		for _, d := range []struct {
			what      string
			got, want int64
		}{
			{"client cross_calls", after.client.CrossCalls - before.client.CrossCalls, c.calls},
			{"client copy_bytes", after.client.CopyBytes - before.client.CopyBytes, c.copied},
			{"server steps", after.server.Steps - before.server.Steps, c.steps},
			{"core.vm.calls", after.vmCalls - before.vmCalls, c.vm},
			{"core.lrmi.calls", after.lrmiCalls - before.lrmiCalls, c.lrmi},
			{"edge client→server", after.edge - before.edge, c.calls},
		} {
			if d.got != d.want {
				t.Errorf("after %s: %s rose by %d, want %d", c.name, d.what, d.got, d.want)
			}
		}
	}
	// PutTask publishes too: a served task's next caller finds nothing of
	// this one's pending.
	dt := f.client.GetTask()
	before := f.figures()
	if _, err := native.InvokeFrom(dt, "Nop"); err != nil {
		t.Fatal(err)
	}
	f.client.PutTask(dt)
	if got := f.figures().client.CrossCalls - before.client.CrossCalls; got != 1 {
		t.Errorf("after a served task's call and PutTask: cross_calls rose by %d, want 1", got)
	}
}

// TestPublishWithinFlushWindow: a bytecode loop of LRMIs that does not
// return to Go still publishes. Another goroutine sees the client's calls
// and steps and the server's steps rise while the loop runs, and the steps
// it sees never trail the calls it sees by more than one flush window.
func TestPublishWithinFlushWindow(t *testing.T) {
	f := newPubFixture(t)
	// The client's steps per iteration, from two finite runs.
	s0 := f.client.Stats().Steps
	f.run(t, "calls:(I)V", vmkit.IntVal(100))
	s1 := f.client.Stats().Steps
	f.run(t, "calls:(I)V", vmkit.IntVal(200))
	extra := (f.client.Stats().Steps - s1) - (s1 - s0) // the steps of 100 iterations
	perIter := extra / 100
	if perIter <= 0 || extra%100 != 0 {
		t.Fatalf("100 more iterations took %d more client steps", extra)
	}

	base := f.figures()
	done := make(chan error, 1)
	go func() {
		_, err := f.task.CallStatic("PubClient.calls:(I)V", vmkit.IntVal(1<<62))
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	var last int64
	for rises := 0; rises < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("published cross calls rose %d times in 10 s of a running loop", rises)
		}
		// Calls first: the steps read after them were published no
		// earlier.
		calls := f.client.Stats().CrossCalls - base.client.CrossCalls
		clientSteps := f.client.Stats().Steps - base.client.Steps
		serverSteps := f.server.Stats().Steps - base.server.Steps
		if lag := calls*perIter - clientSteps; lag > flushWindow {
			t.Errorf("client steps %d trail %d calls (%d steps) by %d, more than a flush window", clientSteps, calls, calls*perIter, lag)
		}
		if serverSteps < calls {
			t.Errorf("server steps %d trail %d calls", serverSteps, calls)
		}
		if calls > last {
			rises++
			last = calls
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("the loop returned: %v", err)
	default:
	}
	f.client.Terminate("test over")
	if err := <-done; err == nil || !strings.Contains(err.Error(), "DomainTerminated") {
		t.Fatalf("loop ended with %v, want its domain's termination", err)
	}
}

// TestPublishAfterFreezeIsDropped: the server's steps of calls its client
// made are still on the carrier when the client's own native terminates
// the server, so the publish at the return to Go finds the server's
// account frozen and drops them, while the client's charges land. The
// post-mortem line shows what the account held when it froze.
func TestPublishAfterFreezeIsDropped(t *testing.T) {
	f := newPubFixture(t)
	const n = 50
	f.run(t, "calls:(I)V", vmkit.IntVal(n))
	before := f.figures()
	f.run(t, "callsThenKill:(I)V", vmkit.IntVal(n))
	after := f.figures()
	if got := after.server.Steps - before.server.Steps; got != 0 {
		t.Errorf("terminated server took %d steps published after its freeze, want 0", got)
	}
	if got := after.client.CrossCalls - before.client.CrossCalls; got != n {
		t.Errorf("client cross_calls rose by %d, want %d", got, n)
	}
	if got := after.edge - before.edge; got != n {
		t.Errorf("edge client→server rose by %d, want %d", got, n)
	}
	var line string
	for _, e := range f.k.Telemetry().Events() {
		if strings.HasPrefix(e.Msg, "domain server ended") {
			line = e.Msg
		}
	}
	if want := " steps=" + strconv.FormatInt(before.server.Steps, 10) + " "; !strings.Contains(line, want) {
		t.Errorf("post-mortem %q does not hold%q", line, want)
	}
}
