package papertables

import (
	"math/rand/v2"
	"testing"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

// The VM fixture of Tables 1, 4 and 6: a server domain exporting Svc, and
// a client domain holding the capability and the bytecode benchmark loops.

const svcIface = `
.class Svc interface implements jk/kernel/Remote
.method nop ()V
.end
.method add3 (III)I
.end
.method sink (LMsgS;)I
.end
.method sinkF (LMsgF;)I
.end
`

// MsgS crosses by serialization, MsgF by fast copy. Both are chains of
// nodes carrying a payload array, so "N objects of M bytes" builds
// naturally.
const (
	msgS = ".class MsgS implements jk/io/Serializable\n.field payload [B\n.field next LMsgS;\n"
	msgF = ".class MsgF implements jk/io/FastCopy\n.field payload [B\n.field next LMsgF;\n"
)

const svcImpl = `
.class SvcImpl implements Svc
.method nop ()V
  ret
.end
.method add3 (III)I
  load 1
  load 2
  iadd
  load 3
  iadd
  retv
.end
.method sink (LMsgS;)I
  iconst 1
  retv
.end
.method sinkF (LMsgF;)I
  iconst 1
  retv
.end
`

const localIface = ".class LocalIface interface\n.method inop ()V\n.end\n"

const localTarget = `
.class LocalTarget implements LocalIface
.method nop ()V
  ret
.end
.method inop ()V
  ret
.end
`

// Every loop has the same shape — counter test, body, decrement — so
// baseline is the loop overhead the other rows carry.
const benchLoops = `
.class Bench
.field static cap LSvc;
.field static target LLocalTarget;
.method static setup ()V
  sconst "svc"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Svc
  putstatic Bench.cap:LSvc;
  new LocalTarget
  putstatic Bench.target:LLocalTarget;
  ret
.end
.method static runRegular (I)V
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  invokevirtual LocalTarget.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runIface (I)V
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  invokeinterface LocalIface.inop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLock (I)V
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  monitorenter
  getstatic Bench.target:LLocalTarget;
  monitorexit
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI (I)V
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  invokeinterface Svc.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI3 (I)V
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  iconst 1
  iconst 2
  iconst 3
  invokeinterface Svc.add3:(III)I
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static baseline (I)V
loop:
  load 0
  ifz done
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
`

func assemble(tb testing.TB, src string) []byte {
	tb.Helper()
	b, err := vmkit.AssembleBytes(src)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// vmFixture is the assembled two-domain fixture. Its task is detached: a
// benchmark body runs on whichever goroutine the testing package gives it.
type vmFixture struct {
	k      *core.Kernel
	client *core.Domain
	task   *core.Task
	cap    *core.Capability
}

func newVMFixture(tb testing.TB, profile vmkit.Profile) *vmFixture {
	tb.Helper()
	k := core.MustNew(core.Options{Profile: profile})
	server, err := k.NewDomain(core.DomainConfig{
		Name: "bench-server",
		Classes: map[string][]byte{
			"Svc":     assemble(tb, svcIface),
			"SvcImpl": assemble(tb, svcImpl),
			"MsgS":    assemble(tb, msgS),
			"MsgF":    assemble(tb, msgF),
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := k.ShareClasses(server, "Svc", "MsgS", "MsgF")
	if err != nil {
		tb.Fatal(err)
	}
	client, err := k.NewDomain(core.DomainConfig{
		Name: "bench-client",
		Classes: map[string][]byte{
			"LocalIface":  assemble(tb, localIface),
			"LocalTarget": assemble(tb, localTarget),
			"Bench":       assemble(tb, benchLoops),
		},
		Shared: []*core.SharedClass{sc},
	})
	if err != nil {
		tb.Fatal(err)
	}

	target, err := server.NewInstance("SvcImpl")
	if err != nil {
		tb.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		tb.Fatal(err)
	}
	if err := k.Repository().Bind("svc", cap); err != nil {
		tb.Fatal(err)
	}

	task := k.NewDetachedTask(client, "bench")
	if _, err := task.CallStatic("Bench.setup:()V"); err != nil {
		tb.Fatal(err)
	}
	return &vmFixture{k: k, client: client, task: task, cap: cap}
}

func (f *vmFixture) close() { f.task.Close() }

// run executes one of the Bench loops for n iterations.
func (f *vmFixture) run(tb testing.TB, method string, n int) {
	tb.Helper()
	if _, err := f.task.CallStatic("Bench."+method+":(I)V", vmkit.IntVal(int64(n))); err != nil {
		tb.Fatal(err)
	}
}

// chain builds count nodes of class MsgS or MsgF with size-byte payloads
// in the client domain (the caller's side of the copy). The payloads are
// 7-bit bytes from a fixed seed: the serializer writes a byte as a varint,
// so an all-zero payload would time only its one-byte form, and 8-bit
// bytes would make the stream's length depend on the bytes drawn.
func (f *vmFixture) chain(tb testing.TB, class string, count, size int) *vmkit.Object {
	tb.Helper()
	rng := rand.New(rand.NewPCG(4, 1))
	var head *vmkit.Object
	for i := 0; i < count; i++ {
		node, err := f.client.NewInstance(class)
		if err != nil {
			tb.Fatal(err)
		}
		payload, err := f.client.NS.NewArray("[B", size)
		if err != nil {
			tb.Fatal(err)
		}
		for j := range payload.Bytes {
			payload.Bytes[j] = byte(rng.Uint32()) & 0x7f
		}
		node.Fields[node.Class.FieldByName("payload").Slot] = vmkit.RefVal(payload)
		if head != nil {
			node.Fields[node.Class.FieldByName("next").Slot] = vmkit.RefVal(head)
		}
		head = node
	}
	return head
}
