package main

import (
	"fmt"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

// The VM fixture shared by lrmi_vm_null and lrmi_copy: a server domain
// exporting Svc, a client domain holding the capability, and the client's
// bytecode loops (the classes of cmd/jkbench's Tables 1, 4 and 6, with
// outputs added: add3's results are summed and sink returns a checksum of
// the copy it received, so the generator can verify every call).

const (
	vmSvcIface = `
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
	vmMsgS = ".class MsgS implements jk/io/Serializable\n.field payload [B\n.field next LMsgS;\n"
	vmMsgF = ".class MsgF implements jk/io/FastCopy\n.field payload [B\n.field next LMsgF;\n"

	// sink walks the chain it was handed — the callee's own copy — and
	// returns vmSinkBase plus the sum over nodes of payload length + first
	// byte. The base keeps every checksum above 255: Go boxes smaller
	// integers without allocating, and allocs_per_op must not depend on
	// which bytes a seed drew.
	vmSinkBody = `
.method %[1]s (L%[2]s;)I stack 6 locals 1
  iconst 1000
  store 2
loop:
  load 1
  ifnull done
  load 1
  getfield %[2]s.payload:[B
  dup
  arraylength
  swap
  iconst 0
  aload
  iadd
  load 2
  iadd
  store 2
  load 1
  getfield %[2]s.next:L%[2]s;
  store 1
  jmp loop
done:
  load 2
  retv
.end
`
	vmSvcImplHead = `
.class SvcImpl implements Svc
.method nop ()V stack 2 locals 0
  ret
.end
.method add3 (III)I stack 6 locals 0
  load 1
  load 2
  iadd
  load 3
  iadd
  retv
.end
`
	vmClientIface  = ".class LocalIface interface\n.method inop ()V\n.end\n"
	vmClientTarget = `
.class LocalTarget implements LocalIface
.method nop ()V stack 2 locals 0
  ret
.end
.method inop ()V stack 2 locals 0
  ret
.end
`
	// Every loop has the same shape — counter test, body, decrement — so
	// runEmpty is the loop overhead the other rows carry.
	vmClientBench = `
.class Bench
.field static cap LSvc;
.field static target LLocalTarget;
.method static setup ()V stack 4 locals 0
  sconst "svc"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Svc
  putstatic Bench.cap:LSvc;
  new LocalTarget
  putstatic Bench.target:LLocalTarget;
  ret
.end
.method static runEmpty (I)V stack 8 locals 0
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runRegular (I)V stack 8 locals 0
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
.method static runIface (I)V stack 8 locals 0
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
.method static runLock (I)V stack 8 locals 0
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
.method static runLRMI (I)V stack 8 locals 0
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
.method static runLRMI3 (IIII)I stack 10 locals 1
  iconst 0
  store 4
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  load 1
  load 2
  load 3
  invokeinterface Svc.add3:(III)I
  load 4
  iadd
  store 4
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  load 4
  retv
.end
`
)

// vmSinkBase is the constant SvcImpl.sink starts its checksum from.
const vmSinkBase = 1000

// vmFixture is the two-domain kernel both LRMI workloads call through.
type vmFixture struct {
	k      *core.Kernel
	server *core.Domain
	client *core.Domain
	task   *core.Task
	cap    *core.Capability
	// lrmis counts every LRMI issued through the fixture, in any phase;
	// the client domain's CrossCalls account must agree with it.
	lrmis int64
	base  int64 // client CrossCalls when the fixture was built
	// loadVerify is how long domain creation plus class load and
	// verification took (vmkit.load_verify_ms); assembling the sources is
	// the benchmark's own work and is not in it.
	loadVerify time.Duration
}

func assemble(sources map[string]string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(sources))
	for name, src := range sources {
		b, err := vmkit.AssembleBytes(src)
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", name, err)
		}
		out[name] = b
	}
	return out, nil
}

func newVMFixture(opts core.Options) (*vmFixture, error) {
	serverClasses, err := assemble(map[string]string{
		"Svc":  vmSvcIface,
		"MsgS": vmMsgS,
		"MsgF": vmMsgF,
		"SvcImpl": vmSvcImplHead +
			fmt.Sprintf(vmSinkBody, "sink", "MsgS") + fmt.Sprintf(vmSinkBody, "sinkF", "MsgF"),
	})
	if err != nil {
		return nil, err
	}
	clientClasses, err := assemble(map[string]string{
		"LocalIface": vmClientIface, "LocalTarget": vmClientTarget, "Bench": vmClientBench,
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	k, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	f := &vmFixture{k: k}
	if f.server, err = k.NewDomain(core.DomainConfig{Name: "server", Classes: serverClasses}); err != nil {
		return nil, err
	}
	sc, err := k.ShareClasses(f.server, "Svc", "MsgS", "MsgF")
	if err != nil {
		return nil, err
	}
	f.client, err = k.NewDomain(core.DomainConfig{Name: "client", Classes: clientClasses, Shared: []*core.SharedClass{sc}})
	if err != nil {
		return nil, err
	}
	boot := k.NewDetachedTask(f.server, "setup")
	target, err := f.server.NewInstance("SvcImpl")
	if err != nil {
		return nil, err
	}
	if f.cap, err = k.CreateVMCapability(f.server, target); err != nil {
		return nil, err
	}
	if err := k.Repository().Bind("svc", f.cap); err != nil {
		return nil, err
	}
	boot.Close()
	f.task = k.NewDetachedTask(f.client, "bench")
	if _, err := f.task.CallStatic("Bench.setup:()V"); err != nil {
		return nil, err
	}
	f.loadVerify = time.Since(start)
	f.base = f.client.Stats().CrossCalls
	return f, nil
}

// loop runs one of Bench's (I)V bytecode loops for n iterations.
func (f *vmFixture) loop(method string, n int) error {
	if method == "runLRMI" {
		f.lrmis += int64(n)
	}
	_, err := f.task.CallStatic("Bench."+method+":(I)V", vmkit.IntVal(int64(n)))
	return err
}

// lrmi3 runs n add3 LRMIs and returns the sum of their results.
func (f *vmFixture) lrmi3(n int, a, b, c int64) (int64, error) {
	f.lrmis += int64(n)
	v, err := f.task.CallStatic("Bench.runLRMI3:(IIII)I",
		vmkit.IntVal(int64(n)), vmkit.IntVal(a), vmkit.IntVal(b), vmkit.IntVal(c))
	return v.I, err
}

// verifyCalls holds the kernel's own account of the client domain's
// cross-domain calls against the number issued through the fixture.
func (f *vmFixture) verifyCalls() []string {
	if got := f.client.Stats().CrossCalls - f.base; got != f.lrmis {
		return []string{fmt.Sprintf("callee domain was entered %d times, generator issued %d LRMIs", got, f.lrmis)}
	}
	return nil
}

// chain builds a linked list of count nodes of class (MsgS or MsgF) in
// the client domain, each carrying size payload bytes drawn from fill, and
// returns it with the checksum SvcImpl.sink must compute from its copy.
func (f *vmFixture) chain(class string, count, size int, fill func() byte) (*vmkit.Object, int64, error) {
	var head *vmkit.Object
	sum := int64(vmSinkBase)
	for i := 0; i < count; i++ {
		node, err := f.client.NewInstance(class)
		if err != nil {
			return nil, 0, err
		}
		arr, err := f.client.NS.NewArray("[B", size)
		if err != nil {
			return nil, 0, err
		}
		for j := range arr.Bytes {
			arr.Bytes[j] = fill()
		}
		sum += int64(size) + int64(arr.Bytes[0])
		node.Fields[node.Class.FieldByName("payload").Slot] = vmkit.RefVal(arr)
		if head != nil {
			node.Fields[node.Class.FieldByName("next").Slot] = vmkit.RefVal(head)
		}
		head = node
	}
	return head, sum, nil
}
