// Package core implements the J-Kernel: a capability-based system
// supporting multiple, cooperating protection domains inside a single
// virtual machine, after Hawblitzel et al., "Implementing Multiple
// Protection Domains in Java" (USENIX 1998).
//
// The three core concepts map directly onto the paper's §3:
//
//   - Capabilities are the only objects shareable between domains. They are
//     created with Capability.create (VM path: generated bytecode stubs
//     extending jk/kernel/Capability; native path: reflect-backed stubs),
//     can be revoked at any time by the creating domain, and revocation
//     makes the target collectable no matter who still holds the stub.
//   - Protection domains (Domain) own a class namespace governed by a
//     resolver, an account, and every capability they created and have not
//     revoked. Termination revokes all of them and frees the domain's name.
//   - Cross-domain calls copy non-capability arguments (serialization by
//     default, fast-copy for classes that opt in) and pass capabilities by
//     reference, switching thread segments rather than threads.
package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"

	"jkernel/internal/account"
	"jkernel/internal/fastcopy"
	"jkernel/internal/seri"
	"jkernel/internal/telemetry"
	"jkernel/internal/threads"
	"jkernel/internal/vmkit"
)

// Options configures a Kernel.
type Options struct {
	// Profile selects the VM cost profile. The zero Profile is the product
	// VM; vmkit.ProfileA and ProfileB are the paper's cost models, for the
	// tables that measure them.
	Profile vmkit.Profile
	// Stdout receives output of domains with no per-domain writer.
	Stdout io.Writer
	// DisableTelemetry turns off the kernel's metrics registry and trace
	// recorder (Telemetry()/Tracer() return nil). Telemetry is on by
	// default; its per-call cost is a few atomics (see internal/telemetry).
	DisableTelemetry bool
	// TelemetryNode names this kernel in snapshots and stitched traces
	// (default "jk").
	TelemetryNode string
}

// Kernel is one J-Kernel instance wrapping one VM ("multiple protection
// domains within a single JVM").
type Kernel struct {
	VM    *vmkit.VM
	Meter *account.Meter
	// tm is the kernel's telemetry bundle; nil when disabled (every use is
	// nil-safe, so the disabled fast path is one pointer test).
	tm *kernelMetrics

	// The kernel's own tables. Each entry ends with what it indexes: a
	// domain's name at Terminate, a task at Close, a segment handle at the
	// pop, an export at Unexport. Gates are in no table: a stub's class
	// carries its gate, and a gate lives as long as something names it.
	byName    sync.Map // string -> *Domain; (*Domain)(nil) while NewDomain sets the domain up
	nextDom   atomic.Int64
	nextGate  atomic.Int64 // gate numbers, for fault messages
	segs      sync.Map     // int64 (seg id) -> threads.Handle: only segments a jk/lang/Thread object names
	tasks     sync.Map     // *threads.Chain -> *Task: currentTask's lookup, and the chains Terminate kicks
	nextStub  atomic.Int64
	repo      *Repository
	seriReg   *seri.Registry
	copyModes sync.Map // reflect.Type -> copyMode, for types registered away from the default
	copier    *fastcopy.Copier
	graphCop  *fastcopy.Copier
	exports   sync.Map // string -> *Capability: names served to remote kernels

	// The marker interfaces that choose a VM argument's copy path.
	serializable, fastCopy, fastGraph *vmkit.Class
}

// New creates a kernel, boots its VM, installs the kernel's classes and
// their natives (jk/kernel/*, and jk/lang/Thread's for every domain), and
// wires accounting.
func New(opts Options) (*Kernel, error) {
	k := &Kernel{
		Meter:   account.NewMeter(),
		seriReg: seri.NewRegistry(),
	}
	if !opts.DisableTelemetry {
		k.tm = newKernelMetrics(opts.TelemetryNode)
	}
	isCap := func(v any) bool {
		_, ok := v.(*Capability)
		return ok
	}
	k.copier = fastcopy.New(fastcopy.WithCapabilityFunc(isCap))
	k.graphCop = fastcopy.New(fastcopy.WithCycleTable(), fastcopy.WithCapabilityFunc(isCap))

	vm, err := vmkit.New(opts.Profile)
	if err != nil {
		return nil, err
	}
	k.VM = vm
	k.serializable = vm.SystemClass(vmkit.IfaceSerializable)
	k.fastCopy = vm.SystemClass(vmkit.IfaceFastCopy)
	k.fastGraph = vm.SystemClass(vmkit.IfaceFastCopyGraph)
	if opts.Stdout != nil {
		vm.Stdout = opts.Stdout
	}
	vm.Bootstrap().Account = k.Meter.Account(0)
	k.repo = newRepository()
	if err := k.defineKernelClasses(); err != nil {
		return nil, err
	}
	return k, nil
}

// MustNew is New that panics on error.
func MustNew(opts Options) *Kernel {
	k, err := New(opts)
	if err != nil {
		panic(err)
	}
	return k
}

// Repository returns the system-wide capability repository.
func (k *Kernel) Repository() *Repository { return k.repo }

// SeriRegistry returns the kernel's serialization registry. Transports
// (internal/remote) use it to encode cross-process arguments; registering
// a type here (directly, or via RegisterWireType) makes it wire-encodable
// without changing its local LRMI copy mode.
func (k *Kernel) SeriRegistry() *seri.Registry { return k.seriReg }

// RegisterWireType registers a Go type under name for wire transfer only:
// remote invocations can copy it, while local LRMI keeps the type's
// registered copy mode (fast-copy by default). The registry compiles the
// type's codec at this point — the serializer analogue of genStubClass's
// run-time stub generation: both generators run once at registration and
// pay no layout walk on the hot path.
//
//jk:wire-register 1
func (k *Kernel) RegisterWireType(name string, sample any) {
	k.seriReg.Register(name, sample)
}

// Export publishes c under name for remote kernels: connections serving
// this kernel answer Import(name) lookups from this table. Unlike the
// repository (domain-visible, VM-reachable), the export surface is opt-in
// and supervisor-controlled. It fails if the name is taken.
func (k *Kernel) Export(name string, c *Capability) error {
	if name == "" {
		return fmt.Errorf("jkernel: empty export name")
	}
	if c == nil {
		return fmt.Errorf("jkernel: export of nil capability")
	}
	if _, loaded := k.exports.LoadOrStore(name, c); loaded {
		return fmt.Errorf("jkernel: export name %q already bound", name)
	}
	return nil
}

// Unexport removes a remote export binding (existing remote proxies keep
// working until the capability itself is revoked).
func (k *Kernel) Unexport(name string) {
	k.exports.Delete(name)
}

// ExportedCapability returns the capability exported under name, or nil.
func (k *Kernel) ExportedCapability(name string) *Capability {
	v, ok := k.exports.Load(name)
	if !ok {
		return nil
	}
	return v.(*Capability)
}

// RegisterFastCopy marks a Go type (given by sample) as a fast-copy class:
// native LRMI copies it field-by-field without the byte-array intermediate.
// graph enables the cycle-tracking hash table, as in the paper.
func (k *Kernel) RegisterFastCopy(sample any, graph bool) {
	k.copyModes.Store(reflect.TypeOf(sample), copyModeFast(graph))
}

// RegisterSerializable marks a Go type as serializable under name: native
// LRMI copies it through package seri (the default, slower path).
//
//jk:wire-register 1
func (k *Kernel) RegisterSerializable(name string, sample any) {
	k.seriReg.Register(name, sample)
	k.copyModes.Store(reflect.TypeOf(sample), copyModeSeri)
}

// DomainByName returns the live domain with that name, or nil. A name is
// free again once its domain has terminated.
func (k *Kernel) DomainByName(name string) *Domain {
	v, _ := k.byName.Load(name)
	d, _ := v.(*Domain)
	return d
}

// TableSizes is a snapshot of the kernel's own tables, for leak checks
// (the kernel-side counterpart of remote.Conn.TableSizes): each returns to
// its baseline once what it indexes has ended.
type TableSizes struct {
	Domains  int // names held by domains not yet terminated
	Tasks    int // open tasks, the domains' idle ones included
	Segments int // segment handles minted for jk/lang/Thread objects
	Exports  int // names served to remote kernels
}

// TableSizes reports the kernel's current table occupancy.
func (k *Kernel) TableSizes() TableSizes {
	count := func(m *sync.Map) (n int) {
		m.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	return TableSizes{
		Domains:  count(&k.byName),
		Tasks:    count(&k.tasks),
		Segments: count(&k.segs),
		Exports:  count(&k.exports),
	}
}

// safepointHook is installed on every kernel-managed VM thread. The
// interpreter runs it only with the thread's attention word raised; it
// turns what the segment in control is owed into a throwable. A segment of
// a terminated domain is owed its end at every poll, and the chain asks
// the domain the segment names: there is no domain to look up here.
func (k *Kernel) safepointHook(t *vmkit.Thread) *vmkit.Object {
	task, _ := t.Data.(*Task)
	if task == nil {
		return nil
	}
	err := task.Chain.Poll()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrDomainTerminated):
		return k.VM.Throwf(classTerminatedEx, "%v", err)
	}
	return k.VM.Throwf(vmkit.ClassThreadDeath, "%v", err)
}

// Task binds one goroutine to one domain: it carries the VM thread and the
// segment chain for calls made from that goroutine. A Task is
// goroutine-affine — use it only from the goroutine that created it — and
// must be Closed to release registry entries, or, if it came from
// Domain.GetTask, handed back with Domain.PutTask.
type Task struct {
	K      *Kernel
	Domain *Domain
	Thread *vmkit.Thread
	Chain  *threads.Chain
	closed atomic.Bool
	// nextIdle links the task into its domain's idle list (Domain.mu).
	nextIdle *Task
	// registered marks tasks bound to a goroutine id in the global
	// registry (NewTask); detached tasks (NewDetachedTask) are not.
	registered bool
	// sampleTick drives untraced-call profiling (1 in 64, see
	// kernelMetrics.callStart). Plain field: a task is goroutine-affine,
	// so the tick needs no atomics.
	sampleTick uint64
	// edgeKey/edgeCtr cache the last call-graph edge counter this task
	// incremented (see kernelMetrics.edgeInc): tasks overwhelmingly call
	// along one edge, so the common case skips the shared edge map.
	edgeKey uint64
	edgeCtr *telemetry.Counter
	// stripe spreads this task's shared-counter increments across the
	// counters' padded stripes (telemetry.Counter.Cell): a pool of server
	// tasks otherwise bounces one cache line between every worker on every
	// call, which costs more than the counting itself.
	stripe uint64
}

// taskStripe hands each new task the next counter stripe round-robin.
var taskStripe atomic.Uint64

// NewTask enters domain d on the calling goroutine: ambient APIs
// (Capability.Invoke) find it through the thread-info lookup.
func (k *Kernel) NewTask(d *Domain, name string) *Task {
	task := k.newTask(d, name, threads.Register(d.ID))
	task.registered = true
	return task
}

// NewDetachedTask creates a task that is not bound to any goroutine:
// only explicit-task APIs (Task.CallStatic, Capability.InvokeFrom,
// Capability.InvokeVM) can use it, one caller at a time. Servers draw
// detached tasks from the domain's idle list instead (Domain.GetTask), so
// per-request task setup stays off the hot path.
func (k *Kernel) NewDetachedTask(d *Domain, name string) *Task {
	return k.newTask(d, name, threads.NewChain(d.ID))
}

func (k *Kernel) newTask(d *Domain, name string, chain *threads.Chain) *Task {
	th := k.VM.NewThread(name)
	th.Account = d.acct
	th.SafepointHook = k.safepointHook
	// One word for the interpreter's safepoint and the chain's Poll.
	chain.SetAttention(th.Attention())
	stripe := taskStripe.Add(1)
	// sampleTick starts at the stripe, not zero: tasks then sample in
	// staggered phases, so a workload of short-lived tasks still profiles
	// 1 in 64 calls in aggregate instead of never reaching its 64th tick.
	task := &Task{K: k, Domain: d, Thread: th, Chain: chain, stripe: stripe, sampleTick: stripe}
	th.Data = task
	// Registered before the base segment names d: Terminate either finds
	// the chain in its range or has published the end SetOwner loads.
	k.tasks.Store(chain, task)
	chain.Current().SetOwner(d)
	return task
}

// current returns the domain of the segment in control: the caller of
// whatever crossing comes next. Carrier-only.
func (t *Task) current() *Domain {
	d, _ := t.Chain.Current().Owner().(*Domain)
	return d
}

// dropHandle unregisters the handle minted on seg's current activation,
// if any. Carrier-only.
func (k *Kernel) dropHandle(seg *threads.Seg) {
	if seg.Minted() {
		k.segs.Delete(seg.ID)
	}
}

// Close detaches the task from the kernel and its goroutine.
func (t *Task) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	t.Thread.Publish()
	t.K.dropHandle(t.Chain.Current())
	t.K.tasks.Delete(t.Chain)
	if t.registered {
		threads.Unregister(t.Chain)
	}
	t.K.VM.Detach(t.Thread)
}

// CallStatic runs a static VM method of the task's domain.
func (t *Task) CallStatic(ref string, args ...vmkit.Value) (vmkit.Value, error) {
	return t.K.VM.CallStatic(t.Thread, t.Domain.NS, ref, args...)
}

// currentTask resolves the Task for the calling goroutine via the chain
// registry — the "thread info lookup" of Table 1 on the native path. Only
// a task NewTask entered counts: a served task that JoinTrace lent its
// chain to the goroutine leaves the goroutine not entered.
func (k *Kernel) currentTask() *Task {
	chain := threads.CurrentChain()
	if chain == nil {
		return nil
	}
	v, ok := k.tasks.Load(chain)
	if !ok || !v.(*Task).registered {
		return nil
	}
	return v.(*Task)
}

// taskForThread resolves the Task a VM thread carries: nil for a thread
// this kernel did not create or whose task is closed. It takes no lock and
// consults no table; Table 1's thread-info lookup (VM.LookupThread) is
// measured on its own.
func (k *Kernel) taskForThread(t *vmkit.Thread) *Task {
	task, _ := t.Data.(*Task)
	if task == nil || task.K != k || task.closed.Load() {
		return nil
	}
	return task
}

// accountStats re-exports the account snapshot type for Domain.Stats.
type accountStats = account.Stats

type copyMode int

const (
	copyModeDefault copyMode = iota // fastcopy without table
	copyModeFastTree
	copyModeFastGraph
	copyModeSeri
)

func copyModeFast(graph bool) copyMode {
	if graph {
		return copyModeFastGraph
	}
	return copyModeFastTree
}

// copyModeFor returns the mode registered for v's exact type: the type
// itself is the key, so two types that merely print alike (a/msg.Req and
// b/msg.Req, two function-local T) keep their own modes.
func (k *Kernel) copyModeFor(v any) copyMode {
	if m, ok := k.copyModes.Load(reflect.TypeOf(v)); ok {
		return m.(copyMode)
	}
	return copyModeDefault
}
