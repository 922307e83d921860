package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"jkernel/internal/account"
	"jkernel/internal/threads"
	"jkernel/internal/vmkit"
)

// DomainConfig describes a new protection domain.
type DomainConfig struct {
	// Name must be unique among the kernel's domains that have not
	// terminated.
	Name string
	// Classes maps class names to binary class files loadable on demand:
	// the domain's local classes. A name the bootstrap defines resolves to
	// the bootstrap's class, as in the JVM's parent-first delegation.
	Classes map[string][]byte
	// Shared lists shared-class groups visible to this domain (the
	// SharedClass capabilities it has been given).
	Shared []*SharedClass
	// Resolver, when set, is consulted after the system classes, Classes
	// and Shared — the user-defined tail of the paper's "class name
	// resolvers". Like every vmkit.ResolverFunc, it may load into another
	// domain's namespace, but not into one whose resolver loads back into
	// this domain's: the two loads would wait on each other.
	Resolver vmkit.ResolverFunc
	// Output receives the domain's System.println output.
	Output io.Writer
}

// Domain is one protection domain: a namespace, an account, the
// capabilities it created and not yet revoked, and its idle tasks. The
// thread segments running in it name it (threads.Owner); it keeps no list
// of them.
type Domain struct {
	K    *Kernel
	ID   int64
	Name string
	NS   *vmkit.Namespace
	// acct is the domain's account in K.Meter, resolved once: the gate
	// charges it directly.
	acct *account.Account

	// end is the domain's end: nil while it lives, set once by Terminate to
	// the cause every segment still running in it is stopped with.
	end atomic.Pointer[error]

	mu sync.Mutex
	// created holds the live gates the domain created: a gate leaves at its
	// revocation, and Terminate revokes what is left.
	created map[*Gate]struct{}
	// idle is the free list of detached tasks (GetTask / PutTask), linked
	// through Task.nextIdle. It grows to the most tasks in use at once.
	idle *Task
}

// NewDomain creates a protection domain. Its namespace sees: the
// interposed per-domain System and Thread classes, its local classes, the
// shared classes it was granted, the safe system classes, and finally any
// custom resolver. The name must not belong to a domain that has not
// terminated.
func (k *Kernel) NewDomain(cfg DomainConfig) (*Domain, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("jkernel: domain needs a name")
	}
	// Claim the name before anything else: of two concurrent NewDomain calls
	// for one name exactly one gets past here, and DomainByName sees nothing
	// until the domain is complete.
	if _, taken := k.byName.LoadOrStore(cfg.Name, (*Domain)(nil)); taken {
		return nil, fmt.Errorf("jkernel: domain %q already exists", cfg.Name)
	}
	d, err := k.newDomain(cfg)
	if err != nil {
		k.byName.CompareAndDelete(cfg.Name, (*Domain)(nil))
		return nil, err
	}
	// Gauges before the name is published: a Terminate, which drops them,
	// can only follow.
	k.tm.domainGauges(d)
	k.byName.Store(cfg.Name, d)
	return d, nil
}

// newDomain sets up a domain whose name NewDomain has claimed.
func (k *Kernel) newDomain(cfg DomainConfig) (*Domain, error) {
	d := &Domain{
		K:    k,
		ID:   k.nextDom.Add(1),
		Name: cfg.Name,
	}
	d.acct = k.Meter.Account(d.ID)

	shared := map[string]*vmkit.Class{}
	for _, sc := range cfg.Shared {
		for _, c := range sc.Classes() {
			if prev, dup := shared[c.Name]; dup && prev != c {
				return nil, fmt.Errorf("jkernel: conflicting shared classes named %s", c.Name)
			}
			shared[c.Name] = c
		}
	}

	boot := k.VM.BootResolver()
	resolver := func(name string) (*vmkit.Resolution, error) {
		// Interposed classes never resolve through sharing or bootstrap:
		// each domain gets its own copy, defined eagerly below.
		src := vmkit.InterposedClassSource(name)
		if name == classThread {
			src = threadClassSource
		}
		if src != "" {
			b, err := vmkit.AssembleBytes(src)
			if err != nil {
				return nil, err
			}
			return &vmkit.Resolution{Bytes: b}, nil
		}
		if res, err := boot(name); res != nil || err != nil {
			return res, err
		}
		if b, ok := cfg.Classes[name]; ok {
			return &vmkit.Resolution{Bytes: b}, nil
		}
		if c, ok := shared[name]; ok {
			return &vmkit.Resolution{Shared: c}, nil
		}
		if cfg.Resolver != nil {
			return cfg.Resolver(name)
		}
		return nil, nil
	}

	ns := k.VM.NewNamespace(cfg.Name, resolver)
	ns.Account = d.acct
	ns.Output = cfg.Output
	d.NS = ns

	// Define the interposed classes eagerly so the domain starts complete.
	for _, name := range []string{vmkit.ClassSystem, classThread} {
		if _, err := ns.Resolve(name); err != nil {
			return nil, fmt.Errorf("jkernel: interposing %s: %w", name, err)
		}
	}

	return d, nil
}

// Terminated reports whether the domain has been terminated.
func (d *Domain) Terminated() bool { return d.end.Load() != nil }

// Ended implements threads.Owner.
func (d *Domain) Ended() error {
	if end := d.end.Load(); end != nil {
		return *end
	}
	return nil
}

// Terminate ends the domain: every capability it created is revoked (so
// its memory may be freed and failures propagate to clients as
// RevokedException), its running segments are stopped, new LRMI in or out
// is refused, and its account freezes. This is the paper's "clean
// semantics of domain termination". Then the kernel lets go of it: its
// idle tasks close, its gauges give way to one post-mortem line in the
// event log, and its name is free for a new domain.
func (d *Domain) Terminate(reason string) {
	cause := fmt.Errorf("%w: %s", ErrDomainTerminated, reason)
	if !d.end.CompareAndSwap(nil, &cause) {
		return
	}
	// Published; now every carrier is told to look, since segments name
	// their domain and not the other way round. A carrier that enters once
	// this loop has passed its chain loads the end itself (Task.enter).
	d.K.tasks.Range(func(chain, _ any) bool {
		chain.(*threads.Chain).Kick()
		return true
	})

	// Past the end, addGate and PutTask add nothing: what is here now is
	// all there will be.
	d.mu.Lock()
	gates, idle := d.created, d.idle
	d.created, d.idle = nil, nil
	d.mu.Unlock()
	for g := range gates {
		g.revoke()
	}
	d.acct.Freeze()
	for t := idle; t != nil; t = t.nextIdle {
		t.Close()
	}
	// The frozen account goes to the event log as the post-mortem with the
	// gauges dropped, and only then is the name free: a NewDomain that takes
	// it registers its gauges after these are gone.
	d.K.tm.domainEnd(d, cause)
	d.K.byName.CompareAndDelete(d.Name, d)
}

// addGate records a gate created by this domain, to be revoked at its
// termination. A domain that has terminated takes no new gate.
func (d *Domain) addGate(g *Gate) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Terminated() {
		return ErrDomainTerminated
	}
	if d.created == nil {
		d.created = make(map[*Gate]struct{})
	}
	d.created[g] = struct{}{}
	return nil
}

// dropGate forgets a revoked gate.
func (d *Domain) dropGate(g *Gate) {
	d.mu.Lock()
	delete(d.created, g)
	d.mu.Unlock()
}

// GetTask returns a detached task of d's (see Kernel.NewDetachedTask): an
// idle one if d has one, a new one otherwise. Hand it back with PutTask.
// Getting and returning a task allocates nothing once d has as many as it
// runs at once.
func (d *Domain) GetTask() *Task {
	d.mu.Lock()
	t := d.idle
	if t != nil {
		d.idle, t.nextIdle = t.nextIdle, nil
	}
	d.mu.Unlock()
	if t == nil {
		t = d.K.NewDetachedTask(d, d.Name)
	}
	return t
}

// PutTask returns a task GetTask handed out, to run d's next call. The
// task must be back at its base segment with no trace context of its own.
// A task returned after d terminated is closed instead.
func (d *Domain) PutTask(t *Task) {
	t.Thread.Publish()
	d.mu.Lock()
	if !d.Terminated() {
		t.nextIdle, d.idle = d.idle, t
		t = nil
	}
	d.mu.Unlock()
	if t != nil {
		t.Close()
	}
}

// DefineClass loads bytecode into the domain's namespace directly (the
// dynamic-upload path: servers feed uploaded servlet bytecode here).
func (d *Domain) DefineClass(data []byte) (*vmkit.Class, error) {
	if d.Terminated() {
		return nil, ErrDomainTerminated
	}
	return d.NS.DefineClass(data)
}

// NewInstance allocates a zeroed instance of a domain class, which the
// domain owns and pays for, resolving the class through its namespace.
func (d *Domain) NewInstance(className string) (*vmkit.Object, error) {
	if d.Terminated() {
		return nil, ErrDomainTerminated
	}
	cls, err := d.NS.Resolve(className)
	if err != nil {
		return nil, err
	}
	return d.NS.NewInstance(cls)
}

// SetIntField stores an integer into a named instance field (a Go-side
// convenience for initializing VM capability targets).
func (d *Domain) SetIntField(obj *vmkit.Object, field string, v int64) error {
	f := obj.Class.FieldByName(field)
	if f == nil || f.Static {
		return fmt.Errorf("jkernel: no instance field %s in %s", field, obj.Class.Name)
	}
	obj.Fields[f.Slot] = vmkit.IntVal(v)
	return nil
}

// SetBytesField stores a fresh byte array into a named instance field.
func (d *Domain) SetBytesField(obj *vmkit.Object, field string, data []byte) error {
	f := obj.Class.FieldByName(field)
	if f == nil || f.Static {
		return fmt.Errorf("jkernel: no instance field %s in %s", field, obj.Class.Name)
	}
	arr, err := d.NS.NewArray("[B", len(data))
	if err != nil {
		return err
	}
	copy(arr.Bytes, data)
	obj.Fields[f.Slot] = vmkit.RefVal(arr)
	return nil
}

// SetStringField stores a String into a named instance field.
func (d *Domain) SetStringField(obj *vmkit.Object, field string, s string) error {
	f := obj.Class.FieldByName(field)
	if f == nil || f.Static {
		return fmt.Errorf("jkernel: no instance field %s in %s", field, obj.Class.Name)
	}
	str, err := d.NS.NewString(s)
	if err != nil {
		return err
	}
	obj.Fields[f.Slot] = vmkit.RefVal(str)
	return nil
}

// Stats returns the domain's resource account snapshot.
func (d *Domain) Stats() accountStats { return d.acct.Snapshot() }

func (d *Domain) String() string { return fmt.Sprintf("domain[%d %s]", d.ID, d.Name) }

// threadClassSource is interposed per domain: each domain namespace
// defines its own jk/lang/Thread, whose natives therefore run with that
// namespace as env.NS. Its operations act on a segment of the calling
// thread, never on the carrier, which is how the J-Kernel keeps callers
// and callees from attacking each other's threads. A Thread object holds a
// segment id; since non-capability objects cannot cross domains, a domain
// can only ever hold Thread objects denoting its own segments.
const threadClassSource = `.class jk/lang/Thread
.field private id I
.method static native currentThread ()Ljk/lang/Thread;
.end
.method native stop ()V
.end
.method native suspend ()V
.end
.method native resume ()V
.end
.method native setPriority (I)V
.end
.method native getPriority ()I
.end
.method native yield ()V
.end
`

// segmentOf resolves a Thread object to the segment activation it names.
func (k *Kernel) segmentOf(env *vmkit.Env, threadObj *vmkit.Object) (threads.Handle, *vmkit.Object) {
	f := threadObj.Class.FieldByName("id")
	if f == nil {
		return threads.Handle{}, env.VM.Throwf(vmkit.ClassIllegalStateEx, "not a thread object")
	}
	id := threadObj.Fields[f.Slot].I
	v, ok := k.segs.Load(id)
	if !ok {
		return threads.Handle{}, segmentGone(env, id)
	}
	h := v.(threads.Handle)
	if h.Domain != env.NS.Account.Domain() {
		// Unreachable if the copy rules hold; defense in depth.
		return threads.Handle{}, env.VM.Throwf(vmkit.ClassIllegalStateEx, "segment belongs to another domain")
	}
	return h, nil
}

// segmentGone is what a Thread object gets once its segment has returned:
// the registry entry is dropped at the pop, and a handle that raced the
// pop reports the same from the segment itself.
func segmentGone(env *vmkit.Env, id int64) *vmkit.Object {
	return env.VM.Throwf(vmkit.ClassIllegalStateEx, "segment %d is gone", id)
}

// registerThreadNatives binds the natives of every domain's jk/lang/Thread.
func (k *Kernel) registerThreadNatives() {
	vm := k.VM
	// onSegment runs op on the activation the Thread object recv names.
	onSegment := func(env *vmkit.Env, recv *vmkit.Object, op func(threads.Handle) bool) *vmkit.Object {
		h, th := k.segmentOf(env, recv)
		if th == nil && !op(h) {
			th = segmentGone(env, h.ID())
		}
		return th
	}

	// currentThread mints the Thread object for the running segment. This
	// is the one place a segment enters the kernel-wide handle registry: a
	// crossing whose callee never asks for its Thread pays nothing for it.
	vm.RegisterNative("jk/lang/Thread.currentThread:()Ljk/lang/Thread;",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			task, _ := env.Thread.Data.(*Task)
			if task == nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "thread has no segment chain")
			}
			seg := task.Chain.Current()
			tc, err := env.NS.Resolve(classThread)
			if err != nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassError, "%v", err)
			}
			o, ierr := env.NS.NewInstance(tc)
			if ierr != nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassError, "%v", ierr)
			}
			if !seg.Minted() {
				h := seg.Handle()
				k.segs.Store(h.ID(), h)
			}
			o.Fields[tc.FieldByName("id").Slot] = vmkit.IntVal(seg.ID)
			return vmkit.RefVal(o), nil
		})
	vm.RegisterNative("jk/lang/Thread.stop:()V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			return vmkit.Value{}, onSegment(env, recv, func(h threads.Handle) bool { return h.Stop("Thread.stop") })
		})
	vm.RegisterNative("jk/lang/Thread.suspend:()V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			return vmkit.Value{}, onSegment(env, recv, threads.Handle.Suspend)
		})
	vm.RegisterNative("jk/lang/Thread.resume:()V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			return vmkit.Value{}, onSegment(env, recv, threads.Handle.Resume)
		})
	vm.RegisterNative("jk/lang/Thread.setPriority:(I)V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			p := args[0].I
			return vmkit.Value{}, onSegment(env, recv, func(h threads.Handle) bool { return h.SetPriority(p) })
		})
	vm.RegisterNative("jk/lang/Thread.getPriority:()I",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			var p int64
			th := onSegment(env, recv, func(h threads.Handle) (ok bool) {
				p, ok = h.Priority()
				return ok
			})
			if th != nil {
				return vmkit.Value{}, th
			}
			return vmkit.IntVal(p), nil
		})
	vm.RegisterNative("jk/lang/Thread.yield:()V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			runtime.Gosched()
			return vmkit.Value{}, nil
		})
}
