package vmkit

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Profile selects a VM cost structure. The zero Profile is the product
// VM, with nothing modelled: invokevirtual and invokeinterface index the
// receiver class's vtable slots and itables, which linking fills, and
// locks are light. The paper measured two commercial JVMs whose overheads
// decomposed differently (Table 1): MS-VM had expensive interface dispatch
// and cheap locks, Sun-VM the reverse. ProfileA and ProfileB reproduce
// those shapes on one interpreter, for the tables that measure them.
type Profile struct {
	// LinearIfaceDispatch makes invokeinterface scan the receiver class's
	// flattened method list on every call instead of using its itable.
	LinearIfaceDispatch bool
	// HeavyLocks adds ownership bookkeeping and contention statistics to
	// every monitor operation.
	HeavyLocks bool
}

// ProfileA models the MS-VM cost shape: slow interface dispatch, cheap
// locks.
var ProfileA = Profile{LinearIfaceDispatch: true}

// ProfileB models the Sun-VM cost shape: fast interface dispatch, heavy
// locks.
var ProfileB = Profile{HeavyLocks: true}

// VM is one virtual machine instance: bootstrap classes, native methods,
// threads, and a cost profile. The J-Kernel's Kernel wraps exactly one VM,
// mirroring "multiple protection domains within a single JVM".
type VM struct {
	Profile Profile

	// Stdout receives output from the per-domain System.println native when
	// the namespace has no domain-specific writer bound.
	Stdout io.Writer

	nativesMu sync.RWMutex
	natives   map[string]NativeFunc

	boot *Namespace

	threadsMu  sync.RWMutex
	threads    map[int64]*Thread
	nextThread atomic.Int64

	lockStatsMu sync.Mutex
	lockStats   map[*Object]int64
	// lockProxy stands in for non-monitor lock pairs (segment switches)
	// under the HeavyLocks profile.
	lockProxy Object

	// ifaceRegMu serializes ProfileA's interface dispatch, which performs
	// an uncached search of the receiver's method list under a VM-global
	// lock on every invokeinterface — the cost structure Table 1 measured
	// on MS-VM, where interface calls went through a shared, synchronized
	// interface-method table instead of per-class itables.
	ifaceRegMu sync.Mutex
	// ifaceKey is the scratch buffer the dispatch key is built into.
	ifaceKey []byte
}

// ifaceDispatchSlow resolves an interface method the ProfileA way. Three
// parts of it are modelled cost — together they are Table 1's interface
// row — and must not be "optimised" away: the VM-global lock, the
// composite key built on every call, and the full scan of the receiver's
// method list with no cache and no early exit. Only where the key's bytes
// live is an implementation detail: a scratch buffer held under the lock,
// not a fresh string per call.
func (vm *VM) ifaceDispatchSlow(recv *Class, name, desc string) *Method {
	vm.ifaceRegMu.Lock()
	defer vm.ifaceRegMu.Unlock()
	key := append(vm.ifaceKey[:0], recv.Name...)
	key = append(key, '|')
	key = append(key, name...)
	key = append(key, ':')
	vm.ifaceKey = append(key, desc...)
	var found *Method
	for _, cand := range recv.methods {
		if cand.Name == name && cand.Desc == desc {
			found = cand
		}
	}
	return found
}

// New creates a VM with the given profile and defines the bootstrap
// classes.
func New(p Profile) (*VM, error) {
	vm := &VM{
		Profile:   p,
		natives:   make(map[string]NativeFunc),
		threads:   make(map[int64]*Thread),
		lockStats: make(map[*Object]int64),
		Stdout:    io.Discard,
	}
	registerBuiltinNatives(vm)
	boot := vm.NewNamespace("bootstrap", nil)
	vm.boot = boot
	if err := defineBootstrap(boot); err != nil {
		return nil, fmt.Errorf("vmkit: bootstrap: %w", err)
	}
	return vm, nil
}

// MustNew is New that panics on error (bootstrap classes are compiled in,
// so failure is a programming error).
func MustNew(p Profile) *VM {
	vm, err := New(p)
	if err != nil {
		panic(err)
	}
	return vm
}

// Bootstrap returns the namespace holding the system classes.
func (vm *VM) Bootstrap() *Namespace { return vm.boot }

// BootResolver returns a resolver that shares the VM's bootstrap classes.
// Domain resolvers typically chain to it for system names (minus the
// interposed ones) and add their own local classes.
func (vm *VM) BootResolver() ResolverFunc {
	return func(name string) (*Resolution, error) {
		if c := vm.boot.Lookup(name); c != nil {
			return &Resolution{Shared: c}, nil
		}
		return nil, nil
	}
}

// MapResolver resolves from a map of class bytes, falling back to next.
func MapResolver(classes map[string][]byte, next ResolverFunc) ResolverFunc {
	return func(name string) (*Resolution, error) {
		if b, ok := classes[name]; ok {
			return &Resolution{Bytes: b}, nil
		}
		if next != nil {
			return next(name)
		}
		return nil, nil
	}
}

// SystemClass returns a bootstrap class by name, or nil.
func (vm *VM) SystemClass(name string) *Class { return vm.boot.Lookup(name) }

// RegisterNative binds a Go function to "Class.method:(desc)ret". It must
// be called before any class declaring that native method links.
func (vm *VM) RegisterNative(key string, fn NativeFunc) {
	vm.nativesMu.Lock()
	defer vm.nativesMu.Unlock()
	vm.natives[key] = fn
}

// NativeCount reports how many natives the VM's table binds.
func (vm *VM) NativeCount() int {
	vm.nativesMu.RLock()
	defer vm.nativesMu.RUnlock()
	return len(vm.natives)
}

func (vm *VM) nativeFor(key string) NativeFunc {
	vm.nativesMu.RLock()
	defer vm.nativesMu.RUnlock()
	return vm.natives[key]
}

// StubGate is what the kernel hands DefineGateClass: the gate of a
// capability stub class, which supplies the function of each native method
// the class declares (nil if it has none for m). Nothing goes into the VM's
// native table, so a stub class's natives live as long as the class.
type StubGate interface {
	Native(m *MethodDef) NativeFunc
}

// NativeFunc implements a native method. recv is nil for static methods.
// A non-nil second result is a thrown VM throwable that unwinds the caller.
type NativeFunc func(env *Env, recv *Object, args []Value) (Value, *Object)

// Env is the context handed to native methods.
type Env struct {
	VM     *VM
	NS     *Namespace // namespace of the declaring class
	Thread *Thread
}

// NewString allocates a String holding text for the domain the thread
// runs in, which owns it and pays for it (Thread.Account). A failure is a
// thrown jk/lang/Error.
func (env *Env) NewString(text string) (Value, *Object) {
	sc, err := env.NS.Resolve(ClassString)
	if err != nil {
		return Value{}, env.VM.Throwf(ClassError, "string alloc: %v", err)
	}
	return RefVal(newString(sc, text, env.Thread.Account)), nil
}

// Throwf builds a VM throwable of the given class with a formatted message.
// The class is resolved in the bootstrap namespace; every namespace shares
// the bootstrap throwable hierarchy.
func (vm *VM) Throwf(class, format string, args ...any) *Object {
	c := vm.boot.Lookup(class)
	if c == nil {
		// Fall back to the root error type; never returns nil.
		c = vm.boot.Lookup(ClassError)
		if c == nil {
			panic("vmkit: bootstrap throwables missing")
		}
	}
	// No domain pays for a throwable the VM raises, nor owns it.
	o := newInstance(c, nil)
	if f := c.FieldByName("message"); f != nil {
		if sc, err := vm.boot.Resolve(ClassString); err == nil {
			o.Fields[f.Slot] = RefVal(newString(sc, fmt.Sprintf(format, args...), nil))
		}
	}
	return o
}

// ThrowableMessage extracts the message string of a throwable ("" if none).
func ThrowableMessage(t *Object) string {
	if t == nil || t.Class == nil {
		return ""
	}
	f := t.Class.FieldByName("message")
	if f == nil {
		return ""
	}
	return StringText(t.Fields[f.Slot].R)
}

// ThrownError adapts a VM throwable into a Go error for API boundaries.
type ThrownError struct {
	Throwable *Object
}

func (e *ThrownError) Error() string {
	if e.Throwable == nil {
		return "vm: unknown throwable"
	}
	msg := ThrowableMessage(e.Throwable)
	if msg == "" {
		return fmt.Sprintf("vm: %s", e.Throwable.Class.Name)
	}
	return fmt.Sprintf("vm: %s: %s", e.Throwable.Class.Name, msg)
}

// lockStatRecord implements the HeavyLocks profile bookkeeping: a real
// shared-table update per monitor operation, like the lock inflation and
// contention tracking in heavyweight JVM monitors.
func (vm *VM) lockStatRecord(o *Object) {
	vm.lockStatsMu.Lock()
	vm.lockStats[o]++
	if len(vm.lockStats) > 1<<12 {
		clear(vm.lockStats)
	}
	vm.lockStatsMu.Unlock()
}

// RecordHeavyLock lets other layers (the LRMI segment switch) charge the
// HeavyLocks profile's synchronization bookkeeping to their own lock
// pairs: on Sun-VM the two lock acquire/release pairs per cross-domain
// call were a dominant cost (Table 1). No-op on light-lock profiles.
func (vm *VM) RecordHeavyLock(o *Object) {
	if !vm.Profile.HeavyLocks {
		return
	}
	if o == nil {
		o = &vm.lockProxy
	}
	vm.lockStatRecord(o)
}
