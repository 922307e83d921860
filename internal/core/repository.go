package core

import (
	"fmt"
	"sort"
	"sync"

	"jkernel/internal/vmkit"
)

// Repository is the system-wide name service through which domains publish
// capabilities (§3: "the repository is a service allowing domains to
// publish capabilities under a name").
type Repository struct {
	mu sync.RWMutex
	m  map[string]*Capability
}

func newRepository() *Repository {
	return &Repository{m: make(map[string]*Capability)}
}

// Bind publishes c under name; it fails if the name is taken.
func (r *Repository) Bind(name string, c *Capability) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.m[name]; exists {
		return fmt.Errorf("jkernel: repository name %q already bound", name)
	}
	r.m[name] = c
	return nil
}

// Rebind publishes c under name, replacing any existing binding.
func (r *Repository) Rebind(name string, c *Capability) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = c
}

// Lookup returns the capability bound to name, or nil.
func (r *Repository) Lookup(name string) *Capability {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[name]
}

// Unbind removes a binding.
func (r *Repository) Unbind(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, name)
}

// Names returns the bound names, sorted.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// The J-Kernel's own VM classes. The kernel defines them into the
// bootstrap namespace, so every domain shares them; a bare vmkit VM has
// none of them.
const (
	classCapability   = "jk/kernel/Capability"
	classRevokedEx    = "jk/kernel/RevokedException"
	classRemoteEx     = "jk/kernel/RemoteException"
	classTerminatedEx = "jk/kernel/DomainTerminatedException"
	// ifaceRemote marks the interfaces a capability exports, mirroring
	// java.rmi.Remote.
	ifaceRemote = "jk/kernel/Remote"
	// classThread is not shared: each domain defines its own
	// (threadClassSource).
	classThread = "jk/lang/Thread"
)

// kernelClassSources are VM-visible kernel services, defined into the
// bootstrap namespace once the kernel's natives are registered.
var kernelClassSources = []string{
	// Generated stub classes extend Capability. A stub holds no state: its
	// gate is on its class (Class.Gate), out of bytecode's reach, so a user
	// class extending Capability is an ordinary object.
	`.class jk/kernel/Capability abstract
.method native revoke ()V
.end
.method native isRevoked ()I
.end
`,
	// Shared so that a RevokedException thrown in a callee is catchable by
	// the caller even though the two share nothing else.
	".class jk/kernel/RevokedException super jk/lang/RuntimeException\n",
	".class jk/kernel/RemoteException super jk/lang/Exception\n",
	".class jk/kernel/DomainTerminatedException super jk/kernel/RemoteException\n",
	".class jk/kernel/Remote interface\n",
	`.class jk/kernel/Repository
.method static native bind (Ljk/lang/String;Ljk/kernel/Capability;)V
.end
.method static native lookup (Ljk/lang/String;)Ljk/kernel/Capability;
.end
.method static native unbind (Ljk/lang/String;)V
.end
`,
	`.class jk/kernel/Domain
.method static native createCapability (Ljk/lang/Object;)Ljk/kernel/Capability;
.end
.method static native currentName ()Ljk/lang/String;
.end
`,
}

// defineKernelClasses registers the kernel natives and defines the
// VM-visible kernel classes.
func (k *Kernel) defineKernelClasses() error {
	vm := k.VM

	// Only code running in the creating domain may revoke ("revoked at any
	// time by the domain that created it").
	vm.RegisterNative("jk/kernel/Capability.revoke:()V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			g, th := k.gateOfStub(recv)
			if th != nil {
				return vmkit.Value{}, th
			}
			if cur := k.currentDomainOfThread(env.Thread); cur != g.owner {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx,
					"only the creating domain may revoke (caller=%v owner=%v)", cur, g.owner)
			}
			g.revoke()
			return vmkit.Value{}, nil
		})

	vm.RegisterNative("jk/kernel/Capability.isRevoked:()I",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			g, th := k.gateOfStub(recv)
			if th != nil {
				return vmkit.Value{}, th
			}
			if g.Revoked() {
				return vmkit.IntVal(1), nil
			}
			return vmkit.IntVal(0), nil
		})

	k.registerThreadNatives()

	vm.RegisterNative("jk/kernel/Repository.bind:(Ljk/lang/String;Ljk/kernel/Capability;)V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			name := vmkit.StringText(args[0].R)
			if name == "" {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "empty repository name")
			}
			stub := args[1].R
			if stub == nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassNullPointerEx, "bind(null)")
			}
			g, th := k.gateOfStub(stub)
			if th != nil {
				return vmkit.Value{}, th
			}
			if err := k.repo.Bind(name, &Capability{g: g, Stub: stub}); err != nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "%v", err)
			}
			return vmkit.Value{}, nil
		})

	vm.RegisterNative("jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			name := vmkit.StringText(args[0].R)
			c := k.repo.Lookup(name)
			if c == nil {
				return vmkit.Null(), nil
			}
			if c.Stub == nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx,
					"capability %q has no VM stub (native-only capability)", name)
			}
			return vmkit.RefVal(c.Stub), nil
		})

	vm.RegisterNative("jk/kernel/Repository.unbind:(Ljk/lang/String;)V",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			k.repo.Unbind(vmkit.StringText(args[0].R))
			return vmkit.Value{}, nil
		})

	vm.RegisterNative("jk/kernel/Domain.createCapability:(Ljk/lang/Object;)Ljk/kernel/Capability;",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			d := k.currentDomainOfThread(env.Thread)
			if d == nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "no current domain")
			}
			c, err := k.CreateVMCapability(d, args[0].R)
			if err != nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "%v", err)
			}
			return vmkit.RefVal(c.Stub), nil
		})

	vm.RegisterNative("jk/kernel/Domain.currentName:()Ljk/lang/String;",
		func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			d := k.currentDomainOfThread(env.Thread)
			if d == nil {
				return vmkit.Value{}, vm.Throwf(vmkit.ClassIllegalStateEx, "no current domain")
			}
			return env.NewString(d.Name)
		})

	for _, src := range kernelClassSources {
		def, err := vmkit.Assemble(src)
		if err != nil {
			return fmt.Errorf("jkernel: assembling kernel class: %w", err)
		}
		def.Flags |= vmkit.FlagSystem
		if _, err := vm.Bootstrap().DefineDef(def); err != nil {
			return fmt.Errorf("jkernel: defining %s: %w", def.Name, err)
		}
	}
	return nil
}
