package sched

import (
	"fmt"
	"sync"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
)

// DeployerExport is the name under which cluster workers export their
// deployer capability; the scheduler imports it from every worker it
// manages.
const DeployerExport = "jk.sched.deployer"

// DeploySpec describes one servlet the control plane can instantiate on
// any worker: the portable unit of placement. It crosses the wire by
// copy, so everything in it is plain data.
type DeploySpec struct {
	// Name is the servlet's cluster-wide identity.
	Name string
	// Kind selects the implementation: "native" (a Go servlet registered
	// in the worker's factory map) or "vm" (an uploaded bytecode bundle).
	Kind string
	// Impl names the native factory, or the VM main class.
	Impl string
	// Bundle is the encoded class bundle (httpd.EncodeBundle) for "vm".
	Bundle []byte
	// Config, when set, is passed to the VM servlet's optional static
	// configure([B)V after instantiation.
	Config []byte
}

// RegisterWireTypes registers the control-plane types with a kernel so
// deploy requests can cross the wire. Both sides need it; ServeWorker and
// Start call it themselves.
func RegisterWireTypes(k *core.Kernel) {
	k.RegisterWireType("jk.sched.DeploySpec", DeploySpec{})
}

// deployed is one servlet instance living on this worker.
type deployed struct {
	domain *core.Domain
	cap    *core.Capability
}

// Deployer is the worker-side servlet factory the scheduler drives over
// the wire: Deploy instantiates a spec into a fresh protection domain and
// returns the servlet capability (which crosses back by reference, as a
// proxy); Undeploy terminates the domain. It is exported by ServeWorker.
type Deployer struct {
	k       *core.Kernel
	natives map[string]func() httpd.Servlet
	host    *httpd.ServletHost
	home    *core.Domain // owns native adapters and VM-forwarding tasks

	mu       sync.Mutex
	deployed map[string]*deployed
}

// ServeWorker installs the cluster control plane's worker half on kernel
// k: servlet wire types plus the Deployer, exported as DeployerExport.
// natives maps factory names ("echo", "capacity", ...) to constructors
// for Go servlets; VM bundles need no registration. Call it from the
// worker's Setup (see remote.MaybeRunWorker).
func ServeWorker(k *core.Kernel, natives map[string]func() httpd.Servlet) (*Deployer, error) {
	RegisterWireTypes(k)
	host, err := httpd.NewServletHost(k)
	if err != nil {
		return nil, err
	}
	home, err := k.NewDomain(core.DomainConfig{Name: "sched-deployer"})
	if err != nil {
		return nil, err
	}
	d := &Deployer{
		k:        k,
		natives:  natives,
		host:     host,
		home:     home,
		deployed: map[string]*deployed{},
	}
	cap, err := k.CreateNativeCapability(home, d)
	if err != nil {
		return nil, err
	}
	if err := k.Export(DeployerExport, cap); err != nil {
		return nil, err
	}
	return d, nil
}

// Deploy instantiates spec on this worker and returns its servlet
// capability. Deploying a name that is already live returns the existing
// capability (placement is idempotent; the scheduler retries).
func (d *Deployer) Deploy(spec *DeploySpec) (*core.Capability, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dep, ok := d.deployed[spec.Name]; ok {
		return dep.cap, nil
	}
	switch spec.Kind {
	case "native":
		ctor := d.natives[spec.Impl]
		if ctor == nil {
			return nil, fmt.Errorf("sched: no native servlet factory %q", spec.Impl)
		}
		dom, err := d.k.NewDomain(core.DomainConfig{Name: "servlet-" + spec.Name})
		if err != nil {
			return nil, err
		}
		cap, err := httpd.ServletCapability(d.k, dom, ctor())
		if err != nil {
			dom.Terminate("deploy failed")
			return nil, err
		}
		d.deployed[spec.Name] = &deployed{domain: dom, cap: cap}
		return cap, nil

	case "vm":
		bundle, err := httpd.DecodeBundle(spec.Bundle)
		if err != nil {
			return nil, fmt.Errorf("sched: bad bundle: %w", err)
		}
		dom, vmCap, err := d.host.InstantiateVM(spec.Name, spec.Impl, bundle)
		if err != nil {
			return nil, err
		}
		if len(spec.Config) > 0 {
			if err := httpd.Configure(d.k, dom, spec.Impl, spec.Config); err != nil {
				dom.Terminate("configure failed")
				return nil, err
			}
		}
		// The wire speaks the native servlet contract; wrap the VM
		// capability in a forwarding native servlet.
		cap, err := httpd.ServletCapability(d.k, dom, httpd.VMServlet(d.home, vmCap))
		if err != nil {
			dom.Terminate("deploy failed")
			return nil, err
		}
		d.deployed[spec.Name] = &deployed{domain: dom, cap: cap}
		return cap, nil

	default:
		return nil, fmt.Errorf("sched: unknown deploy kind %q", spec.Kind)
	}
}

// Undeploy terminates a deployed servlet's domain, revoking its
// capability everywhere (including the front kernel's proxy).
func (d *Deployer) Undeploy(name string) error {
	d.mu.Lock()
	dep := d.deployed[name]
	delete(d.deployed, name)
	d.mu.Unlock()
	if dep == nil {
		return nil // idempotent: a re-placed servlet may be undeployed late
	}
	dep.domain.Terminate("undeployed by control plane")
	return nil
}
