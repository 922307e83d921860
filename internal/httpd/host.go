package httpd

import (
	"fmt"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

// ServletHost is the part of servlet hosting that does not need a front
// server: the shared jk/servlet/Servlet interface and the machinery to
// instantiate uploaded VM bundles into fresh domains. The Bridge embeds
// one; worker kernels in a cluster use one directly so uploaded servlets
// can be placed on remote kernels (the remote-playground model).
type ServletHost struct {
	K         *core.Kernel
	www       *core.Domain // defines the shared servlet interface
	servletSC *core.SharedClass
}

// NewServletHost wires servlet hosting into kernel k: it registers the
// servlet wire/copy types, assembles the shared servlet interface, and
// shares it for uploaded domains to implement.
func NewServletHost(k *core.Kernel) (*ServletHost, error) {
	RegisterTypes(k)
	iface, err := vmkit.AssembleBytes(servletIfaceSrc)
	if err != nil {
		return nil, err
	}
	www, err := k.NewDomain(core.DomainConfig{
		Name:    "www-system",
		Classes: map[string][]byte{"jk/servlet/Servlet": iface},
	})
	if err != nil {
		return nil, err
	}
	sc, err := k.ShareClasses(www, "jk/servlet/Servlet")
	if err != nil {
		return nil, err
	}
	return &ServletHost{K: k, www: www, servletSC: sc}, nil
}

// InstantiateVM creates a fresh domain, loads the class bundle into it,
// and instantiates mainClass (which must implement jk/servlet/Servlet)
// behind a VM capability. The caller decides what to do with the pair —
// the Bridge mounts it, a cluster worker wraps it for the wire.
func (h *ServletHost) InstantiateVM(name, mainClass string, bundle map[string][]byte) (*core.Domain, *core.Capability, error) {
	d, err := h.K.NewDomain(core.DomainConfig{
		Name:    "servlet-" + name,
		Classes: bundle,
		Shared:  []*core.SharedClass{h.servletSC},
	})
	if err != nil {
		return nil, nil, err
	}
	cls, err := d.NS.Resolve(mainClass)
	if err != nil {
		d.Terminate("bad servlet class")
		return nil, nil, fmt.Errorf("httpd: servlet class: %w", err)
	}
	obj, ierr := d.NS.NewInstance(cls)
	if ierr != nil {
		d.Terminate("servlet instantiation failed")
		return nil, nil, ierr
	}
	cap, err := h.K.CreateVMCapability(d, obj)
	if err != nil {
		d.Terminate("servlet capability failed")
		return nil, nil, fmt.Errorf("httpd: servlet capability: %w", err)
	}
	return d, cap, nil
}

// ServletCapability exposes a native Go servlet through a capability owned
// by domain d, following the servlet invocation contract (a Service method
// taking *Request and returning *Response). The capability can be mounted
// locally or exported across the wire to a front kernel.
func ServletCapability(k *core.Kernel, d *core.Domain, s Servlet) (*core.Capability, error) {
	return k.CreateNativeCapability(d, &nativeServletAdapter{s: s})
}

// vmCapServlet adapts a VM servlet capability to the native Servlet
// interface: Service enters a host task and forwards through the VM
// calling convention (service(method, pathAndQuery, body) -> body). It is
// how a worker kernel serves an uploaded VM servlet to a remote front
// server, whose wire dispatch speaks the native contract.
type vmCapServlet struct {
	tasks *core.Domain
	cap   *core.Capability
}

// VMServlet wraps a VM servlet capability as a native Servlet. Tasks enter
// taskDomain (typically the deployer's own domain) for the duration of
// each request.
func VMServlet(taskDomain *core.Domain, cap *core.Capability) Servlet {
	return &vmCapServlet{tasks: taskDomain, cap: cap}
}

// Service forwards one request into the VM servlet domain.
func (v *vmCapServlet) Service(req *Request) (*Response, error) {
	task := v.tasks.GetTask()
	defer v.tasks.PutTask(task)
	uri := req.Path
	if req.Query != "" {
		uri += "?" + req.Query
	}
	out, err := v.cap.InvokeVM(task, "service", req.Method, uri, req.Body)
	if err != nil {
		return nil, err
	}
	data, _ := out.([]byte)
	return &Response{Status: 200, Body: data}, nil
}
