// Package httpd implements the paper's §4: an extensible HTTP server built
// on the J-Kernel. An off-the-shelf front server (net/http, standing in
// for IIS) hosts a bridge (the ISAPI-extension analog) that forwards each
// request through LRMI to a user servlet running in its own protection
// domain. Servlets are uploaded dynamically as bytecode, each into a fresh
// domain, and can be terminated and hot-replaced without restarting the
// server — the failure-isolation and clean-termination properties the
// CS314 experience motivated.
//
// The package also provides the two baselines of Table 5: a plain static
// server ("IIS") and an all-interpreted server whose request path runs
// entirely in VM bytecode ("JWS", which ran without a JIT).
package httpd

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

// Request is the servlet-visible request. It crosses domains by copy.
type Request struct {
	Method  string
	Path    string
	Query   string
	Headers map[string]string
	Body    []byte
}

// Response is the servlet's reply. It crosses domains by copy.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// Servlet is the native (Go) servlet interface; VM servlets implement the
// shared jk/servlet/Servlet interface instead.
type Servlet interface {
	Service(req *Request) (*Response, error)
}

// nativeServletAdapter exposes a Servlet through a native capability (its
// exported method set defines the remote surface).
type nativeServletAdapter struct{ s Servlet }

// Service forwards to the wrapped servlet.
func (a *nativeServletAdapter) Service(req *Request) (*Response, error) {
	return a.s.Service(req)
}

// RegisterTypes registers the servlet API types with a kernel for
// fast-copy transfer — as trees: strings, a string map and a byte slice
// alias nothing, so the cycle table would only cost — and for wire
// transfer so servlet requests can also cross process boundaries through
// internal/remote. Call it in worker kernels that host remote servlets,
// too.
func RegisterTypes(k *core.Kernel) {
	k.RegisterFastCopy(&Request{}, false)
	k.RegisterFastCopy(&Response{}, false)
	k.RegisterWireType("jk.httpd.Request", Request{})
	k.RegisterWireType("jk.httpd.Response", Response{})
}

// route is one mounted servlet.
type route struct {
	name   string
	prefix string
	cap    *core.Capability
	domain *core.Domain
	isVM   bool
	tm     routeMetrics
	// inflight counts the requests that entered this route and have not
	// left it, on a remote-backed route only: a control plane that
	// replaced the route waits for it to reach zero before it tears down
	// the instance behind it.
	inflight atomic.Int64
}

// remote reports whether rt is backed by a remote capability, the only
// kind Remount replaces.
func (rt *route) remote() bool { return rt.domain == nil && !rt.isVM }

// leave ends a request that enter counted on rt.
func (rt *route) leave() {
	if rt.remote() {
		rt.inflight.Add(-1)
	}
}

// InFlight returns how many requests are in flight on rt. Once Remount
// has replaced rt, no request enters it, so the count only falls.
func (rt *route) InFlight() int64 { return rt.inflight.Load() }

func (r *Router) newRoute(name, prefix string, cap *core.Capability, d *core.Domain, isVM bool) *route {
	rt := &route{name: name, prefix: prefix, cap: cap, domain: d, isVM: isVM}
	rt.tm.init(r.reg, name)
	return rt
}

// Router maps URL prefixes to servlet capabilities, longest prefix first.
type Router struct {
	mu     sync.RWMutex
	routes []*route
	// reg is where routes resolve their telemetry handles (nil: none).
	reg *telemetry.Registry
}

// Mount binds a servlet capability to a URL prefix.
func (r *Router) Mount(name, prefix string, cap *core.Capability, d *core.Domain, isVM bool) error {
	if !strings.HasPrefix(prefix, "/") {
		return fmt.Errorf("httpd: prefix must start with /: %q", prefix)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rt := range r.routes {
		if rt.name == name {
			return fmt.Errorf("httpd: servlet %q already mounted", name)
		}
	}
	r.routes = append(r.routes, r.newRoute(name, prefix, cap, d, isVM))
	sort.SliceStable(r.routes, func(i, j int) bool {
		return len(r.routes[i].prefix) > len(r.routes[j].prefix)
	})
	return nil
}

// unmountRoute removes exactly rt (identity compare), reporting whether it
// was still mounted. Fault-driven unmounts use it so a re-placed servlet
// mounted under the same name is never removed by a stale fault.
func (r *Router) unmountRoute(rt *route) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, x := range r.routes {
		if x == rt {
			r.routes = append(r.routes[:i], r.routes[i+1:]...)
			return true
		}
	}
	return false
}

// Remount atomically replaces the route mounted as name with a fresh
// remote-backed one, or mounts it new, and returns the route it replaced
// (nil if none). Requests never observe a gap, which is what keeps
// control-plane failover 503→200 instead of 404.
func (r *Router) Remount(name, prefix string, cap *core.Capability) (*route, error) {
	if !strings.HasPrefix(prefix, "/") {
		return nil, fmt.Errorf("httpd: prefix must start with /: %q", prefix)
	}
	nrt := r.newRoute(name, prefix, cap, nil, false)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rt := range r.routes {
		if rt.name == name {
			if !rt.remote() {
				return nil, fmt.Errorf("httpd: servlet %q is locally hosted; unmount it first", name)
			}
			r.routes[i] = nrt
			sort.SliceStable(r.routes, func(i, j int) bool {
				return len(r.routes[i].prefix) > len(r.routes[j].prefix)
			})
			return rt, nil
		}
	}
	r.routes = append(r.routes, nrt)
	sort.SliceStable(r.routes, func(i, j int) bool {
		return len(r.routes[i].prefix) > len(r.routes[j].prefix)
	})
	return nil, nil
}

// Unmount removes a servlet by name and returns its route.
func (r *Router) Unmount(name string) *route {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rt := range r.routes {
		if rt.name == name {
			r.routes = append(r.routes[:i], r.routes[i+1:]...)
			return rt
		}
	}
	return nil
}

// enter finds the longest-prefix route for path and counts a request on
// it; the caller ends the request with leave. The count is taken under
// the read lock, so no request enters a route after Remount replaced it.
func (r *Router) enter(path string) *route {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rt := range r.routes {
		if strings.HasPrefix(path, rt.prefix) {
			if rt.remote() {
				rt.inflight.Add(1)
			}
			return rt
		}
	}
	return nil
}

// Names lists mounted servlet names.
func (r *Router) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.routes))
	for _, rt := range r.routes {
		out = append(out, rt.name)
	}
	sort.Strings(out)
	return out
}
