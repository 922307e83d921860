package httpd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/telemetry"
)

// servletIfaceSrc is the shared VM servlet interface — the contract every
// uploaded VM servlet implements. service(method, pathAndQuery, body)
// returns the response body; richer responses use the native API.
const servletIfaceSrc = `
.class jk/servlet/Servlet interface implements jk/kernel/Remote
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
.end
`

// Control is the hook a cluster control plane (internal/sched) installs
// on a bridge to own the lifecycle of its servlets. Every method may be
// called concurrently with request traffic.
type Control interface {
	// UploadServlet intercepts admin uploads: the control plane decides
	// which kernel instantiates the bundle and mounts the result itself.
	UploadServlet(name, prefix, main string, bundle map[string][]byte) error
	// TerminateServlet intercepts admin termination. handled=false falls
	// back to the bridge's local path.
	TerminateServlet(name string) (handled bool, err error)
	// ServletFault reports a remote mount the bridge just auto-unmounted
	// after a capability fault (revocation, worker crash, lost
	// connection) so the control plane can re-place it.
	ServletFault(name string, err error)
}

// Bridge is the ISAPI-extension analog: it lives in the front server's
// process, receives requests, and forwards them through LRMI to servlet
// domains. It also exposes the admin surface for uploading and terminating
// servlets.
type Bridge struct {
	K      *core.Kernel
	Router *Router

	// system hosts the bridge's own task contexts; its idle tasks make the
	// per-request cost the LRMI, not task setup ("the Java code runs in the
	// same thread as IIS uses to invoke the bridge" — and that thread
	// context is reused).
	system *core.Domain
	host   *ServletHost // shared servlet interface + VM instantiation

	// control, when installed, owns servlet placement (see Control).
	control atomic.Pointer[controlBox]
}

// controlBox wraps the Control interface for atomic.Pointer.
type controlBox struct{ c Control }

// NewBridge wires a bridge into kernel k.
func NewBridge(k *core.Kernel) (*Bridge, error) {
	system, err := k.NewDomain(core.DomainConfig{Name: "www-bridge"})
	if err != nil {
		return nil, err
	}
	host, err := NewServletHost(k)
	if err != nil {
		return nil, err
	}
	return &Bridge{
		K:      k,
		Router: &Router{reg: k.Telemetry()},
		system: system,
		host:   host,
	}, nil
}

// SetControl installs (or, with nil, removes) the cluster control plane.
func (b *Bridge) SetControl(c Control) {
	if c == nil {
		b.control.Store(nil)
		return
	}
	b.control.Store(&controlBox{c: c})
}

// controlPlane returns the installed Control, or nil.
func (b *Bridge) controlPlane() Control {
	if box := b.control.Load(); box != nil {
		return box.c
	}
	return nil
}

// Host returns the bridge's servlet host (VM instantiation machinery).
func (b *Bridge) Host() *ServletHost { return b.host }

// MountNative runs a Go servlet in its own domain and mounts it.
func (b *Bridge) MountNative(name, prefix string, s Servlet) (*core.Domain, error) {
	d, err := b.K.NewDomain(core.DomainConfig{Name: "servlet-" + name})
	if err != nil {
		return nil, err
	}
	cap, err := b.K.CreateNativeCapability(d, &nativeServletAdapter{s: s})
	if err != nil {
		return nil, err
	}
	if err := b.Router.Mount(name, prefix, cap, d, false); err != nil {
		return nil, err
	}
	return d, nil
}

// MountRemote mounts a servlet capability imported from a worker kernel
// (any capability whose Service method follows the native servlet
// contract): requests dispatch through the proxy's LRMI path and cross
// the wire to the worker process. The worker's kernel must also have the
// servlet types registered (RegisterTypes). A dead or revoked worker
// surfaces as 503, like a terminated local servlet. The route carries no
// domain: the proxy's owner is the connection's shared host domain, which
// must outlive this one servlet, so TerminateServlet revokes only the
// proxy.
func (b *Bridge) MountRemote(name, prefix string, cap *core.Capability) error {
	return b.Router.Mount(name, prefix, cap, nil, false)
}

// UploadVM creates a fresh domain, loads the uploaded class bundle into
// it, instantiates mainClass (which must implement jk/servlet/Servlet),
// and mounts it at prefix. This is the paper's servlet upload: arbitrary
// user bytecode, fully isolated.
func (b *Bridge) UploadVM(name, prefix, mainClass string, bundle map[string][]byte) (*core.Domain, error) {
	d, cap, err := b.host.InstantiateVM(name, mainClass, bundle)
	if err != nil {
		return nil, err
	}
	if err := b.Router.Mount(name, prefix, cap, d, true); err != nil {
		d.Terminate("mount failed")
		return nil, err
	}
	return d, nil
}

// TerminateServlet unmounts the servlet and terminates its domain. Clients
// in mid-call observe RevokedException; the server itself is unaffected —
// replacement without restarting the server, which Jigsaw could not do.
// Remote servlets (MountRemote) have no dedicated local domain; their
// proxy capability is revoked instead, leaving the worker connection and
// its other imports untouched.
func (b *Bridge) TerminateServlet(name string) error {
	if ctl := b.controlPlane(); ctl != nil {
		handled, err := ctl.TerminateServlet(name)
		if handled || err != nil {
			return err
		}
	}
	rt := b.Router.Unmount(name)
	if rt == nil {
		return fmt.Errorf("httpd: no servlet %q", name)
	}
	if rt.domain == nil {
		rt.cap.Revoke()
		return nil
	}
	rt.domain.Terminate("servlet terminated by admin")
	return nil
}

// ServeHTTP is the front-server hook (http.Handler). Admin endpoints live
// under /admin/; everything else routes to servlets.
func (b *Bridge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/admin/") {
		b.serveAdmin(w, r)
		return
	}
	rt := b.Router.enter(r.URL.Path)
	if rt == nil {
		http.NotFound(w, r)
		return
	}
	defer rt.leave()
	start := time.Now()
	status := b.dispatch(w, r, rt)

	// Per-servlet telemetry through the handles the route resolved when it
	// was mounted (inert when telemetry is disabled).
	rt.tm.observe(status, start)
}

// dispatch forwards one routed request through LRMI to rt's servlet and
// writes the reply. It returns the status written.
func (b *Bridge) dispatch(w http.ResponseWriter, r *http.Request, rt *route) int {
	body, status, err := readBody(r)
	if err != nil {
		http.Error(w, "read body: "+err.Error(), status)
		return status
	}

	// Enter the bridge domain for the duration of the request: the Java
	// code runs "in the same thread as IIS uses to invoke the bridge".
	task := b.system.GetTask()
	defer b.system.PutTask(task)

	if rt.isVM {
		// The request target as the client sent it; a request built by hand
		// (no server parsed it) or in absolute form has it derived.
		uri := r.RequestURI
		if uri == "" || uri[0] != '/' {
			uri = r.URL.RequestURI()
		}
		out, err := rt.cap.InvokeVM(task, "service", r.Method, uri, body)
		if err != nil {
			return servletError(w, err)
		}
		data, _ := out.([]byte)
		writeReply(w, r, nil, http.StatusOK, data)
		return http.StatusOK
	}

	req := &Request{
		Method:  r.Method,
		Path:    r.URL.Path,
		Query:   r.URL.RawQuery,
		Headers: flattenHeader(r.Header),
		Body:    body,
	}
	results, err := rt.cap.InvokeFrom(task, "Service", req)
	if err != nil {
		b.maybeUnmountFaulted(rt, err)
		return servletError(w, err)
	}
	resp, _ := results[0].(*Response)
	if resp == nil {
		http.Error(w, "servlet returned no response", http.StatusBadGateway)
		return http.StatusBadGateway
	}
	status = resp.Status
	if status == 0 {
		status = http.StatusOK
	}
	writeReply(w, r, resp.Headers, status, resp.Body)
	return status
}

// bufferBeforeChunking is how much of a reply net/http holds before it
// writes any (bufferBeforeChunkingSize in net/http/server.go). A body no
// longer than that is still whole in the buffer when the handler returns.
const bufferBeforeChunking = 2048

// writeReply writes status, the servlet's headers and body, framed by a
// Content-Length of the body's length. For a body it holds whole, net/http
// writes that header itself and allocates nothing for it, while a
// handler's call to w.Header() before WriteHeader makes it clone the whole
// header map. So writeReply calls w.Header() only when it must: to set the
// servlet's headers, where the body's length replaces any Content-Length
// among them; for a body longer than net/http buffers, which it would
// chunk; and for an empty reply to HEAD, which it leaves unframed.
func writeReply(w http.ResponseWriter, r *http.Request, headers map[string]string, status int, body []byte) {
	if len(headers) > 0 || len(body) > bufferBeforeChunking || len(body) == 0 && r.Method == http.MethodHead {
		h := w.Header()
		for k, v := range headers {
			h.Set(k, v)
		}
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	w.Write(body)
}

// maxBody bounds the request body the bridge hands to a servlet or decodes
// as an upload bundle.
const maxBody = 1 << 22

// bodyChunk is the most readBody allocates ahead of the bytes it has read.
const bodyChunk = 64 << 10

var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxBody)

// readBody returns r's body, nil without reading when the request has
// none. A body over maxBody — declared or, for a body of undeclared
// length, met while reading — is 413 rather than a truncated prefix the
// servlet would take for the whole; a body that ends early is 400. The
// status is meaningful only with an error.
func readBody(r *http.Request) (body []byte, status int, err error) {
	switch {
	case r.ContentLength == 0 || r.Body == nil || r.Body == http.NoBody:
		return nil, 0, nil
	case r.ContentLength > maxBody:
		return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
	case r.ContentLength > 0:
		// What has arrived pays for what is allocated: a client that
		// declares a large body and stalls pins one chunk, not the claim.
		n := int(r.ContentLength)
		body = make([]byte, min(n, bodyChunk))
		_, err = io.ReadFull(r.Body, body)
		for err == nil && len(body) < n {
			have := len(body)
			body = append(body, make([]byte, min(n-have, have))...)
			_, err = io.ReadFull(r.Body, body[have:])
		}
	default:
		// One byte past the limit tells a body at the limit from one over it.
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBody+1))
		if err == nil && len(body) > maxBody {
			return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
		}
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return body, 0, nil
}

// maybeUnmountFaulted observes a capability fault on a remote mount. A
// servlet whose backing capability was revoked, or whose worker
// connection dropped, would otherwise sit in the router returning errors
// forever. With a control plane installed, the route stays mounted — the
// fault is reported and the controller atomically swaps in a replacement
// (failover reads 503→200, never 404). Without one, the route is
// unmounted; only the exact faulted route is removed (a re-placement
// mounted concurrently under the same name survives). Local servlets are
// untouched: their termination is an administrative act, and the route is
// the only record of it.
func (b *Bridge) maybeUnmountFaulted(rt *route, err error) {
	if rt.domain != nil || rt.isVM || !errors.Is(err, core.ErrRevoked) {
		return
	}
	if ctl := b.controlPlane(); ctl != nil {
		ctl.ServletFault(rt.name, err)
		return
	}
	if !b.Router.unmountRoute(rt) {
		return // a concurrent request already unmounted it
	}
	if reg := b.K.Telemetry(); reg != nil {
		reg.Eventf("httpd: unmounted faulted remote servlet %q: %v", rt.name, err)
	}
}

// servletError maps kernel failures onto HTTP statuses: a dead or revoked
// servlet — local, or a remote worker that crashed — is a gateway
// failure, not a server crash; an exception a local VM servlet threw (a
// panic beneath it included) is the server's internal error. Returns the
// status it wrote.
func servletError(w http.ResponseWriter, err error) int {
	var thrown *core.ThrownVMError
	switch {
	case errors.Is(err, core.ErrRevoked) || errors.Is(err, core.ErrDomainTerminated):
		http.Error(w, "servlet unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return http.StatusServiceUnavailable
	case errors.As(err, &thrown):
		http.Error(w, "servlet failed: "+err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError
	default:
		http.Error(w, "servlet failed: "+err.Error(), http.StatusBadGateway)
		return http.StatusBadGateway
	}
}

// routeMetrics are one route's telemetry handles, resolved when the route
// is mounted so that a request that succeeds looks nothing up by name. The
// zero value (telemetry disabled) is inert.
type routeMetrics struct {
	reg      *telemetry.Registry
	prefix   string             // "httpd.req.<name>.status_"
	requests *telemetry.Counter // httpd.requests, shared by every route
	latency  *telemetry.Histogram
	ok       *telemetry.Counter // status_200; any other status is found by name
}

func (m *routeMetrics) init(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	m.reg = reg
	m.prefix = "httpd.req." + name + ".status_"
	m.requests = reg.Counter("httpd.requests")
	m.latency = reg.Histogram("httpd.req." + name + ".latency_ns")
	m.ok = reg.Counter(m.prefix + "200")
}

// observe records one routed request: total count, per-servlet latency,
// and a per-servlet, per-status counter.
func (m *routeMetrics) observe(status int, start time.Time) {
	if m.reg == nil {
		return
	}
	m.requests.Inc()
	m.latency.ObserveSince(start)
	if status == http.StatusOK {
		m.ok.Inc()
		return
	}
	m.reg.Counter(m.prefix + strconv.Itoa(status)).Inc()
}

// serveAdmin handles upload and termination.
//
//	POST   /admin/upload?name=N&prefix=/p&main=Class   body: class bundle
//	DELETE /admin/servlet?name=N
//	GET    /admin/servlets
func (b *Bridge) serveAdmin(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/admin/upload":
		q := r.URL.Query()
		name, prefix, main := q.Get("name"), q.Get("prefix"), q.Get("main")
		if name == "" || prefix == "" || main == "" {
			http.Error(w, "need name, prefix, main", http.StatusBadRequest)
			return
		}
		raw, status, err := readBody(r)
		if err != nil {
			http.Error(w, "read body: "+err.Error(), status)
			return
		}
		bundle, err := DecodeBundle(raw)
		if err != nil {
			http.Error(w, "bad bundle: "+err.Error(), http.StatusBadRequest)
			return
		}
		if ctl := b.controlPlane(); ctl != nil {
			if err := ctl.UploadServlet(name, prefix, main, bundle); err != nil {
				http.Error(w, "upload rejected: "+err.Error(), http.StatusUnprocessableEntity)
				return
			}
		} else if _, err := b.UploadVM(name, prefix, main, bundle); err != nil {
			http.Error(w, "upload rejected: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
		fmt.Fprintf(w, "servlet %s mounted at %s\n", name, prefix)

	case r.Method == http.MethodDelete && r.URL.Path == "/admin/servlet":
		name := r.URL.Query().Get("name")
		if err := b.TerminateServlet(name); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "servlet %s terminated\n", name)

	case r.Method == http.MethodGet && r.URL.Path == "/admin/servlets":
		for _, n := range b.Router.Names() {
			fmt.Fprintln(w, n)
		}

	default:
		http.NotFound(w, r)
	}
}

// flattenHeader keeps the first value of each header; nil when there is
// none (net/http has moved Host out of the map already).
func flattenHeader(h http.Header) map[string]string {
	if len(h) == 0 {
		return nil
	}
	out := make(map[string]string, len(h))
	for k, vs := range h {
		if len(vs) > 0 {
			out[k] = vs[0]
		}
	}
	return out
}

// EncodeBundle packs class files for upload: repeated
// [name-len][name][data-len][data], little-endian u32 lengths.
func EncodeBundle(bundle map[string][]byte) []byte {
	var out []byte
	u32 := func(n int) {
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
	}
	for name, data := range bundle {
		u32(len(name))
		out = append(out, name...)
		u32(len(data))
		out = append(out, data...)
	}
	return out
}

// DecodeBundle unpacks an uploaded class bundle.
func DecodeBundle(raw []byte) (map[string][]byte, error) {
	out := map[string][]byte{}
	for len(raw) > 0 {
		if len(raw) < 4 {
			return nil, fmt.Errorf("truncated bundle")
		}
		n := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		if uint32(len(raw)) < n {
			return nil, fmt.Errorf("truncated name")
		}
		name := string(raw[:n])
		raw = raw[n:]
		if len(raw) < 4 {
			return nil, fmt.Errorf("truncated bundle")
		}
		dn := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		if uint32(len(raw)) < dn {
			return nil, fmt.Errorf("truncated class data")
		}
		data := append([]byte(nil), raw[:dn]...)
		raw = raw[dn:]
		out[name] = data
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty bundle")
	}
	return out, nil
}
