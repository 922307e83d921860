// Package jkernel is a Go implementation of the J-Kernel, the
// capability-based protection system of Hawblitzel, Chang, Czajkowski, Hu,
// and von Eicken, "Implementing Multiple Protection Domains in Java"
// (USENIX Annual Technical Conference, 1998).
//
// A Kernel hosts multiple protection domains inside one process (the
// paper's "single JVM"). Protection is language-based: domains own
// separate class namespaces on a built-in typed VM (see the vm
// subdirectory facade), communicate only through revocable capabilities,
// and cross-domain calls copy every non-capability argument. The package
// also exposes the native path, where domains host plain Go objects behind
// the same capability discipline.
//
// Quick start:
//
//	k := jkernel.New(jkernel.Options{})
//	server, _ := k.NewDomain(jkernel.DomainConfig{Name: "server"})
//	client, _ := k.NewDomain(jkernel.DomainConfig{Name: "client"})
//
//	cap, _ := k.CreateNativeCapability(server, &MyService{})
//	k.Repository().Bind("svc", cap)
//
//	task := k.NewTask(client, "main")
//	defer task.Close()
//	res, err := cap.Invoke("Greet", "world")
//
// See the examples directory for complete programs, including VM-hosted
// domains that load verified bytecode, the revocable file-system service
// of the paper's §2, and the extensible web server of §4.
package jkernel

import (
	"net/http"

	"jkernel/internal/account"
	"jkernel/internal/core"
	"jkernel/internal/remote"
	"jkernel/internal/sched"
	"jkernel/internal/telemetry"
	"jkernel/internal/vmkit"
	"jkernel/servlet"
)

// Core types, re-exported from the implementation. The aliases keep one
// canonical type identity across the public and internal layers.
type (
	// Kernel is one J-Kernel instance: a VM plus its protection domains.
	Kernel = core.Kernel
	// Options configures New.
	Options = core.Options
	// Domain is a protection domain.
	Domain = core.Domain
	// DomainConfig describes a new domain.
	DomainConfig = core.DomainConfig
	// Capability is the revocable handle on a remote object.
	Capability = core.Capability
	// SharedClass is an exported group of classes.
	SharedClass = core.SharedClass
	// Repository is the system-wide capability name service.
	Repository = core.Repository
	// Task binds a goroutine to a domain for making calls.
	Task = core.Task
	// RemoteError is a copied callee failure.
	RemoteError = core.RemoteError
	// Future is the pending result of an asynchronous invocation
	// (Capability.InvokeAsync / InvokeAsyncFrom): resolve-once, fault
	// propagation identical to Invoke, revocation-aware, cancellable.
	Future = core.Future
	// Stats is a domain's resource-accounting snapshot.
	Stats = account.Stats

	// RemoteConn is a kernel-to-kernel connection: capabilities imported
	// over it are proxies indistinguishable from local capabilities.
	RemoteConn = remote.Conn
	// RemoteTableSizes is a snapshot of one connection's table occupancy
	// (RemoteConn.TableSizes) — leak diagnostics for long-lived links.
	RemoteTableSizes = remote.TableSizes
	// RemoteListener serves a kernel's exports to remote kernels.
	RemoteListener = remote.Listener
	// WorkerPool supervises worker kernel processes, restarting crashes.
	WorkerPool = remote.Pool
	// WorkerPoolOptions configures StartWorkerPool.
	WorkerPoolOptions = remote.PoolOptions
	// WorkerConfig describes one worker kernel process (see RunWorker).
	WorkerConfig = remote.WorkerConfig

	// MetricsRegistry is a kernel's (or the process-global) instrument
	// registry: counters, gauges, latency histograms, call-graph edges,
	// and the event log.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is one registry's point-in-time reading.
	MetricsSnapshot = telemetry.Snapshot
	// Tracer records completed spans (recent ring + slow-call log).
	Tracer = telemetry.Tracer
	// TraceContext identifies the trace a call chain belongs to; it
	// propagates across the wire inside invoke frames.
	TraceContext = telemetry.TraceContext
	// Span is one recorded cross-domain (or cross-kernel) call.
	Span = telemetry.Span
)

// Sentinel errors.
var (
	// ErrRevoked reports use of a revoked capability.
	ErrRevoked = core.ErrRevoked
	// ErrDomainTerminated reports a call into or out of a dead domain.
	ErrDomainTerminated = core.ErrDomainTerminated
	// ErrNotRemote reports a capability target with no remote surface.
	ErrNotRemote = core.ErrNotRemote
	// ErrNoSuchMethod reports an unknown remote method name.
	ErrNoSuchMethod = core.ErrNoSuchMethod
	// ErrNotEntered reports a call from a goroutine without a Task.
	ErrNotEntered = core.ErrNotEntered
	// ErrCancelled reports a future abandoned via Future.Cancel.
	ErrCancelled = core.ErrCancelled
)

// WaitAll joins a fan-out of futures, returning the first error (in
// argument order), or nil when every call succeeded.
func WaitAll(futures ...*Future) error {
	return core.WaitAll(futures...)
}

// New creates a kernel. It panics only on internal bootstrap corruption;
// user-level failures surface from domain and capability constructors.
func New(opts Options) *Kernel {
	return core.MustNew(opts)
}

// NewKernel creates a kernel, reporting bootstrap errors.
func NewKernel(opts Options) (*Kernel, error) {
	return core.New(opts)
}

// Assemble compiles VM assembly source into binary class-file bytes,
// loadable through DomainConfig.Classes or Domain.DefineClass.
func Assemble(src string) ([]byte, error) {
	return vmkit.AssembleBytes(src)
}

// MustAssemble is Assemble that panics on error (for class sources
// compiled into the program).
func MustAssemble(src string) []byte {
	b, err := vmkit.AssembleBytes(src)
	if err != nil {
		panic(err)
	}
	return b
}

// Remote kernels. A supervisor kernel Listens (serving the capabilities it
// has Exported via Kernel.Export) and Connects to worker kernels in other
// processes; Import on the connection yields a proxy capability whose
// Invoke/Bind/Revoke behave exactly like a local capability's, with
// revocation and termination propagated across the wire and a lost worker
// surfacing as ErrRevoked, never as a supervisor crash. See
// examples/cluster and cmd/jkworker.

// Listen serves k's exported capabilities on network/addr ("tcp" or
// "unix") in the background.
func Listen(k *Kernel, network, addr string) (*RemoteListener, error) {
	return remote.Listen(k, network, addr)
}

// Connect dials a remote kernel; Import on the returned connection
// retrieves proxies for the peer's exports.
func Connect(k *Kernel, network, addr string) (*RemoteConn, error) {
	return remote.Dial(k, network, addr)
}

// ReleaseProxy severs a capability imported over a RemoteConn, returning
// its wire reference so the exporting kernel can drop its table entry
// once every handle is gone. Call it when a domain is done with an
// imported capability; releasing is revocation of the local handle only —
// the exporter's capability stays live, and importing it again yields a
// fresh, working proxy. Reports whether cap was a live wire proxy.
func ReleaseProxy(cap *Capability) bool {
	return remote.ReleaseProxy(cap)
}

// Three-party handoff. When a capability imported from kernel A is
// re-exported to kernel C, the middleman mints a redeemable ticket and C
// silently shortens the route to a direct A–C import (falling back to the
// two-hop relay when A is unreachable or the ticket cannot be redeemed).
// Shortening is fully transparent; these helpers exist for deployments
// that need to steer or observe it.

// Advertise records k's dialable listen endpoint, announced to peers so
// re-exports of k's capabilities can be shortened back to it. Listen and
// RunWorker already call it; call it directly only for hand-built
// listeners (NewListener over an existing net.Listener).
func Advertise(k *Kernel, network, addr string) {
	remote.Advertise(k, network, addr)
}

// HandoffDone reports whether cap is an imported capability whose route
// has been shortened by a redeemed handoff ticket: it now invokes the
// origin kernel directly instead of relaying through the kernel that
// re-exported it.
func HandoffDone(cap *Capability) bool {
	return remote.HandoffDone(cap)
}

// StartWorkerPool spawns and supervises worker kernel processes. With no
// Command option the current binary re-executes itself; pair with
// MaybeRunWorker at the top of main.
func StartWorkerPool(opts WorkerPoolOptions) (*WorkerPool, error) {
	return remote.StartPool(opts)
}

// RunWorker boots a worker kernel and serves it until the process exits.
func RunWorker(cfg WorkerConfig) error {
	return remote.RunWorker(cfg)
}

// MaybeRunWorker turns the process into a worker kernel when spawned by a
// worker pool (the worker env var is set), and returns immediately
// otherwise. Call it first thing in main.
func MaybeRunWorker(setup func(k *Kernel) error) {
	remote.MaybeRunWorker(setup)
}

// Cluster control plane. A Cluster schedules servlets across a
// supervised worker pool: pluggable placement (least-loaded or
// consistent-hash), queue-depth autoscaling between Min/Max
// workers, and health-driven draining with automatic failover —
// a crashed worker's servlets are re-placed onto survivors within a
// probe interval, and a sticky strategy pulls them home when the worker
// returns. Pair StartCluster in the supervisor with ServeClusterWorker
// in the worker setup passed to MaybeRunWorker. See examples/cluster and
// cmd/jkhttpd -workers.

type (
	// Cluster is a running control plane (internal/sched.Scheduler).
	Cluster = sched.Scheduler
	// ClusterOptions configures StartCluster.
	ClusterOptions = sched.Options
	// ClusterAutoscale switches the pool-sizing feedback loop off.
	ClusterAutoscale = sched.AutoscaleConfig
	// ClusterSnapshot is the control plane's point-in-time state.
	ClusterSnapshot = sched.Snapshot
	// PlacementStrategy decides which worker hosts a servlet.
	PlacementStrategy = sched.Strategy
	// DeploySpec is the portable unit of placement.
	DeploySpec = sched.DeploySpec
	// ClusterDeployer is the worker-side servlet factory.
	ClusterDeployer = sched.Deployer
)

// Placement strategies.
var (
	// LeastLoaded places on the worker with the fewest in-flight calls.
	LeastLoaded = sched.LeastLoaded
	// ConsistentHash binds each servlet name to a ring position: stable
	// across restarts, sticky after failover.
	ConsistentHash = sched.ConsistentHash
)

// StrategyByName resolves a PlacementStrategy from its name — the flag
// surface of cmd/jkhttpd.
func StrategyByName(name string) (PlacementStrategy, error) {
	return sched.ByName(name)
}

// StartCluster launches a control plane over opts.Bridge: it spawns the
// worker pool, installs itself as the bridge's admin control (uploads
// shard across workers), and runs the health/autoscale loop until Close.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	return sched.Start(opts)
}

// ClusterStats snapshots a cluster: workers with drain states, servlet
// placements, and scale/replacement counters. The same data is live in
// /debug/jk (gauges sched.* plus the event log).
func ClusterStats(c *Cluster) ClusterSnapshot {
	return c.Snapshot()
}

// ServeClusterWorker installs the worker half on kernel k: a deployer the
// control plane drives over the wire. natives maps factory names to Go
// servlet constructors; VM bundles deploy with no registration. Call it
// from the setup function passed to MaybeRunWorker.
func ServeClusterWorker(k *Kernel, natives map[string]func() servlet.Servlet) (*ClusterDeployer, error) {
	return sched.ServeWorker(k, natives)
}

// Observability. Every kernel carries a metrics registry and a tracer
// unless built with Options.DisableTelemetry; pool supervision metrics
// land in the process-global registry (ProcessMetrics). DebugHandler and
// StartDebugServer expose it all over HTTP as /debug/jk.

// Metrics returns k's metrics registry (nil when telemetry is disabled;
// every registry method is safe on nil).
func Metrics(k *Kernel) *MetricsRegistry {
	return k.Telemetry()
}

// Traces returns k's span recorder (nil when telemetry is disabled).
func Traces(k *Kernel) *Tracer {
	return k.Tracer()
}

// ProcessMetrics returns the process-global registry: pool supervision
// events and anything else not tied to one kernel.
func ProcessMetrics() *MetricsRegistry {
	return telemetry.Default()
}

// DebugHandler serves k's live telemetry as JSON: a full snapshot plus
// recent and slow spans by default, one stitched trace with ?trace=<id>.
// Mount it wherever the host process serves HTTP (conventionally at
// /debug/jk).
func DebugHandler(k *Kernel) http.Handler {
	return DebugHandlerWith(k, nil)
}

// DebugHandlerWith is DebugHandler plus a remote-span source: a
// /debug/jk?trace=<id> query merges remoteSpans(traceID) into the local
// spans — the hook a supervisor uses to stitch worker-process spans into
// one trace.
func DebugHandlerWith(k *Kernel, remoteSpans func(traceID uint64) []Span) http.Handler {
	cfg := telemetry.HandlerConfig{
		Registries:  []*MetricsRegistry{telemetry.Default()},
		RemoteSpans: remoteSpans,
	}
	if r := k.Telemetry(); r != nil {
		cfg.Registries = append(cfg.Registries, r)
	}
	if t := k.Tracer(); t != nil {
		cfg.Tracers = append(cfg.Tracers, t)
	}
	return telemetry.Handler(cfg)
}

// FormatTraceID renders a trace (or span) id as the hex string /debug/jk
// uses; ParseTraceID reverses it.
func FormatTraceID(id uint64) string { return telemetry.FormatID(id) }

// ParseTraceID parses FormatTraceID output.
func ParseTraceID(s string) (uint64, error) { return telemetry.ParseID(s) }

// StartDebugServer serves DebugHandler plus the Go profiler
// (/debug/pprof/) on a TCP address, returning the bound address.
func StartDebugServer(k *Kernel, addr string) (string, error) {
	a, err := remote.StartDebugServer(k, addr)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}
