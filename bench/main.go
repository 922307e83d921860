// Command bench is the repository's benchmark: six workloads, from a VM
// bytecode LRMI to an HTTP request through bridge, scheduler, wire and a
// worker process, measured end to end (untraced pass) and layer by layer
// (traced pass, -trace 1). See README.md for every metric's definition
// and BENCHMARK.json at the repo root for the contract a later change is
// held to.
//
//	bash bench/run.sh                               # all workloads, end to end
//	bash bench/run.sh -workload http_local          # one workload
//	bash bench/run.sh -trace 1                      # per-layer pass
//	bash bench/run.sh -compare A.json B.json        # two result files
//
// Every workload runs in a re-executed child of this binary, so set-up
// time and peak memory are per workload; set-up is repeated in further
// children and reported as the median.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jkernel/internal/oskit"
	"jkernel/internal/remote"
)

const (
	defaultSeed    = 1998
	defaultSeconds = 24
	// sliceLength is how long one measured window of the untraced pass
	// is. A run of -seconds is cut into slices with a burst of the host-speed
	// reference loop (refBurst) between each two, and every metric is the
	// median of the slices' values.
	sliceLength = 250 * time.Millisecond
	// openSliceLength is the open-loop workload's slice: its senders are
	// threads started per window, on a schedule that takes a few hundred
	// requests to settle.
	openSliceLength = 2500 * time.Millisecond
	// tracedShare: the traced pass measures one untraced and one traced
	// window of -seconds/tracedShare each, and then runs the layer probes.
	tracedShare = 5

	// closedLoopProcs is the GOMAXPROCS of a closed-loop workload's
	// process. On the shared 2-vCPU host one P repeats and two do not: with
	// two, the collector's workers and every goroutine wake-up land on a
	// second vCPU the host may or may not be running (lrmi_vm_null, one
	// goroutine: 243-271 thousand ops/s on two Ps against 328-357 on one in
	// the same quarter hour; the slices of one remote_sync_null run: p50_us
	// 26-36 us against 34-37). The open-loop cluster workload keeps the host
	// default: its pinned senders sleep in system calls and would hold the
	// only P.
	closedLoopProcs = 1

	// lateShareOfP99 is how much of the open-loop workload's p99 latency
	// the generator's own lateness (p99) may amount to before the run is
	// invalid. Latencies run from the due time, so lateness is inside
	// them; past this share p99_us would measure the generator.
	lateShareOfP99 = 0.25

	// outDir receives result and trace files, tmpDir the workers' sockets;
	// both are relative to the working directory (the root of a checkout)
	// and git-ignored. tmpDir is short because unix socket paths are
	// limited to about a hundred bytes.
	outDir = "bench/out"
	tmpDir = ".bench_build/tmp"

	envRole    = "JKBENCH_ROLE"    // "measure" or "setup": this process is a workload child
	envSpawned = "JKBENCH_SPAWNED" // unix nanoseconds at which the parent started the child
)

// sampleFloorProblem marks the one problem a run shorter than the
// contract's length is allowed to report.
const sampleFloorProblem = "latency samples"

// hostScaled reports whether an end-to-end metric is scaled by the host's
// speed (referenceSpeed, loadgen.go) on a workload of the given loop kind:
// times are multiplied by it and rates divided, slice by slice, so each
// reads what it would on a host running the reference loop at its nominal
// speed. The allocation counts do not depend on the host's speed; the
// open loop's latencies are waits for a vCPU to be woken, not computing,
// and its ops_per_s is the offered rate.
func hostScaled(loop, metric string) bool {
	switch metric {
	case "setup_s":
		return true
	case "ops_per_s", "p50_us":
		return loop == "closed"
	}
	return false
}

// setupRuns is how many times a workload is set up (in separate children)
// for the setup_s median.
var setupRuns = 7

var (
	workloadFlag = flag.String("workload", "", "run one workload (default: all)")
	seedFlag     = flag.Uint64("seed", defaultSeed, "seed for the generated inputs")
	secondsFlag  = flag.Float64("seconds", defaultSeconds, "measured seconds per workload (cut into quarter-second slices)")
	traceFlag    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics instead of end-to-end")
	compareFlag  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
)

func main() {
	oskit.MaybeRunChild()
	remote.MaybeRunWorker(clusterWorkerSetup)
	entered := time.Now()
	flag.Parse()
	if *compareFlag {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if role := os.Getenv(envRole); role != "" {
		runChild(role, entered)
		return
	}

	names := make([]string, 0, len(workloadSpecs))
	if *workloadFlag != "" {
		if findWorkload(*workloadFlag) == nil {
			fatalf("unknown workload %q", *workloadFlag)
		}
		names = append(names, *workloadFlag)
	} else {
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}

	doc := resultDoc{Meta: hostMeta()}
	fmt.Printf("jkernel bench: seed %d, %g s per workload, trace %d, nproc %d, GOMAXPROCS %d, %s, kernel %s\n",
		doc.Meta.Seed, doc.Meta.Seconds, doc.Meta.Trace, doc.Meta.NProc, doc.Meta.GOMAXPROCS, doc.Meta.GoVersion, doc.Meta.Kernel)
	fmt.Println(loopbackStatement)
	ok := true
	for _, name := range names {
		res, err := runWorkload(name)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		printWorkload(res)
		doc.Workloads = append(doc.Workloads, res)
		ok = ok && res.Correct
	}

	file := "result.json"
	if *traceFlag == 1 {
		file = "result_traced.json"
	}
	if *workloadFlag != "" {
		file = strings.TrimSuffix(file, ".json") + "_" + *workloadFlag + ".json"
	}
	if err := writeJSON(filepath.Join(outDir, file), doc); err != nil {
		fatalf("write result: %v", err)
	}
	if *workloadFlag != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object for the workload.
		fmt.Println(doc.Workloads[0].driverLine())
	}
	if !ok {
		os.Exit(1)
	}
}

const loopbackStatement = "network: every socket is on this host — TCP over 127.0.0.1 for HTTP and kernel-to-kernel connections, unix-domain sockets between the scheduler and its worker processes; no real link is crossed"

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// --- result document --------------------------------------------------------

type runMeta struct {
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   int     `json:"trace"`
	// SliceSeconds is the nominal length of one measured window.
	SliceSeconds float64 `json:"slice_seconds"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Callers      int     `json:"max_callers"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	Network      string  `json:"network"`
	Claim        *string `json:"claim"` // this benchmark claims no gain
}

func hostMeta() runMeta {
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return runMeta{
		Seed: *seedFlag, Seconds: *secondsFlag, Trace: *traceFlag, SliceSeconds: sliceLength.Seconds(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Callers: maxCallers(),
		GoVersion: runtime.Version(), Kernel: kernel, Network: loopbackStatement,
	}
}

// maxCallers caps the load generator: at most min(nproc, 2) caller
// goroutines or connections, so the generator never outnumbers the cores
// the kernels need.
func maxCallers() int { return min(runtime.NumCPU(), 2) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Median and quartiles over the run's slices (setup_s: its set-ups),
	// their number, and the in-run noise of Value (end-to-end metrics only).
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	Noise  float64 `json:"noise,omitempty"`
	N      int     `json:"n,omitempty"`
}

type workloadResult struct {
	Workload   string                 `json:"workload"`
	Loop       string                 `json:"loop"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	FailRatio  float64                `json:"fail_ratio"`
	Problems   []string               `json:"problems,omitempty"`
	Samples    int                    `json:"latency_samples"`
	HostSpeed  float64                `json:"host_speed,omitempty"`           // median over the slices
	P99us      float64                `json:"p99_us_informational,omitempty"` // demoted: see e2e.p99_us
	LagP99us   float64                `json:"generator_lag_p99_us,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Ledger     []ledgerRow            `json:"ledger,omitempty"`
	Slices     []trialResult          `json:"slices,omitempty"`
	SetupRuns  []float64              `json:"setup_runs_s,omitempty"`
}

type resultDoc struct {
	Meta      runMeta          `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

// driverLine renders the one-line JSON object the benchmark contract
// asks for: correct, attempted, failed, and each metric's value and unit.
func (w workloadResult) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, map[string]mv{}}
	for name, m := range w.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printWorkload(w workloadResult) {
	fmt.Printf("\n%s (%s loop, GOMAXPROCS %d): attempted %d, failed %d, fail_ratio %g, %d latency samples\n",
		w.Workload, w.Loop, w.GOMAXPROCS, w.Attempted, w.Failed, w.FailRatio, w.Samples)
	if *traceFlag == 0 {
		fmt.Printf("  host speed %.3f of nominal (median over the slices; 1 = the reference loop at %s)\n", w.HostSpeed, refNominal)
		fmt.Printf("  p99 latency %.4f us (pooled over the slices, not scaled; informational, see e2e.p99_us)\n", w.P99us)
	}
	if w.Loop == "open" && *traceFlag == 0 {
		fmt.Printf("  offered rate %d requests/s; generator lag p99 %.1f us\n", openRate, w.LagP99us)
	}
	specs := endToEnd
	if *traceFlag == 1 {
		specs = perLayer
	}
	for _, spec := range specs {
		m, ok := w.Metrics[spec.Name]
		if !ok {
			continue
		}
		if m.N > 0 {
			of := "slices"
			if spec.Name == "setup_s" {
				of = "set-ups"
			}
			if hostScaled(w.Loop, spec.Name) {
				of += ", scaled by host speed"
			}
			fmt.Printf("  %-20s %14.4f %-7s median of %d %s: q1 %.4f q3 %.4f noise %.3f (bound %.2f)\n",
				spec.Name, m.Value, m.Unit, m.N, of, m.Q1, m.Q3, m.Noise, spec.Bound)
		} else {
			fmt.Printf("  %-32s %14.4f %s\n", spec.Name, m.Value, m.Unit)
		}
	}
	for _, row := range w.Ledger {
		fmt.Printf("  ledger %-34s %10.3f us/op  (%s)\n", row.Name, row.Us, row.Source)
	}
	for _, p := range w.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// --- parent side: one workload = a few re-executed children ----------------

// childResult is what a workload child reports on its standard output.
type childResult struct {
	SetupS     float64            `json:"setup_s"`
	HostSpeed  float64            `json:"host_speed"` // right after set-up
	GOMAXPROCS int                `json:"gomaxprocs"`
	Trials     []trialResult      `json:"trials,omitempty"`
	P99us      float64            `json:"p99_us,omitempty"` // pooled over the slices (untraced pass)
	PeakRSSMiB float64            `json:"peak_rss_mib,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Ledger     []ledgerRow        `json:"ledger,omitempty"`
}

func spawnChild(name, role string) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", strconv.FormatUint(*seedFlag, 10),
		"-seconds", strconv.FormatFloat(*secondsFlag, 'g', -1, 64),
		"-trace", strconv.Itoa(*traceFlag),
	)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), envRole+"="+role, envSpawned+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("%s child: bad result: %w", role, err)
	}
	return res, nil
}

func runWorkload(name string) (workloadResult, error) {
	spec := findWorkload(name)
	out := workloadResult{Workload: name, Loop: spec.Loop, Metrics: map[string]metricValue{}}
	measured, err := spawnChild(name, "measure")
	if err != nil {
		return out, err
	}
	out.Problems = measured.Problems
	out.Slices = measured.Trials
	out.Ledger = measured.Ledger
	out.GOMAXPROCS = measured.GOMAXPROCS
	for _, t := range measured.Trials {
		out.Attempted += t.Ops
		out.Failed += t.Failed
		out.Samples += t.Samples
	}
	if out.Attempted > 0 {
		out.FailRatio = float64(out.Failed) / float64(out.Attempted)
	}
	out.Correct = out.Failed == 0 && len(out.Problems) == 0 && out.Attempted > 0

	if *traceFlag == 1 {
		for _, spec := range perLayer {
			out.Metrics[spec.Name] = metricValue{Value: measured.Layers[spec.Name], Unit: spec.Unit}
		}
		out.Metrics["e2e.fail_ratio"] = metricValue{Value: out.FailRatio, Unit: "ratio"}
		out.Metrics["e2e.peak_rss_mb"] = metricValue{Value: measured.PeakRSSMiB, Unit: "MiB"}
		if len(measured.Trials) == 2 { // the untraced window, then the traced one
			untraced := measured.Trials[0]
			out.Metrics["e2e.p99_us"] = metricValue{Value: untraced.P99us, Unit: "us"}
			out.Metrics["e2e.cpu_us_per_op"] = metricValue{Value: untraced.CPUSeconds * 1e6 / float64(max(untraced.Ops, 1)), Unit: "us"}
			out.Samples = measured.Trials[1].Samples
		}
		return out, nil
	}

	// Set-up times and the host's speed right after each set-up.
	out.SetupRuns = []float64{measured.SetupS}
	setups := []float64{measured.SetupS * measured.HostSpeed}
	for i := 1; i < setupRuns; i++ {
		extra, err := spawnChild(name, "setup")
		if err != nil {
			return out, err
		}
		out.SetupRuns = append(out.SetupRuns, extra.SetupS)
		setups = append(setups, extra.SetupS*extra.HostSpeed)
	}
	per := func(f func(t trialResult) float64) []float64 {
		v := make([]float64, 0, len(measured.Trials))
		for _, t := range measured.Trials {
			v = append(v, f(t))
		}
		return v
	}
	speed := func(t trialResult) float64 {
		if !hostScaled(spec.Loop, "ops_per_s") {
			return 1
		}
		return t.HostSpeed
	}
	values := map[string][]float64{
		"setup_s":   setups,
		"ops_per_s": per(func(t trialResult) float64 { return float64(t.Ops-t.Failed) / t.Wall.Seconds() / speed(t) }),
		"p50_us":    per(func(t trialResult) float64 { return t.P50us * speed(t) }),
		"allocs_per_op": per(func(t trialResult) float64 {
			return float64(t.Mallocs) / float64(max(t.Ops, 1))
		}),
		"alloc_bytes_per_op": per(func(t trialResult) float64 {
			return float64(t.AllocBytes) / float64(max(t.Ops, 1))
		}),
	}
	for _, spec := range endToEnd {
		sum := summarize(values[spec.Name])
		out.Metrics[spec.Name] = metricValue{Value: sum.Median, Unit: spec.Unit, Median: sum.Median, Q1: sum.Q1, Q3: sum.Q3, Noise: sum.Noise, N: sum.N}
	}
	out.HostSpeed = median(per(func(t trialResult) float64 { return t.HostSpeed }))
	out.P99us = measured.P99us
	if spec.Loop == "open" {
		out.LagP99us = median(per(func(t trialResult) float64 { return t.LagP99us }))
		if limit := lateShareOfP99 * out.P99us; out.LagP99us > limit {
			out.Problems = append(out.Problems, fmt.Sprintf(
				"open-loop generator ran late: lag p99 %.1f us exceeds %.0f %% of p99_us (%.1f us)", out.LagP99us, 100*lateShareOfP99, limit))
			out.Correct = false
		}
	}
	if out.Samples < 1000 {
		out.Problems = append(out.Problems, fmt.Sprintf("only %d %s: a 99th percentile needs at least 1000", out.Samples, sampleFloorProblem))
		// A short smoke run (the unit test) is not a measurement; the
		// sample floor only fails a run of the contract's length.
		if *secondsFlag >= defaultSeconds {
			out.Correct = false
		}
	}
	return out, nil
}
