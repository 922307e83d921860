package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"jkernel/internal/analysis"
	"jkernel/internal/analysis/atest"
	"jkernel/internal/analysis/bufown"
	"jkernel/internal/analysis/capleak"
	"jkernel/internal/analysis/faultpath"
	"jkernel/internal/analysis/lockhold"
	"jkernel/internal/remote"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// cluster workload re-executes it as a worker kernel, and runWorkload
// re-executes it as a workload child.
func TestMain(m *testing.M) {
	remote.MaybeRunWorker(clusterWorkerSetup)
	entered := time.Now()
	flag.Parse()
	if role := os.Getenv(envRole); role != "" {
		runChild(role, entered)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesSpec holds BENCHMARK.json and spec.go in step: the
// gated workloads, the same metrics with the same units, directions and
// bounds, all within the contract's naming rules.
func TestContractMatchesSpec(t *testing.T) {
	c := loadContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", c.RunSeconds, defaultSeconds)
	}
	var gated []workloadSpec
	for _, w := range workloadSpecs {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(c.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go gates %d", len(c.Workloads), len(gated))
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range c.Workloads {
		checkName("workload", w.Name)
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)",
				i, w.Name, w.Why, gated[i].Name, gated[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no set-up function", w.Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go has %d", len(c.EndToEnd), len(endToEnd))
	}
	var sawSetup bool
	for i, m := range c.EndToEnd {
		checkName("metric", m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, want)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end needs setup_s (s, lower)")
	}
	if len(c.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go has %d (limit 128)", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		checkName("metric", m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, want)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
	}
}

func metricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func specNames(specs []metricSpec) []string {
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, want %d\n got  %v\n want %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: metric %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// smoke configures a 200 ms run inside a scratch directory: the
// benchmark writes under its working directory, as it does in a checkout.
func smoke(t *testing.T, trace int) {
	t.Helper()
	t.Chdir(t.TempDir())
	full := setupRuns
	*secondsFlag, *traceFlag, setupRuns = 0.2, trace, 1
	t.Cleanup(func() { *secondsFlag, *traceFlag, setupRuns = defaultSeconds, 0, full })
}

// TestWorkloadsEmitContractMetrics runs every workload for 200 ms and
// checks that each one is correct and emits exactly the end-to-end
// metrics of BENCHMARK.json, each with its unit.
func TestWorkloadsEmitContractMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	smoke(t, 0)
	for _, spec := range workloadSpecs {
		res, err := runWorkload(spec.Name)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// A 200 ms run takes too few latency samples for p99; that is the
		// only problem a smoke run may report, and it does not make the
		// run incorrect (runWorkload holds only full-length runs to it).
		for _, p := range res.Problems {
			if !strings.Contains(p, sampleFloorProblem) {
				t.Errorf("%s: %s", spec.Name, p)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", spec.Name, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, spec.Name, metricNames(res.Metrics), specNames(endToEnd))
		for name, m := range res.Metrics {
			if m.Unit == "" {
				t.Errorf("%s: metric %s has no unit", spec.Name, name)
			}
			if m.Value <= 0 {
				t.Errorf("%s: metric %s = %v, end-to-end metrics are never 0", spec.Name, name, m.Value)
			}
		}
	}
}

// TestTracedPassEmitsEveryLayerMetric runs the traced pass of one
// workload and checks the per-layer names and the trace file.
func TestTracedPassEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload; skipped in -short mode")
	}
	smoke(t, 1)
	res, err := runWorkload("lrmi_copy")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced lrmi_copy: failed %d, problems %v", res.Failed, res.Problems)
	}
	sameNames(t, "lrmi_copy traced", metricNames(res.Metrics), specNames(perLayer))
	if res.Metrics["fastcopy.copy_ns"].Value <= 0 || res.Metrics["ledger.sum_over_e2e"].Value <= 0 {
		t.Errorf("traced lrmi_copy left its own layers empty: %+v", res.Metrics)
	}
	if _, err := os.Stat(outDir + "/trace_lrmi_copy.json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

// TestBenchIsJKVetClean keeps the benchmark's own gate targets inside the
// kernel's discipline: only capabilities, registered wire types, basics
// and []byte cross a gate (capleak), and the other three passes hold too
// — the cmd/jkvet meta-test, pointed at this package.
func TestBenchIsJKVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its dependencies; skipped in -short mode")
	}
	passes := []*analysis.Pass{bufown.Pass, capleak.Pass, faultpath.Pass, lockhold.Pass}
	for _, p := range passes {
		analysis.RegisterPassNames(p.Name)
	}
	atest.NoFindings(t, ".", passes, ".")
}

// TestCompareVerdicts holds -compare to its contract: a difference inside
// the bound passes, one outside fails, and so does anything that is not
// there to be compared — a workload or a metric missing from either file,
// or a median of 0 that got worse at all.
func TestCompareVerdicts(t *testing.T) {
	doc := func(edit func(w map[string]workloadResult)) resultDoc {
		ws := map[string]workloadResult{}
		for _, spec := range workloadSpecs[:2] {
			m := map[string]metricValue{}
			for _, e := range endToEnd {
				m[e.Name] = metricValue{Value: 100, Unit: e.Unit}
			}
			ws[spec.Name] = workloadResult{Workload: spec.Name, Correct: true, Attempted: 1, Metrics: m}
		}
		if edit != nil {
			edit(ws)
		}
		var d resultDoc
		for _, spec := range workloadSpecs[:2] {
			if w, ok := ws[spec.Name]; ok {
				d.Workloads = append(d.Workloads, w)
			}
		}
		return d
	}
	first, second := workloadSpecs[0].Name, workloadSpecs[1].Name
	set := func(workload, metric string, v float64) func(map[string]workloadResult) {
		return func(ws map[string]workloadResult) {
			m := ws[workload].Metrics[metric]
			m.Value = v
			ws[workload].Metrics[metric] = m
		}
	}
	cases := []struct {
		name string
		a, b resultDoc
		want int
	}{
		{"identical", doc(nil), doc(nil), 0},
		{"inside the bound", doc(nil), doc(set(first, "p50_us", 110)), 0},
		{"improved", doc(nil), doc(set(first, "ops_per_s", 300)), 0},
		{"latency outside the bound", doc(nil), doc(set(first, "p50_us", 140)), 1},
		{"throughput outside the bound", doc(nil), doc(set(second, "ops_per_s", 60)), 1},
		{"allocs outside their tighter bound", doc(nil), doc(set(first, "allocs_per_op", 103)), 1},
		{"workload missing from B", doc(nil), doc(func(ws map[string]workloadResult) { delete(ws, second) }), 1},
		{"workload missing from A", doc(func(ws map[string]workloadResult) { delete(ws, first) }), doc(nil), 1},
		{"metric missing from B", doc(nil), doc(func(ws map[string]workloadResult) { delete(ws[first].Metrics, "p50_us") }), 1},
		{"zero that stayed zero", doc(set(first, "allocs_per_op", 0)), doc(set(first, "allocs_per_op", 0)), 0},
		{"zero that got worse", doc(set(first, "allocs_per_op", 0)), doc(set(first, "allocs_per_op", 3)), 1},
		{"incorrect run", doc(nil), doc(func(ws map[string]workloadResult) {
			w := ws[first]
			w.Correct = false
			ws[first] = w
		}), 1},
		{"nothing in common", resultDoc{}, resultDoc{}, 1},
	}
	for _, c := range cases {
		if got := compareDocs(c.a, c.b, "A", "B"); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
}
