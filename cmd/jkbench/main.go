// Command jkbench regenerates the paper's evaluation tables (1-6) in their
// original row/column format, alongside the published numbers, so shape
// comparisons are direct; table 7 extends the evaluation to the remote
// kernels subsystem (local LRMI vs cross-process capability invocation,
// the Table 2-vs-3 contrast made concrete), table 8 measures sync
// per-call against async-batched remote invocation, and table 9 measures
// capability churn (export → inline import → invoke → release) and
// verifies the per-connection tables return to baseline — the export-GC
// leak gate as a benchmark. Table 10 measures telemetry overhead, table
// 11 measures the three-party handoff: a re-exported capability called
// through the middleman relay vs over the shortened (redeemed) path vs a
// directly-dialed baseline, and table 12 measures the wire hot path
// itself — µs/call AND allocs/call for sync, async-batched, and
// 1 KiB-payload invokes, and for the serializer passes on their own.
// Table 13 is the cluster load harness: thousands of
// concurrent HTTP clients against fixed-capacity servlet shards, served
// by a scheduled 4-worker pool vs a single worker — throughput and
// p50/p99, with the speedup gated by -cluster-gate. See EXPERIMENTS.md
// for the recorded results.
//
//	jkbench                  # all tables
//	jkbench -table 4         # one table
//	jkbench -table 8,11,12   # several (the perf-gate baseline set)
//	jkbench -quick           # fewer iterations (CI-friendly)
//	jkbench -json BENCH.json # also write measured rows as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/oskit"
	"jkernel/internal/remote"
	"jkernel/internal/seri"
	"jkernel/internal/ukern"
	"jkernel/internal/vmkit"
)

var (
	tableFlag = flag.String("table", "", "comma-separated tables to run (1-13), e.g. 8 or 8,11,12; empty = all")
	quick     = flag.Bool("quick", false, "fewer iterations")
	jsonFlag  = flag.String("json", "", "write measured rows (remote tables 7-13) as JSON to this file")
	gateFlag  = flag.Float64("telemetry-gate", 0,
		"fail (exit 1) if table 10's telemetry on/off ratio exceeds this (0 = no gate; CI uses 1.10)")
	clusterGateFlag = flag.Float64("cluster-gate", 0,
		"fail (exit 1) if table 13's 4-worker/1-worker throughput ratio falls below this (0 = no gate; CI uses 3.0)")
)

func main() {
	oskit.MaybeRunChild()
	remote.MaybeRunWorker(remoteBenchSetup)
	flag.Parse()
	want := map[int]bool{}
	for _, s := range strings.Split(*tableFlag, ",") {
		s = strings.TrimSpace(s)
		if s == "" || s == "0" {
			continue
		}
		n, err := strconv.Atoi(s)
		check(err)
		want[n] = true
	}
	run := func(n int, f func()) {
		if len(want) == 0 || want[n] {
			f()
		}
	}
	run(1, table1)
	run(2, table2)
	run(3, table3)
	run(4, table4)
	run(5, table5)
	run(6, table6)
	run(7, table7)
	run(8, table8)
	run(9, table9)
	run(10, table10)
	run(11, table11)
	run(12, table12)
	run(13, table13)
	if *jsonFlag != "" {
		writeBenchJSON(*jsonFlag)
	}
	if *gateFlag > 0 && telemetryRatio > *gateFlag {
		fmt.Fprintf(os.Stderr, "jkbench: telemetry overhead gate FAILED: on/off ratio %.3f > %.3f\n",
			telemetryRatio, *gateFlag)
		os.Exit(1)
	}
	if *clusterGateFlag > 0 && clusterRatio < *clusterGateFlag {
		fmt.Fprintf(os.Stderr, "jkbench: cluster throughput gate FAILED: 4-worker/1-worker ratio %.2f < %.2f\n",
			clusterRatio, *clusterGateFlag)
		os.Exit(1)
	}
}

// --- machine-readable results (the BENCH_*.json perf trajectory) -----------

// benchRow is one measured configuration.
type benchRow struct {
	Table     int     `json:"table"`
	Name      string  `json:"name"`
	MicrosPer float64 `json:"us_per_op,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	AllocsPer float64 `json:"allocs_per_op,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	// Load-test latency columns (table 13). Informational: tail latency
	// under saturation is queue-shaped, so the perf gate reads the
	// throughput column instead.
	MillisP50 float64 `json:"p50_ms,omitempty"`
	MillisP99 float64 `json:"p99_ms,omitempty"`
}

var benchRows []benchRow

// record captures a measured row for the JSON artifact.
func record(table int, name string, us float64) {
	row := benchRow{Table: table, Name: name, MicrosPer: us}
	if us > 0 {
		row.OpsPerSec = 1e6 / us
	}
	benchRows = append(benchRows, row)
}

// recordAllocs is record plus an allocations-per-op column (table 12).
func recordAllocs(table int, name string, us, allocs float64) {
	row := benchRow{Table: table, Name: name, MicrosPer: us, AllocsPer: allocs}
	if us > 0 {
		row.OpsPerSec = 1e6 / us
	}
	benchRows = append(benchRows, row)
}

// recordRatio captures a derived speedup row.
func recordRatio(table int, name string, ratio float64) {
	benchRows = append(benchRows, benchRow{Table: table, Name: name, Ratio: ratio})
}

func writeBenchJSON(path string) {
	doc := struct {
		Generated string     `json:"generated"`
		Quick     bool       `json:"quick"`
		Rows      []benchRow `json:"rows"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Quick:     *quick,
		Rows:      benchRows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	check(err)
	check(os.WriteFile(path, append(data, '\n'), 0o644))
}

func iters(base int) int {
	if *quick {
		return base / 10
	}
	return base
}

// measure times f(n) and returns µs per iteration.
func measure(n int, f func(n int)) float64 {
	f(n / 10) // warm-up
	start := time.Now()
	f(n)
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// measureAllocs times f(n) and returns µs and heap allocations per
// iteration. The allocation count is process-wide (Mallocs delta across
// the run), deliberately: for the wire hot path the number that matters
// is every allocation a call costs on either side of the in-process
// loopback — read loops, flusher, and executor included.
func measureAllocs(n int, f func(n int)) (usPer, allocsPer float64) {
	f(n / 10) // warm-up; also primes the frame-buffer pools
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f(n)
	usPer = float64(time.Since(start).Microseconds()) / float64(n)
	runtime.ReadMemStats(&m1)
	return usPer, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// measureEach times f once per iteration.
func measureEach(n int, f func()) float64 {
	return measure(n, func(n int) {
		for i := 0; i < n; i++ {
			f()
		}
	})
}

// --- shared VM fixture (same classes as bench_test.go) --------------------

const (
	svcIface = `
.class Svc interface implements jk/kernel/Remote
.method nop ()V
.end
.method add3 (III)I
.end
.method sink (LMsgS;)I
.end
.method sinkF (LMsgF;)I
.end
`
	msgS = ".class MsgS implements jk/io/Serializable\n.field payload [B\n.field next LMsgS;\n"
	msgF = ".class MsgF implements jk/io/FastCopy\n.field payload [B\n.field next LMsgF;\n"

	svcImpl = `
.class SvcImpl implements Svc
.method nop ()V stack 2 locals 0
  ret
.end
.method add3 (III)I stack 6 locals 0
  load 1
  load 2
  iadd
  load 3
  iadd
  retv
.end
.method sink (LMsgS;)I stack 2 locals 0
  iconst 1
  retv
.end
.method sinkF (LMsgF;)I stack 2 locals 0
  iconst 1
  retv
.end
`
	clientIface  = ".class LocalIface interface\n.method inop ()V\n.end\n"
	clientTarget = `
.class LocalTarget implements LocalIface
.method nop ()V stack 2 locals 0
  ret
.end
.method inop ()V stack 2 locals 0
  ret
.end
`
	clientBench = `
.class Bench
.field static cap LSvc;
.field static target LLocalTarget;
.method static setup ()V stack 4 locals 0
  sconst "svc"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Svc
  putstatic Bench.cap:LSvc;
  new LocalTarget
  putstatic Bench.target:LLocalTarget;
  ret
.end
.method static runRegular (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  invokevirtual LocalTarget.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runIface (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  invokeinterface LocalIface.inop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLock (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  monitorenter
  getstatic Bench.target:LLocalTarget;
  monitorexit
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  invokeinterface Svc.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI3 (I)V stack 10 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  iconst 1
  iconst 2
  iconst 3
  invokeinterface Svc.add3:(III)I
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
`
)

func mustBytes(src string) []byte {
	b, err := vmkit.AssembleBytes(src)
	if err != nil {
		panic(err)
	}
	return b
}

type fixture struct {
	k      *core.Kernel
	client *core.Domain
	task   *core.Task
	cap    *core.Capability
}

func newFixture(profile vmkit.Profile) *fixture {
	k := core.MustNew(core.Options{Profile: profile})
	server, err := k.NewDomain(core.DomainConfig{
		Name: "server",
		Classes: map[string][]byte{
			"Svc": mustBytes(svcIface), "SvcImpl": mustBytes(svcImpl),
			"MsgS": mustBytes(msgS), "MsgF": mustBytes(msgF),
		},
	})
	check(err)
	sc, err := k.ShareClasses(server, "Svc", "MsgS", "MsgF")
	check(err)
	client, err := k.NewDomain(core.DomainConfig{
		Name: "client",
		Classes: map[string][]byte{
			"LocalIface": mustBytes(clientIface), "LocalTarget": mustBytes(clientTarget),
			"Bench": mustBytes(clientBench),
		},
		Shared: []*core.SharedClass{sc},
	})
	check(err)
	setup := k.NewDetachedTask(server, "setup")
	target, err := server.NewInstance("SvcImpl")
	check(err)
	cap, err := k.CreateVMCapability(server, target)
	check(err)
	check(k.Repository().Bind("svc", cap))
	setup.Close()
	task := k.NewDetachedTask(client, "bench")
	_, err = task.CallStatic("Bench.setup:()V")
	check(err)
	return &fixture{k: k, client: client, task: task, cap: cap}
}

func (f *fixture) loop(method string) func(int) {
	return func(n int) {
		if _, err := f.task.CallStatic("Bench."+method+":(I)V", vmkit.IntVal(int64(n))); err != nil {
			check(err)
		}
	}
}

func (f *fixture) chain(class string, count, size int) *vmkit.Object {
	var head *vmkit.Object
	for i := 0; i < count; i++ {
		node, err := f.client.NewInstance(class)
		check(err)
		arr, err := f.client.NS.NewArray("[B", size)
		check(err)
		node.Fields[node.Class.FieldByName("payload").Slot] = vmkit.RefVal(arr)
		if head != nil {
			node.Fields[node.Class.FieldByName("next").Slot] = vmkit.RefVal(head)
		}
		head = node
	}
	return head
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "jkbench:", err)
		os.Exit(1)
	}
}

// --- tables ----------------------------------------------------------------

func table1() {
	fmt.Println("Table 1. Cost of null method invocations (in µs)")
	fmt.Println("  paper columns: MS-VM / Sun-VM on 200MHz Pentium-Pro;")
	fmt.Println("  ours: profile vm-A (MS-VM cost shape) / vm-B (Sun-VM cost shape)")
	fa := newFixture(vmkit.ProfileA)
	fb := newFixture(vmkit.ProfileB)
	n := iters(300000)
	rows := []struct {
		name           string
		paperA, paperB float64
		method         string
	}{
		{"Regular method invocation", 0.04, 0.03, "runRegular"},
		{"Interface method invocation", 0.54, 0.05, "runIface"},
		{"Acquire/release lock", 0.20, 1.91, "runLock"},
		{"J-Kernel LRMI", 2.22, 5.41, "runLRMI"},
	}
	fmt.Printf("  %-30s %10s %10s %10s %10s\n", "Operation", "paper-MS", "paper-Sun", "vm-A", "vm-B")
	for _, r := range rows {
		nn := n
		if r.method == "runLRMI" {
			nn = iters(50000)
		}
		a := measure(nn, fa.loop(r.method))
		b := measure(nn, fb.loop(r.method))
		fmt.Printf("  %-30s %10.2f %10.2f %10.3f %10.3f\n", r.name, r.paperA, r.paperB, a, b)
	}
	// Thread info lookup is measured outside bytecode, as in the stubs.
	la := measureEach(iters(2000000), func() { fa.k.VM.LookupThread(fa.task.Thread.ID) })
	lb := measureEach(iters(2000000), func() { fb.k.VM.LookupThread(fb.task.Thread.ID) })
	fmt.Printf("  %-30s %10.2f %10.2f %10.3f %10.3f\n", "Thread info lookup", 0.55, 0.29, la, lb)
	fmt.Println()
}

func table2() {
	fmt.Println("Table 2. Local RPC costs using standard OS mechanisms (in µs)")
	fmt.Printf("  %-30s %10s %10s\n", "Form of RPC", "paper", "measured")

	pipe, err := oskit.StartPipeServer()
	check(err)
	nt := measureEach(iters(20000), func() {
		if _, err := pipe.RoundTrip([]byte{1}); err != nil {
			check(err)
		}
	})
	pipe.Close()
	fmt.Printf("  %-30s %10.0f %10.2f\n", "NT-RPC (pipe, 2 processes)", 109.0, nt)

	tcp, err := oskit.StartTCPServer()
	check(err)
	com := measureEach(iters(20000), func() {
		if _, err := tcp.RoundTrip([]byte{1}); err != nil {
			check(err)
		}
	})
	tcp.Close()
	fmt.Printf("  %-30s %10.0f %10.2f\n", "COM out-of-proc (TCP loopback)", 99.0, com)

	srv := oskit.InProc()
	var sink byte
	inproc := measureEach(iters(20000000), func() { sink = srv.Null(1) })
	_ = sink
	fmt.Printf("  %-30s %10.2f %10.4f\n", "COM in-proc (interface call)", 0.03, inproc)

	f := newFixture(vmkit.ProfileA)
	lrmi := measure(iters(50000), f.loop("runLRMI"))
	fmt.Printf("  %-30s %10.2f %10.2f   (for comparison)\n", "J-Kernel LRMI", 2.22, lrmi)
	fmt.Println()
}

func table3() {
	fmt.Println("Table 3. Cost of a double thread switch (in µs)")
	fmt.Printf("  %-38s %8s %10s\n", "Configuration", "paper", "measured")
	pinned := pingPongBench(true, iters(100000))
	fmt.Printf("  %-38s %8.1f %10.2f\n", "OS threads (NT-base; JVM thread model)", 8.6, pinned)
	green := pingPongBench(false, iters(500000))
	fmt.Printf("  %-38s %8s %10.2f   (Go-native ablation)\n", "goroutines, unpinned", "-", green)
	f := newFixture(vmkit.ProfileA)
	lrmi := measure(iters(50000), f.loop("runLRMI"))
	fmt.Printf("  %-38s %8s %10.2f   (what segments avoid paying)\n", "J-Kernel LRMI, for scale", "-", lrmi)
	fmt.Println()
}

func pingPongBench(pin bool, n int) float64 {
	ping := make(chan struct{})
	pong := make(chan struct{})
	done := make(chan struct{})
	go func() {
		if pin {
			// Lock the partner goroutine to its own OS thread.
			lockOS()
			defer unlockOS()
		}
		for {
			select {
			case <-ping:
				pong <- struct{}{}
			case <-done:
				return
			}
		}
	}()
	if pin {
		lockOS()
		defer unlockOS()
	}
	us := measureEach(n, func() {
		ping <- struct{}{}
		<-pong
	})
	close(done)
	return us
}

func table4() {
	fmt.Println("Table 4. Cost of argument copying (in µs per LRMI)")
	fmt.Println("  paper columns are MS-VM serialization / fast-copy")
	f := newFixture(vmkit.ProfileA)
	shapes := []struct {
		name                string
		count, size         int
		paperSer, paperFast float64
	}{
		{"1 x 10 bytes", 1, 10, 104, 4.8},
		{"1 x 100 bytes", 1, 100, 158, 7.7},
		{"10 x 10 bytes", 10, 10, 193, 23.3},
		{"1 x 1000 bytes", 1, 1000, 633, 19.2},
	}
	fmt.Printf("  %-16s %10s %10s %12s %12s\n", "Argument", "paper-ser", "paper-fast", "ser", "fast")
	for _, s := range shapes {
		ms := f.chain("MsgS", s.count, s.size)
		mf := f.chain("MsgF", s.count, s.size)
		n := iters(20000)
		ser := measureEach(n, func() {
			if _, err := f.cap.InvokeVM(f.task, "sink", ms); err != nil {
				check(err)
			}
		})
		fast := measureEach(n, func() {
			if _, err := f.cap.InvokeVM(f.task, "sinkF", mf); err != nil {
				check(err)
			}
		})
		fmt.Printf("  %-16s %10.1f %10.1f %12.2f %12.2f\n", s.name, s.paperSer, s.paperFast, ser, fast)
	}
	fmt.Println()
}

func table5() {
	fmt.Println("Table 5. HTTP server throughput (pages/second)")
	fmt.Println("  8 concurrent clients over loopback TCP, in-memory documents")
	fmt.Printf("  %-10s | %7s %7s %7s | %9s %9s %9s\n",
		"page size", "p-IIS", "p-JWS", "p-IIS+JK", "static", "jws", "bridge")
	paper := map[int][3]float64{
		10:   {801, 122, 662},
		100:  {790, 121, 640},
		1000: {759, 96, 616},
	}
	for _, size := range []int{10, 100, 1000} {
		doc := make([]byte, size)
		for i := range doc {
			doc[i] = byte('a' + i%26)
		}

		static := serveThroughput(httpd.StaticHandler(doc))

		k := core.MustNew(core.Options{})
		bridge, err := httpd.NewBridge(k)
		check(err)
		_, err = bridge.MountDocServlet("doc", "/", doc)
		check(err)
		br := serveThroughput(bridge)

		k2 := core.MustNew(core.Options{})
		jws, err := httpd.NewJWS(k2, doc)
		check(err)
		jt := jwsThroughput(jws)

		p := paper[size]
		fmt.Printf("  %-10s | %7.0f %7.0f %7.0f | %9.0f %9.0f %9.0f\n",
			fmt.Sprintf("%d bytes", size), p[0], p[1], p[2], static, jt, br)
	}
	fmt.Println()
}

// serveThroughput measures pages/sec through a real loopback listener with
// 8 concurrent keep-alive clients, like the paper's setup.
func serveThroughput(h http.Handler) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/index.html"

	dur := 600 * time.Millisecond
	if *quick {
		dur = 200 * time.Millisecond
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
			for time.Now().Before(stop) {
				resp, err := client.Get(url)
				if err != nil {
					return
				}
				drain(resp)
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(total.Load()) / dur.Seconds()
}

func jwsThroughput(j *httpd.JWS) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go j.Serve(ln)
	defer ln.Close()
	url := "http://" + ln.Addr().String() + "/index.html"

	dur := 600 * time.Millisecond
	if *quick {
		dur = 200 * time.Millisecond
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
			for time.Now().Before(stop) {
				resp, err := client.Get(url)
				if err != nil {
					return
				}
				drain(resp)
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(total.Load()) / dur.Seconds()
}

func table6() {
	fmt.Println("Table 6. Comparison with selected kernels (in µs)")
	fmt.Printf("  %-34s %8s %10s\n", "System / operation", "paper", "measured")
	k := ukern.NewKernel()

	l4 := k.NewL4Pair()
	v := measureEach(iters(200000), func() {
		if _, err := l4.Call(1); err != nil {
			check(err)
		}
	})
	l4.Close()
	fmt.Printf("  %-34s %8.2f %10.2f\n", "L4: round-trip IPC", 1.82, v)

	exo := k.NewExoPair()
	v = measureEach(iters(500000), func() {
		if _, err := exo.Call(1); err != nil {
			check(err)
		}
	})
	fmt.Printf("  %-34s %8.2f %10.2f\n", "Exokernel: protected ctl transfer", 2.40, v)

	eros := k.NewErosPair()
	v = measureEach(iters(200000), func() {
		if _, err := eros.Call(1); err != nil {
			check(err)
		}
	})
	eros.Close()
	fmt.Printf("  %-34s %8.2f %10.2f\n", "Eros: round-trip IPC", 4.90, v)

	f := newFixture(vmkit.ProfileA)
	v = measure(iters(30000), f.loop("runLRMI3"))
	fmt.Printf("  %-34s %8.2f %10.2f\n", "J-Kernel: invocation with 3 args", 3.77, v)
	fmt.Println()
}

// --- table 7: remote kernels (beyond the paper) ----------------------------

// benchNullSvc is the remote null-call target.
type benchNullSvc struct{}

// Null does nothing.
func (benchNullSvc) Null() error { return nil }

// remoteBenchSetup is the worker-kernel body for the cross-process rows.
func remoteBenchSetup(k *core.Kernel) error {
	d, err := k.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		return err
	}
	cap, err := k.CreateNativeCapability(d, benchNullSvc{})
	if err != nil {
		return err
	}
	if err := k.Export("null", cap); err != nil {
		return err
	}
	// Table 13's workers additionally carry the control plane's deployer.
	return clusterBenchWorker(k)
}

// table7 contrasts local LRMI with remote (cross-kernel) capability
// invocation, the concrete version of the paper's Table 2-vs-3 argument:
// LRMI stays ~an order of magnitude under the cross-process wire, which
// is why domains share a kernel when they can and shard to worker kernels
// only for cores and crash isolation.
func table7() {
	fmt.Println("Table 7. Remote kernels: null capability invocation (in µs; beyond the paper)")
	fmt.Printf("  %-46s %10s\n", "Configuration", "measured")

	// Local rows: the VM LRMI (Table 1's row) and the native-path LRMI.
	f := newFixture(vmkit.ProfileA)
	lrmi := measure(iters(50000), f.loop("runLRMI"))
	fmt.Printf("  %-46s %10.2f\n", "J-Kernel LRMI (VM, same kernel)", lrmi)
	record(7, "J-Kernel LRMI (VM, same kernel)", lrmi)

	kl := core.MustNew(core.Options{})
	sd, err := kl.NewDomain(core.DomainConfig{Name: "s"})
	check(err)
	cd, err := kl.NewDomain(core.DomainConfig{Name: "c"})
	check(err)
	lcap, err := kl.CreateNativeCapability(sd, benchNullSvc{})
	check(err)
	ltask := kl.NewDetachedTask(cd, "bench")
	local := measureEach(iters(200000), func() {
		if _, err := lcap.InvokeFrom(ltask, "Null"); err != nil {
			check(err)
		}
	})
	fmt.Printf("  %-46s %10.2f\n", "native LRMI (Go, same kernel)", local)
	record(7, "native LRMI (Go, same kernel)", local)

	// In-process wire row: second kernel, same process, TCP loopback.
	k2 := core.MustNew(core.Options{})
	s2, err := k2.NewDomain(core.DomainConfig{Name: "svc"})
	check(err)
	c2, err := k2.CreateNativeCapability(s2, benchNullSvc{})
	check(err)
	check(k2.Export("null", c2))
	ln, err := remote.Listen(k2, "tcp", "127.0.0.1:0")
	check(err)
	conn, err := remote.Dial(kl, "tcp", ln.Addr().String())
	check(err)
	proxy, err := conn.Import("null")
	check(err)
	inproc := measureEach(iters(20000), func() {
		if _, err := proxy.InvokeFrom(ltask, "Null"); err != nil {
			check(err)
		}
	})
	conn.Close()
	ln.Close()
	fmt.Printf("  %-46s %10.2f\n", "remote null call (2nd kernel, TCP loopback)", inproc)
	record(7, "remote null call (2nd kernel, TCP loopback)", inproc)

	// Cross-process row: a real worker process behind a unix socket.
	pool, err := remote.StartPool(remote.PoolOptions{Workers: 1})
	check(err)
	defer pool.Close()
	wconn, err := pool.Worker(0).Dial(kl, 10*time.Second)
	check(err)
	wproxy, err := wconn.Import("null")
	check(err)
	cross := measureEach(iters(20000), func() {
		if _, err := wproxy.InvokeFrom(ltask, "Null"); err != nil {
			check(err)
		}
	})
	wconn.Close()
	fmt.Printf("  %-46s %10.2f\n", "remote null call (worker process, unix socket)", cross)
	record(7, "remote null call (worker process, unix socket)", cross)
	fmt.Println()
}

// --- table 8: sync vs async-batched remote invocation ----------------------

// measureAsyncBatched times null calls issued as windowed async fan-outs:
// each wave queues `window` futures (the connection coalesces them into
// multi-invoke frames), flushes, and joins. µs per call.
func measureAsyncBatched(conn *remote.Conn, proxy *core.Capability, task *core.Task, n int) float64 {
	const window = 512
	futs := make([]*core.Future, 0, window)
	return measure(n, func(n int) {
		for done := 0; done < n; {
			w := window
			if w > n-done {
				w = n - done
			}
			futs = futs[:0]
			for i := 0; i < w; i++ {
				futs = append(futs, proxy.InvokeAsyncFrom(task, "Null"))
			}
			conn.Flush()
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					check(err)
				}
			}
			done += w
		}
	})
}

// table8 measures what batching buys on the wire: the same remote null
// call issued synchronously (one frame and one round trip per call, the
// Table 7 baseline) against async futures coalesced into multi-invoke
// frames. The gap is the per-frame overhead — syscalls, wakeups, reply
// dispatch — amortized over a whole batch, the wire-level version of the
// paper's "one large object beats many small ones" (Table 4).
func table8() {
	fmt.Println("Table 8. Remote kernels: sync vs async-batched null calls (in µs/call; beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "calls/sec")
	row := func(name string, us float64) {
		fmt.Printf("  %-52s %10.2f %12.0f\n", name, us, 1e6/us)
		record(8, name, us)
	}

	kl := core.MustNew(core.Options{})
	cd, err := kl.NewDomain(core.DomainConfig{Name: "app"})
	check(err)
	task := kl.NewDetachedTask(cd, "bench")

	// In-process second kernel over TCP loopback.
	k2 := core.MustNew(core.Options{})
	s2, err := k2.NewDomain(core.DomainConfig{Name: "svc"})
	check(err)
	c2, err := k2.CreateNativeCapability(s2, benchNullSvc{})
	check(err)
	check(k2.Export("null", c2))
	ln, err := remote.Listen(k2, "tcp", "127.0.0.1:0")
	check(err)
	conn, err := remote.Dial(kl, "tcp", ln.Addr().String())
	check(err)
	proxy, err := conn.Import("null")
	check(err)
	syncLoop := measureEach(iters(20000), func() {
		if _, err := proxy.InvokeFrom(task, "Null"); err != nil {
			check(err)
		}
	})
	row("sync per-call (2nd kernel, TCP loopback)", syncLoop)
	asyncLoop := measureAsyncBatched(conn, proxy, task, iters(200000))
	row("async batched (2nd kernel, TCP loopback)", asyncLoop)
	conn.Close()
	ln.Close()

	// Cross-process: a real worker behind a unix socket.
	pool, err := remote.StartPool(remote.PoolOptions{Workers: 1})
	check(err)
	defer pool.Close()
	wconn, err := pool.Worker(0).Dial(kl, 10*time.Second)
	check(err)
	wproxy, err := wconn.Import("null")
	check(err)
	syncCross := measureEach(iters(20000), func() {
		if _, err := wproxy.InvokeFrom(task, "Null"); err != nil {
			check(err)
		}
	})
	row("sync per-call (worker process, unix socket)", syncCross)
	asyncCross := measureAsyncBatched(wconn, wproxy, task, iters(200000))
	row("async batched (worker process, unix socket)", asyncCross)
	wconn.Close()

	fmt.Printf("  %-52s %9.1fx\n", "batching speedup (TCP loopback)", syncLoop/asyncLoop)
	fmt.Printf("  %-52s %9.1fx\n", "batching speedup (worker process)", syncCross/asyncCross)
	recordRatio(8, "batching speedup (TCP loopback)", syncLoop/asyncLoop)
	recordRatio(8, "batching speedup (worker process)", syncCross/asyncCross)
	fmt.Println()
}

// --- table 9: capability churn and table hygiene ---------------------------

// benchMakerSvc mints a fresh capability per call — the churn workload's
// server half: every cycle creates a new gate, exports it inline, and
// expects release (or revocation) to return the tables to baseline.
type benchMakerSvc struct {
	k *core.Kernel
	d *core.Domain
}

// Make returns a fresh null-service capability.
func (m *benchMakerSvc) Make() (*core.Capability, error) {
	return m.k.CreateNativeCapability(m.d, benchNullSvc{})
}

// table9 measures the full capability lifecycle on the wire: mint a
// capability remotely, import it inline (no manifest), invoke it, release
// it — then verifies the reference-counted export GC actually collected
// everything, on both ends of the connection. The leaked-entries rows are
// the benchmark-shaped version of the churn regression test: any value
// above zero is a table leak.
func table9() {
	fmt.Println("Table 9. Remote kernels: capability churn and table hygiene (beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/cycle", "cycles/sec")

	kl := core.MustNew(core.Options{})
	cd, err := kl.NewDomain(core.DomainConfig{Name: "app"})
	check(err)
	task := kl.NewDetachedTask(cd, "bench")

	k2 := core.MustNew(core.Options{})
	s2, err := k2.NewDomain(core.DomainConfig{Name: "svc"})
	check(err)
	maker, err := k2.CreateNativeCapability(s2, &benchMakerSvc{k: k2, d: s2})
	check(err)
	check(k2.Export("maker", maker))
	ln, err := remote.Listen(k2, "tcp", "127.0.0.1:0")
	check(err)
	conn, err := remote.Dial(kl, "tcp", ln.Addr().String())
	check(err)
	proxy, err := conn.Import("maker")
	check(err)

	us := measureEach(iters(20000), func() {
		res, err := proxy.InvokeFrom(task, "Make")
		check(err)
		cap := res[0].(*core.Capability)
		if _, err := cap.InvokeFrom(task, "Null"); err != nil {
			check(err)
		}
		remote.ReleaseProxy(cap)
	})
	fmt.Printf("  %-52s %10.2f %12.0f\n", "churn cycle: make+invoke+release (TCP loopback)", us, 1e6/us)
	record(9, "churn cycle: make+invoke+release (TCP loopback)", us)

	// Leak gate: once the release sweep drains, the client connection
	// holds exactly its lookup import, and the server connection exactly
	// the one export backing it.
	conn.Flush()
	leaked := func(c *remote.Conn, base remote.TableSizes) float64 {
		deadline := time.Now().Add(10 * time.Second)
		sz := c.TableSizes()
		for time.Now().Before(deadline) {
			if sz = c.TableSizes(); sz == base {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return float64(sz.Exports - base.Exports + sz.ExportIDs - base.ExportIDs +
			sz.Imports - base.Imports + sz.PreRevoked - base.PreRevoked +
			sz.Unhook - base.Unhook + sz.Pending - base.Pending)
	}
	clientLeak := leaked(conn, remote.TableSizes{Imports: 1})
	var serverLeak float64
	if conns := ln.Conns(); len(conns) == 1 {
		serverLeak = leaked(conns[0], remote.TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1})
	}
	fmt.Printf("  %-52s %10.0f\n", "post-churn leaked table entries, client (want 0)", clientLeak)
	fmt.Printf("  %-52s %10.0f\n", "post-churn leaked table entries, server (want 0)", serverLeak)
	recordRatio(9, "post-churn leaked table entries (client)", clientLeak)
	recordRatio(9, "post-churn leaked table entries (server)", serverLeak)
	conn.Close()
	ln.Close()
	fmt.Println()
}

// --- table 10: telemetry overhead ------------------------------------------

// telemetryRatio is table 10's measured on/off ratio, checked against
// -telemetry-gate in main after the JSON artifact is written.
var telemetryRatio float64

// table10 measures what the observability layer costs on the hottest wire
// path: the async-batched null call of Table 8, with telemetry enabled
// (the default — frame counters, latency histograms, a client span per
// call) against a kernel built with DisableTelemetry. Each configuration
// runs three times interleaved and keeps its best, so the ratio compares
// steady states rather than scheduler noise.
func table10() {
	fmt.Println("Table 10. Telemetry overhead on async-batched null calls (in µs/call; beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "calls/sec")

	bench := func(disable bool) float64 {
		kl := core.MustNew(core.Options{DisableTelemetry: disable, TelemetryNode: "bench-app"})
		cd, err := kl.NewDomain(core.DomainConfig{Name: "app"})
		check(err)
		task := kl.NewDetachedTask(cd, "bench")
		k2 := core.MustNew(core.Options{DisableTelemetry: disable, TelemetryNode: "bench-svc"})
		s2, err := k2.NewDomain(core.DomainConfig{Name: "svc"})
		check(err)
		c2, err := k2.CreateNativeCapability(s2, benchNullSvc{})
		check(err)
		check(k2.Export("null", c2))
		ln, err := remote.Listen(k2, "tcp", "127.0.0.1:0")
		check(err)
		conn, err := remote.Dial(kl, "tcp", ln.Addr().String())
		check(err)
		proxy, err := conn.Import("null")
		check(err)
		us := measureAsyncBatched(conn, proxy, task, iters(200000))
		conn.Close()
		ln.Close()
		return us
	}

	// Paired rounds, median ratio: the ratio compares two ~3µs/call
	// timings, so scheduler and neighbor noise moves either side far more
	// than the telemetry work itself does — but noise drifts slowly, so an
	// on-run and the off-run right next to it see the same conditions.
	// Each round therefore produces its own on/off ratio, and the median
	// over five rounds discards the rounds a noise spike landed in.
	const rounds = 5
	ratios := make([]float64, 0, rounds)
	on, off := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		o, f := bench(false), bench(true)
		ratios = append(ratios, o/f)
		on = math.Min(on, o)
		off = math.Min(off, f)
	}
	sort.Float64s(ratios)

	fmt.Printf("  %-52s %10.2f %12.0f\n", "async batched, telemetry enabled", on, 1e6/on)
	record(10, "async batched, telemetry enabled", on)
	fmt.Printf("  %-52s %10.2f %12.0f\n", "async batched, telemetry disabled", off, 1e6/off)
	record(10, "async batched, telemetry disabled", off)
	telemetryRatio = ratios[rounds/2]
	fmt.Printf("  %-52s %9.3fx\n", "telemetry overhead ratio (on/off)", telemetryRatio)
	recordRatio(10, "telemetry overhead ratio (on/off)", telemetryRatio)
	fmt.Println()
}

// --- table 11: three-party handoff (relay vs shortened path) ---------------

// benchHolderSvc parks the middleman's imported proxy so the client can
// re-import it over the middleman connection — the wire-level re-export
// that either relays through the middleman or is shortened by a redeemed
// handoff ticket.
type benchHolderSvc struct{ cap *core.Capability }

// Get returns the parked capability.
func (h *benchHolderSvc) Get() (*core.Capability, error) { return h.cap, nil }

// table11 measures what the three-party handoff buys: the same null call
// issued over a directly-dialed connection, through a middleman relay
// (handoff disabled at the middleman, so every frame is forwarded twice),
// and over a shortened path (the re-export redeemed into a first-class
// import at the origin). The relay costs roughly two direct calls — two
// hops, two decode/dispatch cycles — and the shortened path must land
// back within a sliver of the direct row, which is the point of the
// protocol.
func table11() {
	fmt.Println("Table 11. Remote kernels: relayed vs handoff-shortened re-exports (in µs/call; beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "calls/sec")
	row := func(name string, us float64) {
		fmt.Printf("  %-52s %10.2f %12.0f\n", name, us, 1e6/us)
		record(11, name, us)
	}

	// Origin A: exports the null service and listens (Listen advertises
	// the bound address, which is what makes A a redeemable origin).
	kA := core.MustNew(core.Options{})
	aDom, err := kA.NewDomain(core.DomainConfig{Name: "origin"})
	check(err)
	aCap, err := kA.CreateNativeCapability(aDom, benchNullSvc{})
	check(err)
	check(kA.Export("null", aCap))
	lnA, err := remote.Listen(kA, "tcp", "127.0.0.1:0")
	check(err)
	defer lnA.Close()

	// Middleman B: imports A's null service and re-exports it behind a
	// holder, exactly the shape an app produces when it passes a received
	// capability onward.
	kB := core.MustNew(core.Options{})
	bDom, err := kB.NewDomain(core.DomainConfig{Name: "middle"})
	check(err)
	ba, err := remote.Dial(kB, "tcp", lnA.Addr().String())
	check(err)
	defer ba.Close()
	bProxy, err := ba.Import("null")
	check(err)
	holderCap, err := kB.CreateNativeCapability(bDom, &benchHolderSvc{cap: bProxy})
	check(err)
	check(kB.Export("holder", holderCap))
	lnB, err := remote.Listen(kB, "tcp", "127.0.0.1:0")
	check(err)
	defer lnB.Close()

	// Client C.
	kC := core.MustNew(core.Options{})
	cDom, err := kC.NewDomain(core.DomainConfig{Name: "client"})
	check(err)
	task := kC.NewDetachedTask(cDom, "bench")

	// Baseline: C dials the origin directly.
	dconn, err := remote.Dial(kC, "tcp", lnA.Addr().String())
	check(err)
	defer dconn.Close()
	dproxy, err := dconn.Import("null")
	check(err)
	direct := measureEach(iters(20000), func() {
		if _, err := dproxy.InvokeFrom(task, "Null"); err != nil {
			check(err)
		}
	})
	row("direct null call (C dials origin A)", direct)

	// Relay: handoff off at the middleman, so the re-export stays a pure
	// relay and every call transits B.
	remote.SetHandoff(kB, false)
	relayConn, err := remote.Dial(kC, "tcp", lnB.Addr().String())
	check(err)
	relayHolder, err := relayConn.Import("holder")
	check(err)
	res, err := relayHolder.InvokeFrom(task, "Get")
	check(err)
	relayCap := res[0].(*core.Capability)
	relayed := measureEach(iters(20000), func() {
		if _, err := relayCap.InvokeFrom(task, "Null"); err != nil {
			check(err)
		}
	})
	row("relayed null call (C -> middleman B -> A)", relayed)
	remote.ReleaseProxy(relayCap)
	remote.ReleaseProxy(relayHolder)
	relayConn.Close()

	// Shortened: handoff back on, a fresh re-export ships with a ticket,
	// and C redeems it into a direct import at A before measuring.
	remote.SetHandoff(kB, true)
	shortConn, err := remote.Dial(kC, "tcp", lnB.Addr().String())
	check(err)
	defer shortConn.Close()
	shortHolder, err := shortConn.Import("holder")
	check(err)
	res, err = shortHolder.InvokeFrom(task, "Get")
	check(err)
	shortCap := res[0].(*core.Capability)
	deadline := time.Now().Add(10 * time.Second)
	for !remote.HandoffDone(shortCap) {
		if time.Now().After(deadline) {
			check(fmt.Errorf("handoff never shortened the re-exported route"))
		}
		time.Sleep(time.Millisecond)
	}
	shortened := measureEach(iters(20000), func() {
		if _, err := shortCap.InvokeFrom(task, "Null"); err != nil {
			check(err)
		}
	})
	row("shortened null call (redeemed ticket, C -> A)", shortened)

	fmt.Printf("  %-52s %9.2fx\n", "relay penalty (relayed / direct)", relayed/direct)
	recordRatio(11, "relay penalty (relayed / direct)", relayed/direct)
	fmt.Printf("  %-52s %9.2fx\n", "shortened overhead (shortened / direct)", shortened/direct)
	recordRatio(11, "shortened overhead (shortened / direct)", shortened/direct)

	// Ticket hygiene: the one minted ticket was redeemed, so the origin's
	// handoff table reads empty — anything left is a leak.
	tickets := float64(remote.HandoffTableSizes(kA).Tickets)
	fmt.Printf("  %-52s %10.0f\n", "post-redeem unredeemed tickets, origin (want 0)", tickets)
	recordRatio(11, "post-redeem unredeemed tickets (origin)", tickets)
	fmt.Println()
}

// --- table 12: the wire hot path (pooled frames, compiled codecs) ----------

// benchPayload is the registered payload message for the 1 KiB rows; its
// codec compiles at RegisterWireType time.
type benchPayload struct {
	Seq  int64
	Data []byte
}

// benchPayloadSvc echoes payload messages.
type benchPayloadSvc struct{}

// Echo returns its argument.
func (benchPayloadSvc) Echo(p benchPayload) (benchPayload, error) { return p, nil }

// table12 measures the wire hot path directly: µs/call AND allocs/call
// for the three shapes the zero-copy work targets — the sync null call
// (per-frame overhead), the async-batched null call (where pooled frames
// and recycled batch slices should leave almost nothing per call), and a
// 1 KiB-payload echo. The serializer passes are also measured on their
// own (marshal+unmarshal of the same 1 KiB message): per wire call the
// four seri passes are a few percent of the total, so only the direct
// measurement resolves a codec change above scheduler noise.
func table12() {
	fmt.Println("Table 12. Remote kernels: wire hot path, time and allocations (beyond the paper)")
	fmt.Printf("  %-52s %10s %12s\n", "Configuration", "µs/call", "allocs/call")
	row := func(name string, us, allocs float64) {
		fmt.Printf("  %-52s %10.2f %12.1f\n", name, us, allocs)
		recordAllocs(12, name, us, allocs)
	}

	kl := core.MustNew(core.Options{})
	cd, err := kl.NewDomain(core.DomainConfig{Name: "app"})
	check(err)
	task := kl.NewDetachedTask(cd, "bench")
	kl.RegisterWireType("bench.payload", benchPayload{})

	k2 := core.MustNew(core.Options{})
	s2, err := k2.NewDomain(core.DomainConfig{Name: "svc"})
	check(err)
	k2.RegisterWireType("bench.payload", benchPayload{})
	nullCap, err := k2.CreateNativeCapability(s2, benchNullSvc{})
	check(err)
	check(k2.Export("null", nullCap))
	echoCap, err := k2.CreateNativeCapability(s2, benchPayloadSvc{})
	check(err)
	check(k2.Export("payload", echoCap))
	ln, err := remote.Listen(k2, "tcp", "127.0.0.1:0")
	check(err)
	defer ln.Close()
	conn, err := remote.Dial(kl, "tcp", ln.Addr().String())
	check(err)
	defer conn.Close()
	proxy, err := conn.Import("null")
	check(err)
	pproxy, err := conn.Import("payload")
	check(err)

	syncUs, syncAllocs := measureAllocs(iters(20000), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := proxy.InvokeFrom(task, "Null"); err != nil {
				check(err)
			}
		}
	})
	row("sync null call (TCP loopback)", syncUs, syncAllocs)

	const window = 512
	futs := make([]*core.Future, 0, window)
	asyncUs, asyncAllocs := measureAllocs(iters(200000), func(n int) {
		for done := 0; done < n; {
			w := window
			if w > n-done {
				w = n - done
			}
			futs = futs[:0]
			for i := 0; i < w; i++ {
				futs = append(futs, proxy.InvokeAsyncFrom(task, "Null"))
			}
			conn.Flush()
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					check(err)
				}
			}
			done += w
		}
	})
	row("async batched null call (TCP loopback)", asyncUs, asyncAllocs)

	// 1 KiB rows ride the async-batched path too: with the per-frame
	// syscall amortized away, what remains per call is dominated by the
	// four serializer passes (args and reply, encode and decode).
	msg := benchPayload{Seq: 1, Data: make([]byte, 1024)}
	for i := range msg.Data {
		msg.Data[i] = byte(i)
	}
	payloadLoop := func(n int) {
		const pwindow = 128
		for done := 0; done < n; {
			w := pwindow
			if w > n-done {
				w = n - done
			}
			futs = futs[:0]
			for i := 0; i < w; i++ {
				futs = append(futs, pproxy.InvokeAsyncFrom(task, "Echo", msg))
			}
			conn.Flush()
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					check(err)
				}
			}
			done += w
		}
	}
	echoUs, echoAllocs := measureAllocs(iters(50000), payloadLoop)
	row("1 KiB payload echo, batched (TCP loopback)", echoUs, echoAllocs)

	// The serializer passes in isolation: one marshal+unmarshal of the
	// same message through the kernel's registry. Best of three rounds, as
	// in table 10.
	reg := kl.SeriRegistry()
	seriUs, seriAllocs := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		us, allocs := measureAllocs(iters(500000), func(n int) {
			for i := 0; i < n; i++ {
				data, err := seri.Marshal(reg, msg)
				check(err)
				_, err = seri.Unmarshal(reg, data)
				check(err)
			}
		})
		seriUs, seriAllocs = math.Min(seriUs, us), math.Min(seriAllocs, allocs)
	}
	row("1 KiB payload marshal+unmarshal", seriUs, seriAllocs)
	fmt.Println()
}

func drain(resp *http.Response) {
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
}
