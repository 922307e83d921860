// Benchmarks regenerating every table of the paper's evaluation, and the
// ablations beyond it. Run: go test -bench=. -benchmem .  (cmd/jkbench
// prints the same rows in the paper's format.)
package jkernel

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"jkernel/internal/core"
	"jkernel/internal/fastcopy"
	"jkernel/internal/oskit"
	"jkernel/internal/papertables"
	"jkernel/internal/raceflag"
	"jkernel/internal/seri"
	"jkernel/internal/threads"
	"jkernel/internal/vmkit"
)

// TestMain lets the oskit cross-process RPC servers (Table 2) re-execute
// this test binary as their child.
func TestMain(m *testing.M) {
	oskit.MaybeRunChild()
	os.Exit(m.Run())
}

// --- Tables 1-6 -------------------------------------------------------------
// The rows are internal/papertables: Benchmark<name> below runs the cell of
// that name, or as sub-benchmarks every cell under "<name>/".

var paperCells = papertables.Cells()

func runCells(b *testing.B, name string) {
	for _, c := range paperCells {
		if c.Name == name {
			c.Bench(b)
			return
		}
		if sub, ok := strings.CutPrefix(c.Name, name+"/"); ok {
			b.Run(sub, c.Bench)
		}
	}
}

// paperBenchmarks is the Benchmark functions declared below.
var paperBenchmarks = []string{
	"Table1_VMA", "Table1_VMB",
	"Table2_NTRPC_Pipe", "Table2_COMOutOfProc_TCP", "Table2_COMInProc",
	"Table3_NTBase_OSThreads", "Table3_Goroutines_Unpinned",
	"Table4_VMA", "Table4_VMB",
	"Table5_IIS_Static", "Table5_JWS_Interpreted", "Table5_IISJKernel_Bridge",
	"Table6_L4_RoundTripIPC", "Table6_Exokernel_PCT", "Table6_Eros_RoundTripIPC", "Table6_JKernel_3ArgInvocation",
}

func BenchmarkTable1_VMA(b *testing.B)                 { runCells(b, "Table1_VMA") }
func BenchmarkTable1_VMB(b *testing.B)                 { runCells(b, "Table1_VMB") }
func BenchmarkTable2_NTRPC_Pipe(b *testing.B)          { runCells(b, "Table2_NTRPC_Pipe") }
func BenchmarkTable2_COMOutOfProc_TCP(b *testing.B)    { runCells(b, "Table2_COMOutOfProc_TCP") }
func BenchmarkTable2_COMInProc(b *testing.B)           { runCells(b, "Table2_COMInProc") }
func BenchmarkTable3_NTBase_OSThreads(b *testing.B)    { runCells(b, "Table3_NTBase_OSThreads") }
func BenchmarkTable3_Goroutines_Unpinned(b *testing.B) { runCells(b, "Table3_Goroutines_Unpinned") }
func BenchmarkTable4_VMA(b *testing.B)                 { runCells(b, "Table4_VMA") }
func BenchmarkTable4_VMB(b *testing.B)                 { runCells(b, "Table4_VMB") }
func BenchmarkTable5_IIS_Static(b *testing.B)          { runCells(b, "Table5_IIS_Static") }
func BenchmarkTable5_JWS_Interpreted(b *testing.B)     { runCells(b, "Table5_JWS_Interpreted") }
func BenchmarkTable5_IISJKernel_Bridge(b *testing.B)   { runCells(b, "Table5_IISJKernel_Bridge") }
func BenchmarkTable6_L4_RoundTripIPC(b *testing.B)     { runCells(b, "Table6_L4_RoundTripIPC") }
func BenchmarkTable6_Exokernel_PCT(b *testing.B)       { runCells(b, "Table6_Exokernel_PCT") }
func BenchmarkTable6_Eros_RoundTripIPC(b *testing.B)   { runCells(b, "Table6_Eros_RoundTripIPC") }
func BenchmarkTable6_JKernel_3ArgInvocation(b *testing.B) {
	runCells(b, "Table6_JKernel_3ArgInvocation")
}

// A cell under a name no Benchmark function covers would be printed by
// jkbench and never run by `go test -bench`.
func TestEveryPaperCellHasABenchmark(t *testing.T) {
	for _, c := range paperCells {
		top, _, _ := strings.Cut(c.Name, "/")
		if !slices.Contains(paperBenchmarks, top) {
			t.Errorf("cell %s: no Benchmark%s in bench_test.go", c.Name, top)
		}
	}
}

// TestPaperTableShapes holds "paper Tables 1-6 keep reproducing" to the
// orderings the paper argues from, each with a wide margin on any host and
// none an absolute time. A scheduling hiccup inside a 20 ms measurement
// can still invert one, so the whole set gets three attempts.
func TestPaperTableShapes(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("a timing comparison: not under -short or -race")
	}
	old, err := papertables.SetBenchtime("20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer papertables.SetBenchtime(old)

	var broken []string
	for attempt := 0; attempt < 3; attempt++ {
		if broken = brokenPaperShapes(t); len(broken) == 0 {
			return
		}
		t.Logf("attempt %d: %q", attempt+1, broken)
	}
	t.Errorf("paper table shapes do not hold: %q", broken)
}

func brokenPaperShapes(t *testing.T) (broken []string) {
	nsPerOp := map[string]float64{}
	ns := func(name string) float64 {
		if v, ok := nsPerOp[name]; ok {
			return v
		}
		i := slices.IndexFunc(paperCells, func(c papertables.Cell) bool { return c.Name == name })
		if i < 0 {
			t.Fatalf("no cell %s", name)
		}
		r := testing.Benchmark(paperCells[i].Bench)
		if r.N == 0 {
			t.Fatalf("Benchmark%s failed", name)
		}
		nsPerOp[name] = float64(r.T.Nanoseconds()) / float64(r.N)
		return nsPerOp[name]
	}
	// cheaper: factor × the cost of fast is still below the cost of slow.
	cheaper := func(fast, slow string, factor float64) {
		if f, s := ns(fast), ns(slow); factor*f >= s {
			broken = append(broken, fmt.Sprintf("%g x %s (%.0f ns) >= %s (%.0f ns)", factor, fast, f, slow, s))
		}
	}
	const lrmi = "Table1_VMA/NullLRMI"
	// Table 1: an LRMI costs several plain invocations.
	cheaper("Table1_VMA/RegularInvocation", lrmi, 1)
	cheaper("Table1_VMA/InterfaceInvocation", lrmi, 1)
	// Table 2: and sits far below the OS's RPCs.
	cheaper(lrmi, "Table2_NTRPC_Pipe", 5)
	cheaper(lrmi, "Table2_COMOutOfProc_TCP", 5)
	// Table 4: fast copy beats serialization, by most at 1 KB; many small
	// objects cost more than one large one.
	for _, shape := range []string{"1x10", "1x100", "10x10", "1x1000"} {
		cheaper("Table4_VMA/FastCopy/"+shape, "Table4_VMA/Serialization/"+shape, 1)
	}
	cheaper("Table4_VMA/FastCopy/1x1000", "Table4_VMA/Serialization/1x1000", 4)
	cheaper("Table4_VMA/Serialization/1x100", "Table4_VMA/Serialization/10x10", 1)
	cheaper("Table4_VMA/FastCopy/1x100", "Table4_VMA/FastCopy/10x10", 1)
	// Table 5: the all-interpreted server serves fewer pages per second
	// than the native one.
	for _, size := range []string{"10B", "100B", "1000B"} {
		cheaper("Table5_IIS_Static/"+size, "Table5_JWS_Interpreted/"+size, 1)
	}
	return broken
}

// --- Ablations beyond the paper's tables -----------------------------------

// Native-path ablation of Table 4: the same shapes as Go values through
// the seri and fastcopy engines directly.
type natNode struct {
	Payload []byte
	Next    *natNode
}

func natChain(count, size int) *natNode {
	var head *natNode
	for i := 0; i < count; i++ {
		head = &natNode{Payload: make([]byte, size), Next: head}
	}
	return head
}

func BenchmarkTable4_NativeEngines(b *testing.B) {
	reg := seri.NewRegistry()
	reg.Register("natNode", natNode{})
	copier := fastcopy.New()
	for _, shape := range []struct {
		name        string
		count, size int
	}{{"1x10", 1, 10}, {"1x100", 1, 100}, {"10x10", 10, 10}, {"1x1000", 1, 1000}} {
		chain := natChain(shape.count, shape.size)
		b.Run("Serialization/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := seri.Copy(reg, chain); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("FastCopy/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := copier.Copy(chain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Native-path LRMI vs the share-anything baseline: the cost of the
// J-Kernel's structure on the Go path.
type nullSvc struct{}

func (nullSvc) Null() error { return nil }

func BenchmarkAblation_NativeLRMI_Null(b *testing.B) {
	k := core.MustNew(core.Options{})
	server, _ := k.NewDomain(core.DomainConfig{Name: "s"})
	client, _ := k.NewDomain(core.DomainConfig{Name: "c"})
	cap, err := k.CreateNativeCapability(server, nullSvc{})
	if err != nil {
		b.Fatal(err)
	}
	task := k.NewTask(client, "b")
	defer task.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cap.Invoke("Null"); err != nil {
			b.Fatal(err)
		}
	}
}

// InvokeFrom skips the goroutine-id thread lookup: how much of native LRMI
// is the lookup (the paper's "thread info lookup" row, native edition)?
func BenchmarkAblation_NativeLRMI_ExplicitTask(b *testing.B) {
	k := core.MustNew(core.Options{})
	server, _ := k.NewDomain(core.DomainConfig{Name: "s"})
	client, _ := k.NewDomain(core.DomainConfig{Name: "c"})
	cap, err := k.CreateNativeCapability(server, nullSvc{})
	if err != nil {
		b.Fatal(err)
	}
	task := k.NewTask(client, "b")
	defer task.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cap.InvokeFrom(task, "Null"); err != nil {
			b.Fatal(err)
		}
	}
}

// The servlet-pool shape of internal/httpd and remote's executor: one
// detached task per goroutine, every one calling into the same server
// domain. Run with -cpu 1,2,…: what the carriers share on a crossing — the
// callee's account, nothing else — is what stops the ns/op from falling as
// the CPUs are added.
func BenchmarkAblation_NativeLRMI_Parallel(b *testing.B) {
	k := core.MustNew(core.Options{})
	server, _ := k.NewDomain(core.DomainConfig{Name: "s"})
	client, _ := k.NewDomain(core.DomainConfig{Name: "c"})
	cap, err := k.CreateNativeCapability(server, nullSvc{})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		task := k.NewDetachedTask(client, "b")
		defer task.Close()
		for pb.Next() {
			if _, err := cap.InvokeFrom(task, "Null"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

const parallelVMServer = `
.class Pinged interface implements jk/kernel/Remote
.method ping ()I
.end
`

const parallelVMServerImpl = `
.class PingedImpl implements Pinged
.method ping ()I
  iconst 1
  retv
.end
`

// The same through a VM-target gate: the full Gate.cross (segment switch,
// step flushes, accounting) around an interpreted null method.
func BenchmarkAblation_VMLRMI_Parallel(b *testing.B) {
	k := core.MustNew(core.Options{})
	classes := map[string][]byte{}
	for name, src := range map[string]string{"Pinged": parallelVMServer, "PingedImpl": parallelVMServerImpl} {
		data, err := vmkit.AssembleBytes(src)
		if err != nil {
			b.Fatal(err)
		}
		classes[name] = data
	}
	server, err := k.NewDomain(core.DomainConfig{Name: "s", Classes: classes})
	if err != nil {
		b.Fatal(err)
	}
	client, _ := k.NewDomain(core.DomainConfig{Name: "c"})
	target, err := server.NewInstance("PingedImpl")
	if err != nil {
		b.Fatal(err)
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		task := k.NewDetachedTask(client, "b")
		defer task.Close()
		for pb.Next() {
			if _, err := cap.InvokeVM(task, "ping"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// Fast-copy cycle table on vs off (the paper: the hash table "slows down
// copying, though, so by default the copy code does not use a hash table").
func BenchmarkAblation_FastCopyTable(b *testing.B) {
	chain := natChain(10, 10)
	plain := fastcopy.New()
	table := fastcopy.New(fastcopy.WithCycleTable())
	b.Run("NoTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.Copy(chain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WithTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.Copy(chain); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Goroutine-id lookup cost: the native thread-info-lookup component.
func BenchmarkAblation_GoroutineIDLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if gid := threads.GoroutineID(); gid == 0 {
			b.Fatal("no gid")
		}
	}
}
