package papertables

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"jkernel/internal/oskit"
)

// TestMain lets Table 2's servers re-execute this test binary as their
// child.
func TestMain(m *testing.M) {
	oskit.MaybeRunChild()
	os.Exit(m.Run())
}

// golden is the contract: every row of the paper's six tables, both
// profiles where the paper has a column for each VM, by the name
// `go test -bench` and cmd/jkbench know the cell by. The quoted null LRMI
// appears in Tables 2, 3 and 6 under its Table 1 name.
var golden = []string{
	"1 Regular method invocation: Table1_VMA/RegularInvocation Table1_VMB/RegularInvocation",
	"1 Interface method invocation: Table1_VMA/InterfaceInvocation Table1_VMB/InterfaceInvocation",
	"1 Thread info lookup: Table1_VMA/ThreadInfoLookup Table1_VMB/ThreadInfoLookup",
	"1 Acquire/release lock: Table1_VMA/AcquireReleaseLock Table1_VMB/AcquireReleaseLock",
	"1 J-Kernel LRMI: Table1_VMA/NullLRMI Table1_VMB/NullLRMI",
	"1 Empty loop: Table1_VMA/LoopBaseline Table1_VMB/LoopBaseline",
	"2 NT-RPC (pipe, 2 processes): Table2_NTRPC_Pipe",
	"2 COM out-of-proc (TCP loopback): Table2_COMOutOfProc_TCP",
	"2 COM in-proc (interface call): Table2_COMInProc",
	"2 J-Kernel LRMI: Table1_VMA/NullLRMI",
	"3 OS threads (NT-base; JVM thread model): Table3_NTBase_OSThreads",
	"3 goroutines, unpinned: Table3_Goroutines_Unpinned",
	"3 J-Kernel LRMI, for scale: Table1_VMA/NullLRMI",
	"4 1 x 10 bytes: Table4_VMA/Serialization/1x10 Table4_VMA/FastCopy/1x10 Table4_VMB/Serialization/1x10 Table4_VMB/FastCopy/1x10",
	"4 1 x 100 bytes: Table4_VMA/Serialization/1x100 Table4_VMA/FastCopy/1x100 Table4_VMB/Serialization/1x100 Table4_VMB/FastCopy/1x100",
	"4 10 x 10 bytes: Table4_VMA/Serialization/10x10 Table4_VMA/FastCopy/10x10 Table4_VMB/Serialization/10x10 Table4_VMB/FastCopy/10x10",
	"4 1 x 1000 bytes: Table4_VMA/Serialization/1x1000 Table4_VMA/FastCopy/1x1000 Table4_VMB/Serialization/1x1000 Table4_VMB/FastCopy/1x1000",
	"5 10 bytes: Table5_IIS_Static/10B Table5_JWS_Interpreted/10B Table5_IISJKernel_Bridge/10B",
	"5 100 bytes: Table5_IIS_Static/100B Table5_JWS_Interpreted/100B Table5_IISJKernel_Bridge/100B",
	"5 1000 bytes: Table5_IIS_Static/1000B Table5_JWS_Interpreted/1000B Table5_IISJKernel_Bridge/1000B",
	"6 L4: round-trip IPC: Table6_L4_RoundTripIPC",
	"6 Exokernel: protected ctl transfer: Table6_Exokernel_PCT",
	"6 Eros: round-trip IPC: Table6_Eros_RoundTripIPC",
	"6 J-Kernel: invocation with 3 args: Table6_JKernel_3ArgInvocation",
	"6 J-Kernel: null LRMI: Table1_VMA/NullLRMI",
}

func TestRowsAreTheGoldenList(t *testing.T) {
	var got []string
	for _, tab := range Tables() {
		for _, r := range tab.Rows {
			if len(r.Cells) != len(tab.Columns) {
				t.Errorf("table %d row %q: %d cells for %d columns", tab.N, r.Label, len(r.Cells), len(tab.Columns))
			}
			line := fmt.Sprintf("%d %s:", tab.N, r.Label)
			for _, c := range r.Cells {
				line += " " + c.Name
			}
			got = append(got, line)
		}
	}
	if !slices.Equal(got, golden) {
		t.Errorf("rows differ from the golden list\n got: %q\nwant: %q", got, golden)
	}
}

// Every cell's body completes one operation on its fixture: with a
// benchtime of 1x testing.Benchmark runs it at b.N = 1 and nothing else,
// and a body that called b.Fatal comes back with N = 0.
func TestEveryCellRunsOnce(t *testing.T) {
	old, err := SetBenchtime("1x")
	if err != nil {
		t.Fatal(err)
	}
	defer SetBenchtime(old)

	for _, c := range Cells() {
		if r := testing.Benchmark(c.Bench); r.N != 1 {
			t.Errorf("Benchmark%s: ran %d operations, want 1 (the body failed)", c.Name, r.N)
		}
	}
}
