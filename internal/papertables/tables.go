// Package papertables is the paper's evaluation, Tables 1–6, as data: for
// every cell the published figure and the one benchmark body that measures
// it here. `go test -bench Table .` at the repository root and cmd/jkbench
// both walk this list, so the two print the same measurement of the same
// fixture and a row cannot exist in one and not the other.
package papertables

import (
	"flag"
	"fmt"
	"testing"

	"jkernel/internal/oskit"
	"jkernel/internal/ukern"
	"jkernel/internal/vmkit"
)

// A Cell is one measured figure of a table.
type Cell struct {
	// Name is the benchmark's name: `go test -bench` lists the cell as
	// "Benchmark" + Name. A cell quoted by a later table for comparison
	// keeps its name there, and is measured once.
	Name string
	// Paper is the published figure in the table's unit, 0 where the
	// paper has none.
	Paper float64
	Bench func(*testing.B)
}

// A Row is one line of a table: a cell per column.
type Row struct {
	Label string
	Note  string // printed after the figures
	Cells []Cell
}

// A Column names a measured column and the paper's column beside it
// (PaperHead is empty where the paper has no such column).
type Column struct {
	Head, PaperHead string
}

// A Table is one of the paper's tables.
type Table struct {
	N       int
	Title   string
	Notes   []string // printed under the title
	RowHead string   // heading of the label column
	// PagesPerSecond: figures are operations per second; otherwise µs per
	// operation.
	PagesPerSecond bool
	Columns        []Column
	Rows           []Row
}

// Figure converts a cell's benchmark result into the table's unit.
func (t Table) Figure(r testing.BenchmarkResult) float64 {
	if t.PagesPerSecond {
		return float64(r.N) / r.T.Seconds()
	}
	return float64(r.T.Nanoseconds()) / float64(r.N) / 1e3
}

// SetBenchtime sets how long testing.Benchmark measures a cell from here
// on — a -test.benchtime value such as "100ms" or "1x" — and returns the
// setting it replaced.
func SetBenchtime(v string) (old string, err error) {
	testing.Init()
	benchtime := flag.Lookup("test.benchtime").Value
	old = benchtime.String()
	return old, benchtime.Set(v)
}

// Cells returns every distinct cell of Tables once, in table order.
func Cells() []Cell {
	var cells []Cell
	seen := map[string]bool{}
	for _, t := range Tables() {
		for _, r := range t.Rows {
			for _, c := range r.Cells {
				if !seen[c.Name] {
					seen[c.Name] = true
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// Tables returns the paper's six tables. Profile vm-A models MS-VM's cost
// shape and vm-B Sun-VM's.
func Tables() []Table {
	a, b := vmkit.ProfileA, vmkit.ProfileB
	// both is a Table 1 row: the same loop under each profile.
	both := func(label, name, method string, paperA, paperB float64) Row {
		return Row{Label: label, Cells: []Cell{
			{"Table1_VMA/" + name, paperA, vmLoop(a, method)},
			{"Table1_VMB/" + name, paperB, vmLoop(b, method)},
		}}
	}
	nullLRMI := both("J-Kernel LRMI", "NullLRMI", "runLRMI", 2.22, 5.41)
	// The null LRMI of Table 1, profile A: quoted, not measured again.
	quoted := func(label, note string) Row {
		return Row{Label: label, Note: note, Cells: nullLRMI.Cells[:1]}
	}
	one := func(label, name string, paper float64, bench func(*testing.B)) Row {
		return Row{Label: label, Cells: []Cell{{name, paper, bench}}}
	}

	copyRow := func(label, shape string, count, size int, paperSer, paperFast float64) Row {
		cell := func(vm string, p vmkit.Profile, kind, class, method string, paper float64) Cell {
			return Cell{fmt.Sprintf("Table4_%s/%s/%s", vm, kind, shape), paper, vmCopy(p, class, method, count, size)}
		}
		return Row{Label: label, Cells: []Cell{
			cell("VMA", a, "Serialization", "MsgS", "sink", paperSer),
			cell("VMA", a, "FastCopy", "MsgF", "sinkF", paperFast),
			cell("VMB", b, "Serialization", "MsgS", "sink", 0),
			cell("VMB", b, "FastCopy", "MsgF", "sinkF", 0),
		}}
	}

	pageRow := func(size int, iis, jws, iisJK float64) Row {
		name := func(server string) string { return fmt.Sprintf("Table5_%s/%dB", server, size) }
		return Row{Label: fmt.Sprintf("%d bytes", size), Cells: []Cell{
			{name("IIS_Static"), iis, pages(size, staticServer)},
			{name("JWS_Interpreted"), jws, pages(size, jwsServer)},
			{name("IISJKernel_Bridge"), iisJK, pages(size, bridgeServer)},
		}}
	}

	return []Table{
		{
			N: 1, Title: "Cost of null method invocations (in µs)",
			Notes: []string{
				"paper columns: MS-VM / Sun-VM on 200MHz Pentium-Pro;",
				"ours: profile vm-A (MS-VM cost shape) / vm-B (Sun-VM cost shape)",
			},
			RowHead: "Operation",
			Columns: []Column{{"vm-A", "paper-MS"}, {"vm-B", "paper-Sun"}},
			Rows: []Row{
				both("Regular method invocation", "RegularInvocation", "runRegular", 0.04, 0.03),
				both("Interface method invocation", "InterfaceInvocation", "runIface", 0.54, 0.05),
				{Label: "Thread info lookup", Cells: []Cell{
					{"Table1_VMA/ThreadInfoLookup", 0.55, threadLookup(a)},
					{"Table1_VMB/ThreadInfoLookup", 0.29, threadLookup(b)},
				}},
				both("Acquire/release lock", "AcquireReleaseLock", "runLock", 0.20, 1.91),
				nullLRMI,
				{Label: "Empty loop", Note: "(loop overhead carried by the bytecode rows)",
					Cells: both("", "LoopBaseline", "baseline", 0, 0).Cells},
			},
		},
		{
			N: 2, Title: "Local RPC costs using standard OS mechanisms (in µs)",
			RowHead: "Form of RPC",
			Columns: []Column{{"measured", "paper"}},
			Rows: []Row{
				one("NT-RPC (pipe, 2 processes)", "Table2_NTRPC_Pipe", 109, osRPC(oskit.StartPipeServer)),
				one("COM out-of-proc (TCP loopback)", "Table2_COMOutOfProc_TCP", 99, osRPC(oskit.StartTCPServer)),
				one("COM in-proc (interface call)", "Table2_COMInProc", 0.03, comInProc),
				quoted("J-Kernel LRMI", "(for comparison)"),
			},
		},
		{
			N: 3, Title: "Cost of a double thread switch (in µs)",
			RowHead: "Configuration",
			Columns: []Column{{"measured", "paper"}},
			Rows: []Row{
				one("OS threads (NT-base; JVM thread model)", "Table3_NTBase_OSThreads", 8.6, pingPong(true)),
				{Label: "goroutines, unpinned", Note: "(Go-native ablation)",
					Cells: []Cell{{"Table3_Goroutines_Unpinned", 0, pingPong(false)}}},
				quoted("J-Kernel LRMI, for scale", "(what segments avoid paying)"),
			},
		},
		{
			N: 4, Title: "Cost of argument copying (in µs per LRMI)",
			Notes:   []string{"paper columns are MS-VM serialization / fast-copy"},
			RowHead: "Argument",
			Columns: []Column{{"ser", "paper-ser"}, {"fast", "paper-fast"}, {"ser-B", ""}, {"fast-B", ""}},
			Rows: []Row{
				copyRow("1 x 10 bytes", "1x10", 1, 10, 104, 4.8),
				copyRow("1 x 100 bytes", "1x100", 1, 100, 158, 7.7),
				copyRow("10 x 10 bytes", "10x10", 10, 10, 193, 23.3),
				copyRow("1 x 1000 bytes", "1x1000", 1, 1000, 633, 19.2),
			},
		},
		{
			N: 5, Title: "HTTP server throughput (pages/second)",
			Notes:          []string{fmt.Sprintf("%d concurrent clients over loopback TCP, in-memory documents", pageClients)},
			RowHead:        "page size",
			PagesPerSecond: true,
			Columns:        []Column{{"static", "p-IIS"}, {"jws", "p-JWS"}, {"bridge", "p-IIS+JK"}},
			Rows: []Row{
				pageRow(10, 801, 122, 662),
				pageRow(100, 790, 121, 640),
				pageRow(1000, 759, 96, 616),
			},
		},
		{
			N: 6, Title: "Comparison with selected kernels (in µs)",
			RowHead: "System / operation",
			Columns: []Column{{"measured", "paper"}},
			Rows: []Row{
				one("L4: round-trip IPC", "Table6_L4_RoundTripIPC", 1.82, ipc((*ukern.Kernel).NewL4Pair)),
				one("Exokernel: protected ctl transfer", "Table6_Exokernel_PCT", 2.40, ipc((*ukern.Kernel).NewExoPair)),
				one("Eros: round-trip IPC", "Table6_Eros_RoundTripIPC", 4.90, ipc((*ukern.Kernel).NewErosPair)),
				one("J-Kernel: invocation with 3 args", "Table6_JKernel_3ArgInvocation", 3.77, vmLoop(a, "runLRMI3")),
				quoted("J-Kernel: null LRMI", "(Table 1's row, same run)"),
			},
		},
	}
}
