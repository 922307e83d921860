// Command jkbench prints the paper's evaluation, Tables 1–6, in the
// paper's row/column format beside the published figures, so shape
// comparisons are direct. The rows, their labels and their measured bodies
// are internal/papertables — the list `go test -bench Table .` runs — and
// every figure is testing.Benchmark of that row's body, so the two agree.
// Everything beyond the paper (the wire, the scheduler, telemetry) is
// measured by bench/; see its README.
//
//	jkbench            # all six tables
//	jkbench -table 4   # one table (or several: -table 1,6)
//	jkbench -quick     # a short benchtime per cell (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"jkernel/internal/oskit"
	"jkernel/internal/papertables"
)

// quickBenchtime is -quick's -test.benchtime (the default is 1s per cell).
const quickBenchtime = "100ms"

// retired names, for each table jkbench once printed beyond the paper's
// six, the reading that replaced it (bench/README.md, "Where the old
// jkbench tables went").
var retired = map[int]string{
	7:  "bench workload remote_sync_null (bash bench/run.sh -workload remote_sync_null)",
	8:  "bench workloads remote_sync_null and remote_async_echo; their ratio is remote.async_over_sync_ratio in the traced pass",
	9:  "bench metrics remote.churn_cycle_us and remote.tables_leaked (bash bench/run.sh -workload remote_sync_null -trace 1), and go test -run TestChurn ./internal/remote",
	10: "bench metric telemetry.on_off_ratio (bash bench/run.sh -workload remote_async_echo -trace 1)",
	11: "go test -run 'TestHandoffShortensReexport|TestHandoffDisabledPinsRelay' ./internal/remote",
	12: "allocs_per_op on bench workloads remote_sync_null and remote_async_echo, and go test -run Allocs ./internal/remote ./internal/seri",
	13: "bench workload http_cluster_open (bash bench/run.sh -workload http_cluster_open)",
}

func main() {
	oskit.MaybeRunChild() // Table 2's servers are this binary re-executed
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, benchmark))
}

// benchmark is the one way jkbench obtains a figure.
func benchmark(c papertables.Cell) (testing.BenchmarkResult, error) {
	r := testing.Benchmark(c.Bench)
	if r.N == 0 {
		return r, fmt.Errorf("Benchmark%s failed; go test -run '^$' -bench '^Benchmark%s$' . prints why",
			c.Name, strings.ReplaceAll(c.Name, "/", "$/^"))
	}
	return r, nil
}

func run(args []string, stdout, stderr io.Writer, measure func(papertables.Cell) (testing.BenchmarkResult, error)) int {
	fs := flag.NewFlagSet("jkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tableFlag := fs.String("table", "", "comma-separated tables to print (1-6); empty = all")
	quick := fs.Bool("quick", false, "measure each cell for "+quickBenchtime+" instead of 1s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	want := map[int]bool{}
	for _, s := range strings.Split(*tableFlag, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		switch successor, was := retired[n]; {
		case err != nil:
			fmt.Fprintf(stderr, "jkbench: -table %q: not a table number\n", s)
			return 2
		case was:
			fmt.Fprintf(stderr, "jkbench: table %d is retired; its reading is now %s\n", n, successor)
			return 2
		case n < 1 || n > 6:
			fmt.Fprintf(stderr, "jkbench: no table %d: the paper has Tables 1-6\n", n)
			return 2
		}
		want[n] = true
	}
	if *quick {
		if _, err := papertables.SetBenchtime(quickBenchtime); err != nil {
			fmt.Fprintln(stderr, "jkbench:", err)
			return 2
		}
	}

	// A cell a later table quotes is measured once and printed twice.
	measured := map[string]testing.BenchmarkResult{}
	for _, t := range papertables.Tables() {
		if len(want) > 0 && !want[t.N] {
			continue
		}
		figures := func(c papertables.Cell) (float64, error) {
			r, ok := measured[c.Name]
			if !ok {
				var err error
				if r, err = measure(c); err != nil {
					return 0, err
				}
				measured[c.Name] = r
			}
			return t.Figure(r), nil
		}
		if err := printTable(stdout, t, figures); err != nil {
			fmt.Fprintln(stderr, "jkbench:", err)
			return 1
		}
	}
	return 0
}

// printTable writes one table: per row the label, the paper's figures,
// then ours.
func printTable(w io.Writer, t papertables.Table, figure func(papertables.Cell) (float64, error)) error {
	fmt.Fprintf(w, "Table %d. %s\n", t.N, t.Title)
	for _, note := range t.Notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
	width := len(t.RowHead)
	for _, r := range t.Rows {
		width = max(width, len(r.Label))
	}
	line := func(label string, figures []string, note string) {
		s := fmt.Sprintf("  %-*s", width, label)
		for _, v := range figures {
			s += fmt.Sprintf(" %10s", v)
		}
		if note != "" {
			s += "   " + note
		}
		fmt.Fprintln(w, s)
	}
	var paperHeads, heads []string
	for _, c := range t.Columns {
		if c.PaperHead != "" {
			paperHeads = append(paperHeads, c.PaperHead)
		}
		heads = append(heads, c.Head)
	}
	line(t.RowHead, append(paperHeads, heads...), "")
	for _, r := range t.Rows {
		var paper, ours []string
		for i, c := range r.Cells {
			if t.Columns[i].PaperHead != "" {
				paper = append(paper, paperFigure(c.Paper))
			}
			v, err := figure(c)
			if err != nil {
				return err
			}
			ours = append(ours, threeDigits(v))
		}
		line(r.Label, append(paper, ours...), r.Note)
	}
	fmt.Fprintln(w)
	return nil
}

// paperFigure prints a published figure as published; "-" where the paper
// has none.
func paperFigure(v float64) string {
	if v == 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// threeDigits prints v to three significant digits, at most four decimals.
func threeDigits(v float64) string {
	if v <= 0 {
		return "0"
	}
	decimals := min(max(2-int(math.Floor(math.Log10(v))), 0), 4)
	return strconv.FormatFloat(v, 'f', decimals, 64)
}
