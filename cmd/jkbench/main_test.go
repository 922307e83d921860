package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"jkernel/internal/papertables"
)

// jkbench prints the rows of papertables and nothing else: every label
// appears, every distinct cell is measured exactly once (a quoted cell is
// not measured again), and a cell's figure is what measure returned.
func TestPrintsTheRowsOfPapertables(t *testing.T) {
	calls := map[string]int{}
	fake := func(c papertables.Cell) (testing.BenchmarkResult, error) {
		calls[c.Name]++
		return testing.BenchmarkResult{N: 1000, T: 1234 * time.Microsecond}, nil // 1.23 µs, 810373 pages/s
	}
	var out, errs bytes.Buffer
	if code := run(nil, &out, &errs, fake); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	for _, tab := range papertables.Tables() {
		if !strings.Contains(out.String(), fmt.Sprintf("Table %d. %s\n", tab.N, tab.Title)) {
			t.Errorf("table %d's heading is not printed", tab.N)
		}
		for _, r := range tab.Rows {
			if !strings.Contains(out.String(), "\n  "+r.Label+" ") {
				t.Errorf("table %d: row %q is not printed", tab.N, r.Label)
			}
		}
	}
	for _, c := range papertables.Cells() {
		if calls[c.Name] != 1 {
			t.Errorf("cell %s measured %d times, want once", c.Name, calls[c.Name])
		}
		delete(calls, c.Name)
	}
	if len(calls) != 0 {
		t.Errorf("measured cells that papertables does not list: %v", calls)
	}
	if !strings.Contains(out.String(), " 1.23") || !strings.Contains(out.String(), " 810373") {
		t.Errorf("figures are not the measured ones:\n%s", out.String())
	}
}

func TestTableSelection(t *testing.T) {
	fake := func(papertables.Cell) (testing.BenchmarkResult, error) {
		return testing.BenchmarkResult{N: 1, T: time.Microsecond}, nil
	}
	for _, tc := range []struct {
		arg       string
		code      int
		wantInErr string
	}{
		{"4", 0, ""},
		{"1,6", 0, ""},
		{"9", 2, "remote.tables_leaked"},
		{"10", 2, "telemetry.on_off_ratio"},
		{"13", 2, "http_cluster_open"},
		{"14", 2, "Tables 1-6"},
		{"0", 2, "Tables 1-6"},
		{"x", 2, "not a table number"},
	} {
		var out, errs bytes.Buffer
		code := run([]string{"-table", tc.arg}, &out, &errs, fake)
		if code != tc.code || !strings.Contains(errs.String(), tc.wantInErr) {
			t.Errorf("-table %s: exit %d, stderr %q; want exit %d naming %q", tc.arg, code, errs.String(), tc.code, tc.wantInErr)
		}
		if tc.code != 0 && out.Len() != 0 {
			t.Errorf("-table %s: printed %q before failing", tc.arg, out.String())
		}
	}
	var out, errs bytes.Buffer
	run([]string{"-table", "4"}, &out, &errs, fake)
	if strings.Count(out.String(), "Table ") != 1 || !strings.HasPrefix(out.String(), "Table 4.") {
		t.Errorf("-table 4 printed:\n%s", out.String())
	}
}

func TestAFailedCellFailsTheRun(t *testing.T) {
	failing := func(c papertables.Cell) (testing.BenchmarkResult, error) {
		return testing.BenchmarkResult{}, fmt.Errorf("Benchmark%s failed", c.Name)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-table", "2"}, &out, &errs, failing); code != 1 || !strings.Contains(errs.String(), "Table2_NTRPC_Pipe") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the cell", code, errs.String())
	}
}
