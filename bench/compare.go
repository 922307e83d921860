package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareFiles prints, for every workload and end-to-end metric, both
// runs' values, the difference (B against A), the metric's bound and the
// larger of the two in-run noise figures. A pair is
//
//   - "ok" when B is no worse than A by more than the bound,
//   - "unresolved" when the in-run spread of either side exceeds the
//     bound — the runs cannot tell a change of that size from noise, so
//     the pair is not reported as unchanged,
//   - "WORSE" when B is outside the bound,
//   - "MISSING" when either file lacks the workload or the metric: a
//     workload that crashed or a metric that vanished is not a pass.
//
// The difference is relative to A's value; where A's value is 0 there
// is nothing to be relative to, so the difference is absolute and any
// worsening at all is WORSE.
//
// It returns the process exit code: 1 if any pair is WORSE or MISSING or
// either run was incorrect, else 0.
func compareFiles(pathA, pathB string) int {
	load := func(path string) (resultDoc, error) {
		var doc resultDoc
		raw, err := os.ReadFile(path)
		if err != nil {
			return doc, err
		}
		return doc, json.Unmarshal(raw, &doc)
	}
	a, err := load(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := load(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	return compareDocs(a, b, pathA, pathB)
}

func compareDocs(a, b resultDoc, nameA, nameB string) int {
	index := func(doc resultDoc) map[string]workloadResult {
		m := map[string]workloadResult{}
		for _, w := range doc.Workloads {
			m[w.Workload] = w
		}
		return m
	}
	inA, inB := index(a), index(b)
	code, compared := 0, 0
	fmt.Printf("A = %s (seed %d)   B = %s (seed %d)\n", nameA, a.Meta.Seed, nameB, b.Meta.Seed)
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A", "B", "B vs A", "bound", "noise", "verdict")
	// Every workload either file names is compared, in the benchmark's
	// order, so one that is absent from a file shows.
	for _, spec := range workloadSpecs {
		wa, okA := inA[spec.Name]
		wb, okB := inB[spec.Name]
		if !okA && !okB {
			continue
		}
		if !okA || !okB {
			fmt.Printf("%-18s MISSING (in A: %v, in B: %v)\n", spec.Name, okA, okB)
			code = 1
			continue
		}
		compared++
		if !wa.Correct || !wb.Correct {
			fmt.Printf("%-18s incorrect run (A correct=%v, B correct=%v)\n", spec.Name, wa.Correct, wb.Correct)
			code = 1
		}
		for _, m := range endToEnd {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				fmt.Printf("%-18s %-20s MISSING (in A: %v, in B: %v)\n", spec.Name, m.Name, okA, okB)
				code = 1
				continue
			}
			worse := mb.Value - ma.Value
			if m.Better == "higher" {
				worse = -worse
			}
			diff := fmt.Sprintf("%+.4g", mb.Value-ma.Value) // absolute, when A is 0
			limit := 0.0
			if ma.Value != 0 {
				diff = fmt.Sprintf("%+.2f%%", 100*(mb.Value-ma.Value)/math.Abs(ma.Value))
				limit = m.Bound * math.Abs(ma.Value)
			}
			noise := math.Max(ma.Noise, mb.Noise)
			verdict := "ok"
			switch {
			case worse > limit:
				verdict = "WORSE"
				code = 1
			case noise > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %9s %6.0f%% %6.1f%%  %s\n",
				spec.Name, m.Name, ma.Value, mb.Value, diff, 100*m.Bound, 100*noise, verdict)
		}
	}
	if compared == 0 {
		fmt.Println("no workload is in both files")
		code = 1
	}
	return code
}
