//go:build !race

// Package raceflag tells tests whether they run under the race detector,
// whose instrumentation allocates: allocation-ceiling tests
// (testing.AllocsPerRun) skip themselves when it is on.
package raceflag

// Enabled reports whether the race detector is compiled in.
const Enabled = false
