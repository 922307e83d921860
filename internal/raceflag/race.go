//go:build race

package raceflag

// Enabled reports whether the race detector is compiled in.
const Enabled = true
