package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile[T int64 | uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// summary is the median and quartiles of one metric's per-slice values.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Noise is (q3-q1)/median: the in-run spread -compare holds a
	// difference against before calling it resolved.
	Noise float64 `json:"noise"`
	N     int     `json:"n"`
}

func summarize(values []float64) summary {
	s := slices.Clone(values)
	slices.Sort(s)
	out := summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	if out.Median != 0 {
		out.Noise = (out.Q3 - out.Q1) / out.Median
	}
	return out
}

func median(values []float64) float64 { return summarize(values).Median }

// cpuClockSched is the low bits of a per-process CPU-time clock id
// (CPUCLOCK_SCHED in the kernel's posix-timers.h).
const cpuClockSched = 2

// procCPU returns the user+system CPU seconds pid has consumed, from the
// process's own CPU-time clock (what clock_getcpuclockid(3) names:
// ^pid<<3 | CPUCLOCK_SCHED). It counts nanoseconds, where the utime and
// stime fields of /proc/<pid>/stat count 10 ms ticks — 4 % of a quarter
// second slice.
func procCPU(pid int) (float64, error) {
	clock := int32(^uint32(pid)<<3 | cpuClockSched)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("procCPU: clock_gettime for pid %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// procPeakRSS returns pid's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procPeakRSS: no VmHWM for pid %d", pid)
}
