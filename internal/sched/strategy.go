package sched

import (
	"fmt"
	"sort"
)

// MemberView is the per-worker load snapshot a placement strategy sees:
// only placeable (ready, non-draining) workers are offered. InFlight is
// the worker connection's wire queue depth at decision time; Placements
// counts servlets currently living on the worker.
type MemberView struct {
	Worker     int // pool slot index (stable across process restarts)
	InFlight   int
	Placements int
}

// Strategy decides which worker hosts a servlet. Pick returns an index
// into members (not a worker id), or -1 when it declines every candidate.
// Sticky strategies bind a servlet to a preferred worker: the scheduler
// re-runs Pick after membership changes and moves servlets whose
// preferred worker differs (cache affinity follows the servlet home).
// Non-sticky strategies are only consulted again to fix imbalance.
type Strategy interface {
	Name() string
	Sticky() bool
	Pick(servlet string, members []MemberView) int
}

// ByName resolves a strategy from its Name() string — the flag surface
// of cmd/jkhttpd.
func ByName(name string) (Strategy, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded(), nil
	case "consistent-hash":
		return ConsistentHash(), nil
	default:
		return nil, fmt.Errorf("sched: unknown strategy %q (want least-loaded or consistent-hash)", name)
	}
}

// --- least-loaded -----------------------------------------------------------

// leastLoaded places on the worker with the fewest in-flight wire calls,
// breaking ties by placement count and then by worker index, so an idle
// pool still spreads servlets evenly instead of piling onto slot 0.
type leastLoaded struct{}

// LeastLoaded returns the least-loaded placement strategy (the default).
func LeastLoaded() Strategy { return leastLoaded{} }

func (leastLoaded) Name() string { return "least-loaded" }
func (leastLoaded) Sticky() bool { return false }

func (leastLoaded) Pick(servlet string, members []MemberView) int {
	best := -1
	for i, m := range members {
		if best < 0 {
			best = i
			continue
		}
		b := members[best]
		if m.InFlight < b.InFlight ||
			(m.InFlight == b.InFlight && m.Placements < b.Placements) ||
			(m.InFlight == b.InFlight && m.Placements == b.Placements && m.Worker < b.Worker) {
			best = i
		}
	}
	return best
}

// --- consistent hash --------------------------------------------------------

// chVnodes is the virtual-node count per worker: enough that a 4-worker
// ring splits the servlet space within a few percent of even.
const chVnodes = 64

// consistentHash maps each servlet onto a hash ring of worker slots, so
// the same servlet name lands on the same worker across scheduler
// restarts (cache affinity) and only K/n placements move when the
// membership changes by one worker.
type consistentHash struct{}

// ConsistentHash returns the consistent-hash placement strategy. It is
// sticky: when a servlet's ring owner comes back after a crash restart,
// the scheduler moves the servlet home.
func ConsistentHash() Strategy { return consistentHash{} }

func (consistentHash) Name() string { return "consistent-hash" }
func (consistentHash) Sticky() bool { return true }

func (consistentHash) Pick(servlet string, members []MemberView) int {
	if len(members) == 0 {
		return -1
	}
	// Build the ring over the offered members. Membership changes are
	// rare and member counts small, so rebuilding per pick keeps the
	// strategy stateless and trivially deterministic.
	type point struct {
		h   uint64
		idx int
	}
	ring := make([]point, 0, len(members)*chVnodes)
	for i, m := range members {
		for v := 0; v < chVnodes; v++ {
			ring = append(ring, point{fnv64(fmt.Sprintf("w%d#%d", m.Worker, v)), i})
		}
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a].h < ring[b].h })
	h := fnv64(servlet)
	j := sort.Search(len(ring), func(i int) bool { return ring[i].h >= h })
	if j == len(ring) {
		j = 0
	}
	return ring[j].idx
}

// fnv64 is FNV-1a, the same dependency-free hash the telemetry registry
// shards with.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
