package sched

import (
	"fmt"
	"sort"
	"time"
)

// AutoscaleConfig configures the pool-sizing feedback loop. Its signal is the
// mean wire queue depth per ready worker (calls sent but not yet
// answered). Hysteresis comes from three places: the gap between
// upQueue and downQueue, the downTicks consecutive-low requirement, and
// the cooldown after any size change.
type AutoscaleConfig struct {
	// Disabled pins the pool at MinWorkers.
	Disabled bool
}

// The feedback loop's thresholds and pacing.
const (
	// upQueue scales up when mean queue depth per ready worker reaches it.
	upQueue = 16
	// downQueue arms scale-down when depth falls to it or below; the wide
	// gap to upQueue keeps the pool from flapping.
	downQueue = 2
	// downTicks is how many consecutive low evaluations arm a scale-down.
	downTicks = 5
	// evalTicks and cooldownTicks are the evaluation interval and the
	// minimum gap between size changes, in probe intervals: 1s and 5s at
	// the default 250ms.
	evalTicks, cooldownTicks = 4, 20
)

// autoscale is one feedback-loop evaluation; the control loop calls it
// every probe tick and it self-paces to evalTicks probe intervals.
func (s *Scheduler) autoscale() {
	if s.opts.Autoscale.Disabled {
		return
	}
	now := time.Now()
	if now.Sub(s.lastScaleEval) < evalTicks*s.opts.ProbeInterval {
		return
	}
	s.lastScaleEval = now

	s.mu.Lock()
	active := 0 // slots we own and are not tearing down
	ready := 0
	totalPending := 0
	for _, m := range s.members {
		if !m.removing {
			active++
		}
		if !m.placeable() {
			continue
		}
		ready++
		totalPending += m.conn.PendingCalls()
	}
	s.mu.Unlock()
	if ready == 0 {
		return
	}
	depth := float64(totalPending) / float64(ready)
	cooled := now.Sub(s.lastScale) >= cooldownTicks*s.opts.ProbeInterval

	switch {
	case depth >= upQueue:
		s.lowTicks = 0
		if active < s.opts.MaxWorkers && cooled {
			s.scaleUp(fmt.Sprintf("queue depth %.1f", depth))
			s.lastScale = now
		}
	case depth <= downQueue:
		s.lowTicks++
		if s.lowTicks >= downTicks && active > s.opts.MinWorkers && cooled {
			if s.scaleDown(fmt.Sprintf("queue depth %.1f for %d ticks", depth, s.lowTicks)) {
				s.lastScale = now
			}
			s.lowTicks = 0
		}
	default:
		s.lowTicks = 0
	}
}

// scaleUp adds a pool slot; the reconnect pass brings it to ready and
// rebalance then spreads servlets onto it.
func (s *Scheduler) scaleUp(reason string) {
	w, err := s.pool.Add()
	if err != nil {
		s.eventf("scale-up failed: %v", err)
		return
	}
	s.mu.Lock()
	s.addMemberLocked(w)
	s.mu.Unlock()
	s.cUp.Inc()
	s.eventf("scale-up: worker %d added (%s)", w.Index, reason)
	s.kick()
}

// scaleDown picks the placeable worker with the fewest servlets (highest
// index breaks ties, so the newest worker leaves first) and marks it for
// removal; evacuation and reaping happen over the following ticks.
func (s *Scheduler) scaleDown(reason string) bool {
	s.mu.Lock()
	counts := map[int]int{}
	for _, p := range s.placements {
		if p.worker >= 0 {
			counts[p.worker]++
		}
	}
	idxs := make([]int, 0, len(s.members))
	for i, m := range s.members {
		if m.placeable() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) < 2 {
		s.mu.Unlock()
		return false // never drain the only serving worker
	}
	sort.Slice(idxs, func(a, b int) bool {
		if counts[idxs[a]] != counts[idxs[b]] {
			return counts[idxs[a]] < counts[idxs[b]]
		}
		return idxs[a] > idxs[b]
	})
	victim := s.members[idxs[0]]
	victim.adminDrain = true
	victim.removing = true
	s.mu.Unlock()
	s.cDown.Inc()
	s.eventf("scale-down: worker %d draining for removal (%s)", victim.w.Index, reason)
	s.kick()
	return true
}
