package threads

import (
	"testing"

	"jkernel/internal/raceflag"
)

// TestAllocsPushPop pins the segment switch at zero allocations: after the
// first crossing a chain pushes the Seg it last popped.
func TestAllocsPushPop(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewChain(1)
	got := testing.AllocsPerRun(1000, func() {
		c.Push(2)
		c.Push(3)
		c.Pop()
		c.Pop()
	})
	if got > 0 {
		t.Errorf("Chain.Push/Pop: %.2f allocs per nested pair, want 0", got)
	}
}
