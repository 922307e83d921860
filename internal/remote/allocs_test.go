package remote

import (
	"net"
	"testing"

	"jkernel/internal/raceflag"
)

// sinkConn is an in-memory net.Conn that accepts every write.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

// TestAllocsSendSegments pins one framed vectored write at zero
// allocations: the header net.Buffers.WriteTo consumes lives in the Conn.
func TestAllocsSendSegments(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := &Conn{nc: sinkConn{}}
	head, body := []byte{msgInvoke, 1, 2, 3}, make([]byte, 64)
	got := testing.AllocsPerRun(1000, func() {
		if err := c.sendSegments(head, body); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("sendSegments: %.2f allocs per frame, want 0", got)
	}
}
