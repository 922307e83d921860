package threads

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// The registry maps carrier goroutines to their segment chains. It is the
// native-path analog of the JVM's "current thread lookup", which Table 1
// shows is a real component of LRMI cost: Go offers no ambient
// goroutine-local storage, so the lookup parses the goroutine id from
// runtime.Stack and consults a shared map — an honest reproduction of why
// that lookup was expensive on 1990s JVMs.

var registry sync.Map // gid int64 -> *Chain

// GoroutineID returns the current goroutine's id.
func GoroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Format: "goroutine 123 [running]:"
	b := buf[:n]
	const prefix = "goroutine "
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return 0
	}
	b = b[len(prefix):]
	sp := bytes.IndexByte(b, ' ')
	if sp < 0 {
		return 0
	}
	id, err := strconv.ParseInt(string(b[:sp]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// Register binds a new chain (base segment owned by domain) to the calling
// goroutine and returns it. The chain joins the trace of the chain it
// displaces — its ambient caller's, when a callee running on the goroutine
// enters a domain of its own — so a goroutine's calls stay on one trace
// however many chains it stacks. The caller must Unregister when done.
func Register(domain int64) *Chain {
	c := NewChain(domain)
	Bind(c)
	if c.displaced != nil {
		c.Trace = c.displaced.Trace
	}
	return c
}

// Bind puts c on the calling goroutine until Unregister(c). A chain the
// goroutine already has is displaced, not lost: Unregister puts it back.
func Bind(c *Chain) {
	gid := GoroutineID()
	if v, ok := registry.Load(gid); ok {
		c.displaced = v.(*Chain)
	}
	c.gid = gid
	registry.Store(gid, c)
}

// Unregister unbinds c from the goroutine Bind put it on and restores the
// chain it displaced. It may run on another goroutine once that one no
// longer uses c. Chains normally end in the reverse order of Register;
// one that ends early is unlinked from under the chains registered after
// it.
func Unregister(c *Chain) {
	gid := c.gid
	v, ok := registry.Load(gid)
	if !ok {
		return
	}
	if top := v.(*Chain); top != c {
		for n := top; n.displaced != nil; n = n.displaced {
			if n.displaced == c {
				n.displaced = c.displaced
				break
			}
		}
	} else if c.displaced != nil {
		registry.Store(gid, c.displaced)
	} else {
		registry.Delete(gid)
	}
	c.displaced, c.gid = nil, 0
}

// CurrentChain performs the thread-info lookup for the calling goroutine.
// It returns nil when the goroutine was never registered.
func CurrentChain() *Chain {
	v, ok := registry.Load(GoroutineID())
	if !ok {
		return nil
	}
	return v.(*Chain)
}
