package core

import (
	"testing"

	"jkernel/internal/telemetry"
	"jkernel/internal/threads"
)

// A trace lives on the carrier's chain, and the goroutine registry is the
// only way one task finds another's: a nested NewTask joins the trace of
// the chain it displaces and leaves it untouched, a task on another
// goroutine or a detached one starts untraced, and a served task's
// JoinTrace lends the trace to its handler's tasks for the call only.
func TestTraceRidesTheChain(t *testing.T) {
	k, d1, d2, cap, _ := newNativePair(t)
	if threads.CurrentChain() != nil {
		t.Fatal("test goroutine starts with a chain")
	}

	outer := k.NewTask(d2, "outer")
	if outer.TraceContext().Active() {
		t.Fatal("a task on a fresh goroutine starts traced")
	}
	tc := outer.BeginTrace()
	nested := k.NewTask(d1, "nested")
	if got := nested.TraceContext(); got != tc {
		t.Fatalf("nested task trace %+v, want the outer %+v", got, tc)
	}
	nested.BeginTrace()
	nested.Close()
	if got := outer.TraceContext(); got != tc {
		t.Fatalf("outer trace after the nested task closed: %+v, want %+v", got, tc)
	}
	again := k.NewTask(d1, "again")
	if got := again.TraceContext(); got != tc {
		t.Fatalf("task after the nested one closed: %+v, want %+v", got, tc)
	}
	again.Close()
	if k.NewDetachedTask(d2, "detached").TraceContext().Active() {
		t.Fatal("a detached task inherited a trace")
	}
	other := make(chan telemetry.TraceContext)
	go func() {
		task := k.NewTask(d2, "other")
		defer task.Close()
		other <- task.TraceContext()
	}()
	if got := <-other; got.Active() {
		t.Fatalf("a task on another goroutine joined %+v", got)
	}
	outer.Close()

	// A served call: the handler's tasks join the inbound trace, ambient
	// calls still find the goroutine not entered, and afterwards the
	// goroutine and the pooled task carry nothing.
	inbound := telemetry.TraceContext{TraceID: telemetry.NewID(), SpanID: telemetry.NewID()}
	served := d1.GetTask()
	served.JoinTrace(inbound)
	if _, err := cap.Invoke("Add", int64(1), int64(1)); err != ErrNotEntered {
		t.Fatalf("ambient invoke during a served call: %v, want ErrNotEntered", err)
	}
	handler := k.NewTask(d2, "handler")
	if got := handler.TraceContext(); got != inbound {
		t.Fatalf("handler task trace %+v, want the inbound %+v", got, inbound)
	}
	handler.Close()
	served.LeaveTrace()
	d1.PutTask(served)
	if c := threads.CurrentChain(); c != nil {
		t.Fatalf("goroutine still carries a chain (trace %+v) after the served call", c.Trace)
	}
	if served.TraceContext().Active() {
		t.Fatal("served task went back to the pool traced")
	}
	after := k.NewTask(d2, "after")
	defer after.Close()
	if after.TraceContext().Active() {
		t.Fatal("a task made after the served call joined its trace")
	}
}
