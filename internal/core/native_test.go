package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jkernel/internal/raceflag"
)

// Targets whose methods have no thunk shape, so every call below goes
// through reflect: the method's function with the receiver first.

type point struct{ X, Y int64 }

type tagged struct{ tag string }

// Tag is promoted to shapeSvc from its embedded *tagged.
func (t *tagged) Tag(s string, n int64) (string, error) {
	return fmt.Sprintf("%s:%s:%d", t.tag, s, n), nil
}

type shapeSvc struct {
	*tagged
	scale int64
}

func (s *shapeSvc) Dot(a, b point) (int64, error) { return s.scale * (a.X*b.X + a.Y*b.Y), nil }

func (s *shapeSvc) Move(p *point, dx int64) (*point, error) {
	p.X += dx
	return p, nil
}

func (s *shapeSvc) Sum(first int64, rest ...int64) (int64, error) {
	for _, r := range rest {
		first += r
	}
	return first, nil
}

func (s *shapeSvc) Three(a, b, c int64) (int64, error)   { return a + b + c, nil }
func (s *shapeSvc) Four(a, b, c, d int64) (int64, error) { return a + b + c + d, nil }

func (s *shapeSvc) Fail(msg string, code int64) (int64, error) {
	return code, fmt.Errorf("fail %s %d", msg, code)
}

func (s *shapeSvc) Crash(msg string, code int64) (int64, error) {
	panic(fmt.Sprintf("crash %s %d", msg, code))
}

// Mul has a thunk shape; arguments of another width miss it and fall back
// to reflect.
func (s *shapeSvc) Mul(a, b int64) (int64, error) { return a * b, nil }

// Get has a value receiver: a *valSvc target reaches it through the
// method the compiler generates for the pointer, a valSvc target directly.
type valSvc struct{ n int64 }

func (v valSvc) Get(k int64) (int64, error) { return v.n + k, nil }

// Native methods outside the thunk shapes — struct and pointer arguments,
// variadic, promoted and value-receiver methods — and a thunk's reflect
// fallback return what the method returns, and fail as they always have:
// a method's error and a callee's panic as a RemoteError, a bad argument
// as the call's own error. InvokeFrom and ServeWire agree.
func TestNativeReflectDispatch(t *testing.T) {
	k := MustNew(Options{})
	server, err := k.NewDomain(DomainConfig{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewDomain(DomainConfig{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewDetachedTask(client, "t")
	defer task.Close()
	mk := func(target any) *Capability {
		c, err := k.CreateNativeCapability(server, target)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	shapes := mk(&shapeSvc{tagged: &tagged{tag: "t"}, scale: 2})
	byPtr, byVal := mk(&valSvc{n: 40}), mk(valSvc{n: 50})

	for _, c := range []struct {
		cap  *Capability
		name string
		args []any
		want any
	}{
		{shapes, "Dot", []any{point{1, 2}, point{3, 4}}, int64(22)},
		{shapes, "Move", []any{&point{1, 2}, int64(5)}, &point{6, 2}},
		{shapes, "Sum", []any{int64(1)}, int64(1)},
		{shapes, "Sum", []any{int64(1), int64(2), int64(3)}, int64(6)},
		{shapes, "Sum", []any{int32(1), int(2), int8(3)}, int64(6)},
		{shapes, "Three", []any{int64(1), int64(2), int64(3)}, int64(6)},
		{shapes, "Four", []any{int64(1), int64(2), int64(3), int64(4)}, int64(10)},
		{shapes, "Tag", []any{"x", int64(7)}, "t:x:7"},
		{shapes, "Mul", []any{int64(6), int64(7)}, int64(42)},
		{shapes, "Mul", []any{int32(6), int(7)}, int64(42)},
		{byPtr, "Get", []any{int64(2)}, int64(42)},
		{byVal, "Get", []any{int64(2)}, int64(52)},
	} {
		res, err := c.cap.InvokeFrom(task, c.name, c.args...)
		if err != nil || len(res) != 1 || !reflect.DeepEqual(res[0], c.want) {
			t.Errorf("%s%v = %v, %v; want %v", c.name, c.args, res, err, c.want)
		}
		sink := &wireSink{}
		if err := c.cap.ServeWire(task, c.name, c.args, 0, sink); err != nil || len(sink.got) != 1 || !reflect.DeepEqual(sink.got[0], c.want) {
			t.Errorf("%s%v through ServeWire = %v, %v; want %v", c.name, c.args, sink.got, err, c.want)
		}
	}

	for _, c := range []struct {
		name string
		args []any
		want string // the error's text
	}{
		{"Fail", []any{"x", int64(3)}, "jkernel: remote error (*errors.errorString): fail x 3"},
		{"Crash", []any{"x", int64(3)}, "jkernel: remote error (panic): crash x 3"},
		{"Sum", nil, "jkernel: remote error (panic): reflect: Call with too few input arguments"},
		{"Dot", []any{point{}, "no"}, "jkernel: Dot argument 1: string is not assignable to core.point"},
		{"Three", []any{int64(1), int64(2)}, "jkernel: Three wants 3 args, got 2"},
		{"Mul", []any{int64(6), "seven"}, "jkernel: Mul argument 1: string is not assignable to int64"},
	} {
		_, err := shapes.InvokeFrom(task, c.name, c.args...)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s%v: error %v, want %q", c.name, c.args, err, c.want)
		}
		var re *RemoteError
		if remote := strings.HasPrefix(c.want, "jkernel: remote error"); errors.As(err, &re) != remote {
			t.Errorf("%s%v: %T, RemoteError %v", c.name, c.args, err, remote)
		}
		if werr := shapes.ServeWire(task, c.name, c.args, 0, &wireSink{}); werr == nil || werr.Error() != c.want {
			t.Errorf("%s%v through ServeWire: error %v, want %q", c.name, c.args, werr, c.want)
		}
	}

	// The receiver and four arguments fit the caller's stack buffer.
	if !raceflag.Enabled {
		three := testing.AllocsPerRun(100, func() { shapes.InvokeFrom(task, "Three", int64(1), int64(2), int64(3)) })
		four := testing.AllocsPerRun(100, func() { shapes.InvokeFrom(task, "Four", int64(1), int64(2), int64(3), int64(4)) })
		if four > three {
			t.Errorf("a call of four arguments: %.0f allocs, of three: %.0f", four, three)
		}
	}
}
