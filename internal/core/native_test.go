package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jkernel/internal/raceflag"
)

// Targets of every signature shape a native method can have. All but the
// null method, func() error, are called through reflect: the method's
// function with the receiver first.

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

// Mul takes int64s; arguments of another width are converted to them.
func (s *shapeSvc) Mul(a, b int64) (int64, error) { return a * b, nil }

// formerSvc has one method of each signature that once had a compiled
// dispatch shape of its own, and null methods that fail and panic.
type formerSvc struct{ self *Capability }

func (f *formerSvc) Null() error                    { return nil }
func (f *formerSvc) Refuse() error                  { return errors.New("refused") }
func (f *formerSvc) Boom() error                    { panic("boom") }
func (f *formerSvc) Bytes() ([]byte, error)         { return []byte("abc"), nil }
func (f *formerSvc) Str() (string, error)           { return "str", nil }
func (f *formerSvc) Self() (*Capability, error)     { return f.self, nil }
func (f *formerSvc) Neg(a int64) (int64, error)     { return -a, nil }
func (f *formerSvc) Upper(s string) (string, error) { return strings.ToUpper(s), nil }

func (f *formerSvc) Put(s string) error {
	if s == "" {
		return errors.New("empty")
	}
	return nil
}

// Rev reverses b in place; a nil b stays nil.
func (f *formerSvc) Rev(b []byte) ([]byte, error) {
	slices.Reverse(b)
	return b, nil
}

func (f *formerSvc) Pad(n, fill int64) ([]byte, error) {
	return bytes.Repeat([]byte{byte(fill)}, int(n)), nil
}

// Get has a value receiver: a *valSvc target reaches it through the
// method the compiler generates for the pointer, a valSvc target directly.
type valSvc struct{ n int64 }

func (v valSvc) Get(k int64) (int64, error) { return v.n + k, nil }

// Native methods of every shape — the null method, the signatures that
// once had compiled shapes, struct and pointer arguments, variadic,
// promoted and value-receiver methods, arguments of another numeric width
// — return what the method returns, and fail as they always have: a
// method's error and a callee's panic as a RemoteError, a bad argument as
// the call's own error. InvokeFrom and ServeWire agree, and a callee's
// panic leaves the kernel serving.
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
	fsvc := &formerSvc{}
	former := mk(fsvc)
	fsvc.self = former
	// same compares result vectors; a method with no results but its
	// error may answer nil or an empty vector.
	same := func(got []any, want any) bool {
		if want == nil {
			return len(got) == 0
		}
		return len(got) == 1 && reflect.DeepEqual(got[0], want)
	}

	for _, c := range []struct {
		cap  *Capability
		name string
		args []any
		want any // the one result; nil for none
	}{
		{former, "Null", nil, nil},
		{former, "Bytes", nil, []byte("abc")},
		{former, "Str", nil, "str"},
		{former, "Self", nil, former},
		{former, "Put", []any{"x"}, nil},
		{former, "Upper", []any{"x"}, "X"},
		{former, "Rev", []any{[]byte{1, 2, 3}}, []byte{3, 2, 1}},
		{former, "Rev", []any{[]byte(nil)}, []byte(nil)},
		{former, "Rev", []any{nil}, []byte(nil)},
		{former, "Neg", []any{int64(5)}, int64(-5)},
		{former, "Neg", []any{int16(5)}, int64(-5)},
		{former, "Pad", []any{int64(2), int64(7)}, []byte{7, 7}},
		{former, "Pad", []any{uint8(2), int32(7)}, []byte{7, 7}},
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
		if err != nil || !same(res, c.want) {
			t.Errorf("%s%v = %v, %v; want %v", c.name, c.args, res, err, c.want)
		}
		sink := &wireSink{}
		if err := c.cap.ServeWire(task, c.name, c.args, 0, sink); err != nil || !same(sink.got, c.want) {
			t.Errorf("%s%v through ServeWire = %v, %v; want %v", c.name, c.args, sink.got, err, c.want)
		}
	}

	for _, c := range []struct {
		cap  *Capability
		name string
		args []any
		want string // the error's text
	}{
		{former, "Refuse", nil, "jkernel: remote error (*errors.errorString): refused"},
		{former, "Boom", nil, "jkernel: remote error (panic): boom"},
		{former, "Null", []any{int64(1)}, "jkernel: Null wants 0 args, got 1"},
		{former, "Put", []any{""}, "jkernel: remote error (*errors.errorString): empty"},
		{former, "Rev", []any{true}, "jkernel: Rev argument 0: bool is not assignable to []uint8"},
		{former, "Upper", []any{int64(65)}, "jkernel: Upper argument 0: int64 is not assignable to string"},
		{shapes, "Fail", []any{"x", int64(3)}, "jkernel: remote error (*errors.errorString): fail x 3"},
		{shapes, "Crash", []any{"x", int64(3)}, "jkernel: remote error (panic): crash x 3"},
		{shapes, "Sum", nil, "jkernel: remote error (panic): reflect: Call with too few input arguments"},
		{shapes, "Dot", []any{point{}, "no"}, "jkernel: Dot argument 1: string is not assignable to core.point"},
		{shapes, "Three", []any{int64(1), int64(2)}, "jkernel: Three wants 3 args, got 2"},
		{shapes, "Mul", []any{int64(6), "seven"}, "jkernel: Mul argument 1: string is not assignable to int64"},
	} {
		_, err := c.cap.InvokeFrom(task, c.name, c.args...)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s%v: error %v, want %q", c.name, c.args, err, c.want)
		}
		var re *RemoteError
		if remote := strings.HasPrefix(c.want, "jkernel: remote error"); errors.As(err, &re) != remote {
			t.Errorf("%s%v: %T, RemoteError %v", c.name, c.args, err, remote)
		}
		if werr := c.cap.ServeWire(task, c.name, c.args, 0, &wireSink{}); werr == nil || werr.Error() != c.want {
			t.Errorf("%s%v through ServeWire: error %v, want %q", c.name, c.args, werr, c.want)
		}
	}
	if _, err := former.InvokeFrom(task, "Null"); err != nil {
		t.Errorf("the kernel did not survive a panicking null method: %v", err)
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
