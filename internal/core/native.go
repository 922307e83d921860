package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"jkernel/internal/seri"
)

// Native targets: Go objects exposed through the same capability model as
// VM objects. The paper's system servlet is "a system servlet with access
// to native methods"; this path is its generalization. Remote methods are
// the exported methods of the target whose last result is error; stubs are
// built with reflect.MakeFunc (the native analog of run-time bytecode
// generation).

// nativeTarget is a revocable reference to a Go object's method table.
type nativeTarget struct {
	methods map[string]*nativeMethod
}

// nativeMethod is one remote method: the method's unbound function, its
// receiver and its signature without the receiver. Every call goes through
// safeCall, which calls fn with the receiver first in the caller's argument
// buffer — a bound method value would make every call allocate reflect's
// method-value receiver — except the null LRMI: a method whose signature is
// exactly func() error is called as its bound method value, null, with no
// reflect.Call argument frame and no result vector.
type nativeMethod struct {
	name string
	fn   reflect.Value // reflect.Method.Func: the receiver is its first argument
	recv reflect.Value
	typ  reflect.Type // the method's signature as its callers see it
	null func() error // the bound method when typ is func() error, else nil
}

// CreateNativeCapability creates a capability, owned by d, for a Go target
// object. The target's remote surface is its exported methods whose final
// result is error; there must be at least one.
//
//jk:gate-target 1
func (k *Kernel) CreateNativeCapability(d *Domain, target any) (*Capability, error) {
	if d.Terminated() {
		return nil, ErrDomainTerminated
	}
	if target == nil {
		return nil, fmt.Errorf("jkernel: nil capability target")
	}
	rv := reflect.ValueOf(target)
	rt := rv.Type()
	nt := &nativeTarget{methods: map[string]*nativeMethod{}}
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		if !m.IsExported() {
			continue
		}
		mt := m.Func.Type()
		if mt.NumOut() == 0 || mt.Out(mt.NumOut()-1) != errType {
			continue
		}
		mv := rv.Method(i)
		nm := &nativeMethod{name: m.Name, fn: m.Func, recv: rv, typ: mv.Type()}
		nm.null, _ = mv.Interface().(func() error)
		nt.methods[m.Name] = nm
	}
	if len(nt.methods) == 0 {
		return nil, ErrNotRemote
	}
	g := &Gate{k: k, id: k.nextGate.Add(1), owner: d}
	g.natTarget.Store(nt)
	if err := d.addGate(g); err != nil {
		return nil, err
	}
	return &Capability{g: g}, nil
}

// Methods returns the remote method names of a native capability, sorted
// (empty for VM capabilities). For proxy capabilities it reports the
// remote kernel's method manifest; a proxy imported inline (as an
// argument or result) that arrived without one fetches it lazily from the
// exporting kernel — one wire round trip on the first call, cached on the
// proxy thereafter.
func (c *Capability) Methods() []string {
	if pb := c.g.proxy.Load(); pb != nil {
		return pb.t.ProxyMethods()
	}
	nt := c.g.natTarget.Load()
	if nt == nil {
		return nil
	}
	names := make([]string, 0, len(nt.methods))
	for n := range nt.methods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InternMethod returns the capability's own spelling of the method name in
// b — the string its method table is keyed by — so a transport holding the
// name as bytes of an inbound frame can invoke without allocating a string
// per call. Names are interned against this one capability's method set,
// which no peer can grow. ok is false when c has no native method of that
// name (proxy and VM capabilities, revoked gates, unknown names).
func (c *Capability) InternMethod(b []byte) (name string, ok bool) {
	if nt := c.g.natTarget.Load(); nt != nil {
		if m := nt.methods[string(b)]; m != nil {
			return m.name, true
		}
	}
	return "", false
}

// Invoke performs a cross-domain call on a native capability from the
// calling goroutine's task. Results exclude the trailing error, which is
// returned separately (copied — callee errors never leak callee objects).
//
//jk:blocking
func (c *Capability) Invoke(name string, args ...any) ([]any, error) {
	k := c.g.k

	// Thread info lookup (the expensive native-path goroutine-id lookup).
	task := k.currentTask()
	if task == nil {
		return nil, ErrNotEntered
	}
	return c.invokeFrom(task, name, args)
}

// InvokeFrom performs the call with an explicit task, the "optimized"
// variant that skips the goroutine-id lookup (benchmarked as an ablation).
//
//jk:blocking
func (c *Capability) InvokeFrom(task *Task, name string, args ...any) ([]any, error) {
	return c.invokeFrom(task, name, args)
}

func (c *Capability) invokeFrom(task *Task, name string, args []any) ([]any, error) {
	g := c.g
	k := g.k
	caller, m, pt, err := c.nativeCallee(task, name)
	if err != nil {
		return nil, err
	}
	if pt != nil {
		// The transport is reached through an interface, which escape
		// analysis cannot see through: it gets its own copy of the vector,
		// so the caller's stays on the caller's stack.
		return c.invokeProxy(task, caller, pt, name, slices.Clone(args))
	}
	start := k.tm.callStart(task)

	// Copy arguments in (capabilities by reference).
	var inBuf [5]reflect.Value
	in, copied, err := k.nativeArgs(m, args, true, inBuf[:0])
	if err != nil {
		return nil, err
	}
	results, merr, callErr := g.crossNative(task, m, in)

	// The caller's segment may have been stopped or suspended while the
	// callee ran; honor it at the boundary (the native safepoint).
	if perr := task.Chain.Poll(); perr != nil {
		return nil, perr
	}
	task.charge(nativeCall, caller, g.owner, copied)
	task.Thread.Publish()
	k.tm.span(nativeCall, task, caller, g.owner, name, start, callErr)
	if callErr != nil {
		return nil, callErr
	}

	// Copy results out, in place: the vector is this call's own.
	for i, r := range results {
		if results[i], _, err = k.copyNative(r); err != nil {
			return nil, &CopyError{What: fmt.Sprintf("result %d of %s", i, name), Err: err}
		}
	}
	if merr != nil {
		return results, copyErrorOut(merr)
	}
	return results, nil
}

// nativeCallee is the front half of every native invoke: the calling domain
// of task and the method name names on c's gate. A proxy gate has no method
// table — the callee kernel performs the lookup — so it answers with its
// transport instead (m nil, pt set).
func (c *Capability) nativeCallee(task *Task, name string) (caller *Domain, m *nativeMethod, pt ProxyTarget, err error) {
	g := c.g
	caller = task.current()
	if caller == nil {
		return nil, nil, nil, ErrNotEntered
	}
	if caller.Terminated() {
		return nil, nil, nil, ErrDomainTerminated
	}
	nt := g.natTarget.Load()
	if nt == nil {
		if pb := g.proxy.Load(); pb != nil {
			return caller, nil, pb.t, nil
		}
		if reason := g.failureReason(); reason != nil {
			return nil, nil, nil, reason
		}
		if g.owner.Terminated() {
			return nil, nil, nil, ErrDomainTerminated
		}
		if g.vmTarget.Load() != nil {
			return nil, nil, nil, fmt.Errorf("jkernel: %w: VM capability requires InvokeVM", ErrNoSuchMethod)
		}
		return nil, nil, nil, ErrRevoked
	}
	m, ok := nt.methods[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrNoSuchMethod, name)
	}
	return caller, m, nil, nil
}

// nativeArgs makes args the callee's and conforms them to m's parameter
// types: the receiver and then one reflect value an argument, appended to
// in — the caller's stack buffer: the receiver and up to four arguments,
// nearly every method, never reach the heap (reflect's Call reads the slice
// and keeps nothing of it). With copyIn each argument is copied by the
// calling convention, straight into the reflect value Call takes, and
// copied reports the bytes; otherwise args are already the callee's own
// (ServeWire). Either way nativeArgs only reads args, so a local caller's
// variadic vector stays on its stack.
func (k *Kernel) nativeArgs(m *nativeMethod, args []any, copyIn bool, in []reflect.Value) (_ []reflect.Value, copied int64, err error) {
	ft := m.typ
	if ft.NumIn() != len(args) && !ft.IsVariadic() {
		return nil, 0, fmt.Errorf("jkernel: %s wants %d args, got %d", m.name, ft.NumIn(), len(args))
	}
	in = append(in, m.recv)
	for i, a := range args {
		var rv reflect.Value
		if copyIn {
			var n int64
			if rv, n, err = k.copyNativeValue(a); err != nil {
				return nil, 0, &CopyError{What: fmt.Sprintf("argument %d of %s", i, m.name), Err: err}
			}
			copied += n
		} else {
			rv = reflect.ValueOf(a)
		}
		var want reflect.Type
		if ft.IsVariadic() && i >= ft.NumIn()-1 {
			want = ft.In(ft.NumIn() - 1).Elem()
		} else {
			want = ft.In(i)
		}
		if rv, err = conform(rv, want); err != nil {
			return nil, 0, fmt.Errorf("jkernel: %s argument %d: %w", m.name, i, err)
		}
		in = append(in, rv)
	}
	return in, copied, nil
}

// crossNative is the gate crossing every native LRMI makes, whoever the
// caller: switch to the callee's segment, run m on arguments that are
// already the callee's (nativeArgs), and switch back. The results are still
// the callee's; merr is the method's own error, callErr a call that did not
// run to its end.
func (g *Gate) crossNative(task *Task, m *nativeMethod, in []reflect.Value) (results []any, merr, callErr error) {
	// Segment switch (lock pair #1 on push, #2 on pop).
	seg := task.enter(g.owner)
	out, merr, callErr := safeCall(m, in)
	task.leave(seg)

	if len(out) == 0 {
		return nil, merr, callErr
	}
	// The last result is the error.
	last := len(out) - 1
	results = make([]any, last)
	for i := range results {
		results[i] = out[i].Interface()
	}
	if !out[last].IsNil() {
		merr = out[last].Interface().(error)
	}
	return results, merr, nil
}

// safeCall runs m — the null method as its bound method value, any other
// as fn with the receiver first in in — converting a callee panic into a
// RemoteError: a crash in one component must not crash the others (failure
// isolation). out is reflect's result vector, empty for the null method,
// whose error comes back as merr.
func safeCall(m *nativeMethod, in []reflect.Value) (out []reflect.Value, merr, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, merr = nil, nil
			err = &RemoteError{Class: "panic", Msg: fmt.Sprint(r)}
		}
	}()
	if m.null != nil {
		return nil, m.null(), nil
	}
	return m.fn.Call(in), nil, nil
}

// copyErrorOut transfers a callee error to the caller. Kernel sentinel
// errors keep their identity, and errors wrapping a sentinel (a proxy's
// "connection lost" fault, say) are rebuilt around the same sentinel so
// errors.Is works across domains; everything else crosses as a copied
// RemoteError.
func copyErrorOut(err error) error {
	switch err {
	case ErrRevoked, ErrDomainTerminated, ErrNotRemote, ErrNoSuchMethod, ErrNotEntered:
		return err
	}
	for _, sentinel := range []error{ErrRevoked, ErrDomainTerminated, ErrNotRemote, ErrNoSuchMethod, ErrNotEntered} {
		if errors.Is(err, sentinel) {
			return fmt.Errorf("%w: %s", sentinel, err.Error())
		}
	}
	if re, ok := err.(*RemoteError); ok {
		return &RemoteError{Class: re.Class, Msg: re.Msg}
	}
	return &RemoteError{Class: fmt.Sprintf("%T", err), Msg: err.Error()}
}

// copyNative applies the calling convention to a Go value: capabilities by
// reference, everything else deep-copied by the type's registered mode. The
// transfer size comes out of the copy itself: the fast-copy plan adds it up
// as it goes, and a serialized value is charged its intermediate byte
// array, as on the VM path.
func (k *Kernel) copyNative(v any) (any, int64, error) {
	out, n, err := k.copyNativeValue(v)
	if err != nil || !out.IsValid() {
		return nil, n, err
	}
	return out.Interface(), n, nil
}

// copyNativeValue is copyNative with the copy as a reflect.Value, the
// zero Value for nil: a copied struct is the slot the copy filled, which
// an argument hands to reflect's Call without boxing it.
func (k *Kernel) copyNativeValue(v any) (reflect.Value, int64, error) {
	if v == nil {
		return reflect.Value{}, 0, nil
	}
	if c, ok := v.(*Capability); ok {
		return reflect.ValueOf(c), 8, nil
	}
	switch k.copyModeFor(v) {
	case copyModeSeri:
		out, n, err := seri.CopyValue(k.seriReg, v)
		return out, int64(n), err
	case copyModeFastGraph:
		return k.graphCop.CopyValue(v)
	default:
		return k.copier.CopyValue(v)
	}
}

// conform adapts a copied value, the zero Value for nil, to the parameter
// type, converting numeric widths that the copy normalized. An integer is
// not a string: reflect would convert it to the rune it encodes.
func conform(rv reflect.Value, want reflect.Type) (reflect.Value, error) {
	if !rv.IsValid() {
		switch want.Kind() {
		case reflect.Ptr, reflect.Interface, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan:
			return reflect.Zero(want), nil
		}
		return reflect.Value{}, fmt.Errorf("nil for non-nilable %v", want)
	}
	if rv.Type().AssignableTo(want) {
		return rv, nil
	}
	if rv.Type().ConvertibleTo(want) {
		switch rv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			if want.Kind() != reflect.String {
				return rv.Convert(want), nil
			}
		case reflect.String:
			return rv.Convert(want), nil
		}
	}
	return reflect.Value{}, fmt.Errorf("%v is not assignable to %v", rv.Type(), want)
}

// Bind fills a struct of func fields with typed stubs for this capability:
// the Go equivalent of casting a capability to a remote interface. Each
// exported func field must name a remote method; its last result must be
// error. Calls through the stub follow the full LRMI path.
//
//	var files struct {
//	    Read  func(name string) ([]byte, error)
//	    Write func(name string, data []byte) error
//	}
//	if err := cap.Bind(&files); err != nil { ... }
//	data, err := files.Read("motd")
func (c *Capability) Bind(stubStruct any) error {
	pv := reflect.ValueOf(stubStruct)
	if pv.Kind() != reflect.Ptr || pv.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("jkernel: Bind wants a pointer to a struct of funcs")
	}
	sv := pv.Elem()
	st := sv.Type()
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() != reflect.Func {
			continue
		}
		ft := f.Type
		if ft.NumOut() == 0 || ft.Out(ft.NumOut()-1) != errType {
			return fmt.Errorf("jkernel: stub %s must return error last", f.Name)
		}
		name := f.Name
		stub := reflect.MakeFunc(ft, func(in []reflect.Value) []reflect.Value {
			// Invoke keeps nothing of the vector: up to four arguments
			// stay on this stack.
			var argBuf [4]any
			args := argBuf[:0]
			for _, v := range in {
				args = append(args, v.Interface())
			}
			results, err := c.Invoke(name, args...)
			out := make([]reflect.Value, ft.NumOut())
			for j := 0; j < ft.NumOut()-1; j++ {
				if j < len(results) && results[j] != nil {
					rv, cerr := conform(reflect.ValueOf(results[j]), ft.Out(j))
					if cerr != nil && err == nil {
						err = cerr
					}
					if cerr == nil {
						out[j] = rv
						continue
					}
				}
				out[j] = reflect.Zero(ft.Out(j))
			}
			if err != nil {
				out[ft.NumOut()-1] = reflect.ValueOf(&err).Elem()
			} else {
				out[ft.NumOut()-1] = reflect.Zero(errType)
			}
			return out
		})
		sv.Field(i).Set(stub)
	}
	return nil
}
