package core

import (
	"bytes"
	"reflect"
	"testing"

	"jkernel/internal/raceflag"
	"jkernel/internal/vmkit"
)

// The Go<->VM boundary of InvokeVM: one copy each way, made in the domain
// that receives it.

const goVMIface = `
.class Page interface implements jk/kernel/Remote
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
.end
.method stored ()[B
.end
`

// PageImpl.service keeps its body argument and answers with its static
// document — the reference itself, not a copy.
const goVMImpl = `
.class PageImpl implements Page
.field static doc [B
.field static last [B
.method static configure ([B)V
  load 0
  putstatic PageImpl.doc:[B
  ret
.end
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  load 3
  putstatic PageImpl.last:[B
  getstatic PageImpl.doc:[B
  retv
.end
.method stored ()[B
  getstatic PageImpl.last:[B
  retv
.end
`

// newPageServlet returns a capability for a PageImpl serving doc, and a
// detached task of another domain to call it from.
func newPageServlet(t *testing.T, doc []byte) (*Capability, *Task) {
	t.Helper()
	k := MustNew(Options{})
	host, err := k.NewDomain(DomainConfig{Name: "host",
		Classes: map[string][]byte{"Page": mustAsm(t, goVMIface), "PageImpl": mustAsm(t, goVMImpl)}})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := host.NS.NewArray("[B", len(doc))
	if err != nil {
		t.Fatal(err)
	}
	copy(arr.Bytes, doc)
	conf := k.NewTask(host, "configure")
	_, err = conf.CallStatic("PageImpl.configure:([B)V", vmkit.RefVal(arr))
	conf.Close()
	if err != nil {
		t.Fatal(err)
	}
	target, err := host.NewInstance("PageImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(host, target)
	if err != nil {
		t.Fatal(err)
	}
	user, err := k.NewDomain(DomainConfig{Name: "user"})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewDetachedTask(user, "caller")
	t.Cleanup(task.Close)
	return cap, task
}

func TestInvokeVMCopiesOnceEachWay(t *testing.T) {
	cap, task := newPageServlet(t, []byte("the document"))

	// The servlet's stored argument is its own: the caller's slice is not.
	body := []byte("body-1")
	out, err := cap.InvokeVM(task, "service", "POST", "/p", body)
	if err != nil {
		t.Fatal(err)
	}
	body[0] = 'X'
	stored, err := cap.InvokeVM(task, "stored")
	if err != nil {
		t.Fatal(err)
	}
	if got := stored.([]byte); !bytes.Equal(got, []byte("body-1")) {
		t.Errorf("servlet's stored body = %q after the caller wrote to its slice, want body-1", got)
	}

	// The result is the caller's own: the servlet's document is not.
	page := out.([]byte)
	if string(page) != "the document" {
		t.Fatalf("page = %q", page)
	}
	page[0] = 'X'
	again, err := cap.InvokeVM(task, "service", "GET", "/p", []byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := again.([]byte); string(got) != "the document" {
		t.Errorf("servlet's document = %q after the caller wrote to the result, want it unchanged", got)
	}
}

// An argument of the wrong class is still refused by the callee's gate as a
// cast failure, now that it is built in the callee's domain directly.
func TestInvokeVMWrongClassIsClassCast(t *testing.T) {
	cap, task := newPageServlet(t, nil)
	_, err := cap.InvokeVM(task, "service", "GET", []byte("/not-a-string"), []byte(nil))
	te, ok := err.(*ThrownVMError)
	if !ok || te.Throwable.Class.Name != vmkit.ClassCastEx {
		t.Fatalf("byte array for a String parameter: got %v, want ClassCastException", err)
	}
	if _, err := cap.InvokeVM(task, "service", "GET", "/p", "not-bytes"); err == nil {
		t.Error("String for a [B parameter accepted")
	}
}

// Measures 7: method and URI as VM strings in the callee's domain (1
// allocation each: the string, its field, its byte array and the bytes in
// one block), the empty body array, the result's bytes and their box, and
// the boxed arguments. It was 9 while a string was two blocks, 14 while a
// VM object's fields and bytes were allocations of their own, and 28
// built in the caller's domain and copied again.
func TestAllocsInvokeVMFromGo(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	cap, task := newPageServlet(t, make([]byte, 100))
	method, uri := string([]byte("GET")), string([]byte("/v100/index.html"))
	got := testing.AllocsPerRun(200, func() {
		if _, err := cap.InvokeVM(task, "service", method, uri, []byte(nil)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 7 {
		t.Errorf(`InvokeVM("service", string, string, []byte): %.1f allocs/call, want at most 7`, got)
	}
}

type aliasLeaf struct{ N int }

// aliasProbe reports whether its argument's two pointer fields arrived
// pointing at one object: serialization keeps aliasing, a tree fast-copy
// copies the object twice.
type aliasProbe struct{}

func (aliasProbe) Aliased(v any) (bool, error) {
	rv := reflect.ValueOf(v)
	return rv.Field(0).Pointer() == rv.Field(1).Pointer(), nil
}

// Two types may print alike — the same name in two packages, or in two
// functions, as here — and still be two types: each keeps the copy mode it
// was registered with. Keyed by fmt's %T they shared one, and the second
// registration re-routed the first.
func TestCopyModeKeyedByTypeNotName(t *testing.T) {
	leaf := &aliasLeaf{N: 1}
	serialized := func() any {
		type T struct{ A, B *aliasLeaf }
		return T{leaf, leaf}
	}()
	fastCopied := func() any {
		type T struct{ A, B *aliasLeaf }
		return T{leaf, leaf}
	}()
	if a, b := reflect.TypeOf(serialized), reflect.TypeOf(fastCopied); a == b || a.String() != b.String() {
		t.Fatalf("want two types that print alike, have %v and %v (same: %v)", a, b, a == b)
	}

	k := MustNew(Options{})
	k.RegisterSerializable("test.T", serialized)
	k.RegisterFastCopy(fastCopied, false)
	host, err := k.NewDomain(DomainConfig{Name: "host"})
	if err != nil {
		t.Fatal(err)
	}
	user, err := k.NewDomain(DomainConfig{Name: "user"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateNativeCapability(host, aliasProbe{})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewDetachedTask(user, "caller")
	defer task.Close()
	for _, c := range []struct {
		mode string
		arg  any
		want bool
	}{{"serializable", serialized, true}, {"fast-copy tree", fastCopied, false}} {
		res, err := cap.InvokeFrom(task, "Aliased", c.arg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].(bool); got != c.want {
			t.Errorf("%s T: aliasing kept = %v, want %v (copied under the other T's mode)", c.mode, got, c.want)
		}
	}
}
