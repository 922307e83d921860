package vmkit

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// heldResolver resolves from sources and blocks the first query for held
// until release is closed, signalling asked when it starts to wait.
func heldResolver(t *testing.T, vm *VM, held string, sources ...string) (r ResolverFunc, asked, release chan struct{}) {
	t.Helper()
	classes := map[string][]byte{}
	for _, src := range sources {
		b, err := AssembleBytes(src)
		if err != nil {
			t.Fatalf("assemble: %v\nsource:\n%s", err, src)
		}
		def, err := DecodeClass(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		classes[def.Name] = b
	}
	next := MapResolver(classes, vm.BootResolver())
	asked, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(name string) (*Resolution, error) {
		if name == held {
			once.Do(func() {
				close(asked)
				<-release
			})
		}
		return next(name)
	}, asked, release
}

// A class whose link group is still linking is no other goroutine's: while
// A's resolver waits on C, a Lookup of A from another goroutine waits for
// the group, and gets nil once the group withdraws A for its verify error,
// so A.broken never runs; C and A's array class go with it. Before,
// Lookup returned A mid-link and A.broken called P's private method.
func TestLinkGroupHidesClassInProgress(t *testing.T) {
	vm := MustNew(Profile{})
	r, asked, release := heldResolver(t, vm, "C", `
.class P
.field static ran I
.method private static hidden ()V
  iconst 1
  putstatic P.ran:I
  ret
.end
`, `
.class A
.method static broken ()V
  invokestatic P.hidden:()V
  ret
.end
.method static viaC ()I
  invokestatic C.go:()I
  retv
.end
.method static many ()V
  iconst 2
  newarr [LA;
  pop
  ret
.end
`, `
.class C
.method static go ()I
  iconst 7
  retv
.end
`)
	ns := vm.NewNamespace("test", r)
	p, err := ns.Resolve("P")
	if err != nil {
		t.Fatal(err)
	}
	linked := make(chan error)
	go func() {
		_, err := ns.Resolve("A")
		linked <- err
	}()
	<-asked

	looked := make(chan *Class)
	called := make(chan error, 1)
	go func() {
		a := ns.Lookup("A")
		looked <- a
		if a == nil {
			return
		}
		th := vm.NewThread("other")
		defer vm.Detach(th)
		_, err := vm.Call(th, a.MethodBySig("broken", "()V"), nil)
		called <- err
	}()
	select {
	case a := <-looked:
		t.Fatalf("Lookup(A) returned %v while A's group was still linking", a)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	const verifyErr = "private method P.hidden"
	if err := <-linked; err == nil || !strings.Contains(err.Error(), verifyErr) {
		t.Fatalf("Resolve(A) = %v, want the verify error naming %s", err, verifyErr)
	}
	if a := <-looked; a != nil {
		t.Fatalf("Lookup(A) = %v after its group was withdrawn, want nil; broken: %v", a, <-called)
	}
	if got := p.Statics[p.FieldByName("ran").Slot]; got.I != 0 {
		t.Fatalf("P.hidden ran (P.ran = %v)", got)
	}
	for _, name := range []string{"C", "[LA;"} {
		if c := ns.Lookup(name); c != nil {
			t.Errorf("%s stayed published after A's group was withdrawn", name)
		}
	}
}

// Two goroutines resolving one class get the one class: the second waits
// while the first links it. Before, the second got "circular
// superclass/interface chain" while the first resolved X's superclass.
func TestLinkGroupConcurrentResolve(t *testing.T) {
	vm := MustNew(Profile{})
	r, asked, release := heldResolver(t, vm, "S", `
.class S
.method static one ()I
  iconst 1
  retv
.end
`, `
.class X super S
.method static two ()I
  invokestatic S.one:()I
  iconst 1
  iadd
  retv
.end
`)
	ns := vm.NewNamespace("test", r)
	type result struct {
		c   *Class
		err error
	}
	first, second := make(chan result), make(chan result)
	go func() {
		c, err := ns.Resolve("X")
		first <- result{c, err}
	}()
	<-asked
	go func() {
		c, err := ns.Resolve("X")
		second <- result{c, err}
	}()
	select {
	case r := <-second:
		t.Fatalf("second Resolve(X) = %v, %v while the first was linking X", r.c, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	a, b := <-first, <-second
	if a.err != nil || b.err != nil {
		t.Fatalf("Resolve(X): %v and %v, want no error", a.err, b.err)
	}
	if a.c != b.c {
		t.Fatalf("two goroutines resolved X to two classes")
	}
	if got := callStatic(t, vm, ns, "X.two:()I"); got.I != 2 {
		t.Fatalf("X.two() = %v, want 2", got)
	}
}
