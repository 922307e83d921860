package vmkit

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// dispatchSigs are the "()I" methods generated classes and interfaces
// declare. hashCode is Object's, so a class that declares it overrides
// Object's slot and an interface that declares it redeclares that slot.
var dispatchSigs = []string{"m0", "m1", "m2", "m3", "hashCode"}

// genHierarchy writes a seeded set of interfaces and classes. Each
// interface may extend earlier ones; each class extends Object or an
// earlier class and implements some interfaces. A class declares some of
// dispatchSigs, each returning an id unique to the (class, method) pair;
// an abstract class may declare some of them abstract instead. Nothing
// makes a class implement what its interfaces declare.
func genHierarchy(rng *rand.Rand) []string {
	var srcs []string
	nIfaces := 2 + rng.Intn(4)
	for i := 0; i < nIfaces; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, ".class I%d interface", i)
		if sup := pickSome(rng, "I", i); len(sup) > 0 {
			fmt.Fprintf(&b, " implements %s", strings.Join(sup, " "))
		}
		b.WriteString("\n")
		for _, name := range dispatchSigs {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, ".method %s ()I\n.end\n", name)
			}
		}
		srcs = append(srcs, b.String())
	}
	nClasses := 3 + rng.Intn(6)
	for i := 0; i < nClasses; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, ".class C%d", i)
		if i > 0 && rng.Intn(4) != 0 {
			fmt.Fprintf(&b, " super C%d", rng.Intn(i))
		}
		if ifs := pickSome(rng, "I", nIfaces); len(ifs) > 0 {
			fmt.Fprintf(&b, " implements %s", strings.Join(ifs, " "))
		}
		abstract := rng.Intn(4) == 0
		if abstract {
			b.WriteString(" abstract")
		}
		b.WriteString("\n")
		for j, name := range dispatchSigs {
			switch {
			case abstract && rng.Intn(4) == 0:
				fmt.Fprintf(&b, ".method abstract %s ()I\n.end\n", name)
			case rng.Intn(2) == 0:
				fmt.Fprintf(&b, ".method %s ()I\n  iconst %d\n  retv\n.end\n", name, 1000+100*i+j)
			}
		}
		srcs = append(srcs, b.String())
	}
	return srcs
}

// pickSome returns a random subset of prefix0 .. prefix<n-1>.
func pickSome(rng *rand.Rand, prefix string, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			out = append(out, fmt.Sprintf("%s%d", prefix, i))
		}
	}
	return out
}

// descends and implementsIface are the hierarchy by definition: the
// superclass chain, and the interface lists reached from it.
func descends(c, k *Class) bool {
	for ; c != nil; c = c.Super {
		if c == k {
			return true
		}
	}
	return false
}

func implementsIface(c, iface *Class) bool {
	var reaches func(it *Class) bool
	reaches = func(it *Class) bool {
		if it == iface {
			return true
		}
		for _, sup := range it.Interfaces {
			if reaches(sup) {
				return true
			}
		}
		return false
	}
	for k := c; k != nil; k = k.Super {
		for _, it := range k.Interfaces {
			if reaches(it) {
				return true
			}
		}
	}
	return false
}

// dispatchSite is one call site of the generated Sites class: an
// invokevirtual or invokeinterface of ref.name:()I.
type dispatchSite struct {
	op     string // "invokevirtual" or "invokeinterface"
	ref    *Class // the class or interface the instruction names
	name   string
	decl   *Method // what the site links to
	method string  // the Sites method holding the site
}

// TestDispatchAgreesWithVtable checks invokevirtual and invokeinterface
// against the vtable map: on seeded hierarchies, every receiver of every
// non-interface class reaches exactly the method recv.Class.vtable[sig]
// holds, and faults with "no implementation of <sig> in <class>" where it
// holds none or an abstract one. A receiver outside the site's hierarchy
// faults the same way and never runs anything.
func TestDispatchAgreesWithVtable(t *testing.T) {
	var seen struct {
		deepOverride, ifaceViaSuper, superIface, missing, objectViaIface, outside int
	}
	for seed := int64(1); seed <= 40; seed++ {
		srcs := genHierarchy(rand.New(rand.NewSource(seed)))
		vm, ns := newTestNS(t, srcs...)
		var classes, ifaces []*Class
		for _, src := range srcs {
			name := strings.Fields(src)[1]
			c, err := ns.Resolve(name)
			if err != nil {
				t.Fatalf("seed %d: resolve %s: %v\n%s", seed, name, err, strings.Join(srcs, "\n"))
			}
			if c.IsInterface() {
				ifaces = append(ifaces, c)
			} else {
				classes = append(classes, c)
			}
		}

		// One site per (class or interface, method) pair that links.
		var sites []dispatchSite
		var b strings.Builder
		b.WriteString(".class Sites\n")
		addSite := func(op string, ref *Class) {
			for _, name := range dispatchSigs {
				decl := ref.MethodBySig(name, "()I")
				if decl == nil {
					continue
				}
				s := dispatchSite{op: op, ref: ref, name: name, decl: decl, method: fmt.Sprintf("s%d", len(sites))}
				fmt.Fprintf(&b, ".method static %s (L%s;)I\n  load 0\n  %s %s.%s:()I\n  retv\n.end\n",
					s.method, ref.Name, op, ref.Name, name)
				sites = append(sites, s)
			}
		}
		for _, c := range classes {
			addSite("invokevirtual", c)
		}
		for _, i := range ifaces {
			addSite("invokeinterface", i)
		}
		sitesClass, err := ns.DefineDef(MustAssemble(b.String()))
		if err != nil {
			t.Fatalf("seed %d: sites: %v", seed, err)
		}

		th := vm.NewThread("dispatch")
		for _, rc := range classes {
			recv := &Object{Class: rc, Fields: make([]Value, rc.NumInstanceSlots())}
			for _, s := range sites {
				sig := s.name + ":()I"
				oracle := rc.vtable[sig]
				inside := descends(rc, s.decl.Owner)
				if s.decl.Owner.IsInterface() {
					inside = implementsIface(rc, s.decl.Owner)
				}
				got := rc.dispatch(s.decl)
				noImpl := fmt.Sprintf("no implementation of %s in %s", sig, rc.Name)
				v, callErr := vm.Call(th, sitesClass.MethodBySig(s.method, "(L"+s.ref.Name+";)I"), []Value{RefVal(recv)})
				where := fmt.Sprintf("seed %d: %s %s.%s on %s", seed, s.op, s.ref.Name, s.name, rc.Name)

				if !inside {
					seen.outside++
					if got != nil {
						t.Errorf("%s: receiver outside the hierarchy dispatched to %s.%s", where, got.Owner.Name, got.Name)
					}
					if callErr == nil || !strings.Contains(callErr.Error(), noImpl) {
						t.Errorf("%s: outside the hierarchy got (%v, %v), want %q", where, v, callErr, noImpl)
					}
					continue
				}
				if got != oracle {
					t.Errorf("%s: dispatch = %v, vtable = %v", where, got, oracle)
				}
				if oracle == nil || oracle.Flags&MAbstract != 0 {
					seen.missing++
					var te *ThrownError
					if !errors.As(callErr, &te) || te.Throwable.Class.Name != ClassError || !strings.Contains(callErr.Error(), noImpl) {
						t.Errorf("%s: got (%v, %v), want %q", where, v, callErr, noImpl)
					}
					continue
				}
				want, err := vm.Call(th, oracle, []Value{RefVal(recv)})
				if err != nil {
					t.Fatalf("%s: oracle call: %v", where, err)
				}
				if callErr != nil || v.I != want.I {
					t.Errorf("%s: got (%v, %v), want %d from %s.%s", where, v, callErr, want.I, oracle.Owner.Name, oracle.Name)
				}

				// What the generated hierarchies must have covered.
				depth := func(c *Class) int { return len(c.supers) }
				switch {
				case !s.decl.Owner.IsInterface() && s.op == "invokeinterface":
					seen.objectViaIface++
				case !s.decl.Owner.IsInterface() && depth(oracle.Owner)-depth(s.decl.Owner) >= 2:
					seen.deepOverride++
				case s.decl.Owner.IsInterface():
					direct := false
					for _, it := range rc.Interfaces {
						direct = direct || it == s.decl.Owner
					}
					listed := false
					for k := rc; k != nil; k = k.Super {
						for _, it := range k.Interfaces {
							listed = listed || it == s.decl.Owner
						}
					}
					if !direct && listed {
						seen.ifaceViaSuper++
					}
					if !listed {
						seen.superIface++
					}
				}
			}
		}
		vm.Detach(th)
	}
	t.Logf("cases: %+v", seen)
	if seen.deepOverride == 0 || seen.ifaceViaSuper == 0 || seen.superIface == 0 ||
		seen.missing == 0 || seen.objectViaIface == 0 || seen.outside == 0 {
		t.Errorf("the seeds left a case uncovered: %+v", seen)
	}
}

// TestDispatchOnArrayReceiver calls Object's methods on arrays, through
// invokevirtual and through an interface ref: an array dispatches as its
// superclass Object does.
func TestDispatchOnArrayReceiver(t *testing.T) {
	vm, ns := newTestNS(t, `
.class Hashable interface
.method m ()I
.end
`, `
.class ArrSites
.method static virt (Ljk/lang/Object;)I
  load 0
  invokevirtual jk/lang/Object.hashCode:()I
  retv
.end
.method static iface (LHashable;)I
  load 0
  invokeinterface Hashable.hashCode:()I
  retv
.end
.method static same (Ljk/lang/Object;)I
  load 0
  load 0
  invokevirtual jk/lang/Object.equals:(Ljk/lang/Object;)I
  retv
.end
`)
	obj := vm.SystemClass(ClassObject)
	for _, desc := range []string{"[I", "[B", "[LHashable;", "[[D"} {
		arr, err := ns.NewArray(desc, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range obj.Methods() {
			if got, want := arr.Class.dispatch(m), arr.Class.vtable[m.Sig()]; got != want {
				t.Errorf("%s: dispatch of %s = %v, vtable = %v", desc, m.Sig(), got, want)
			}
		}
		hash := callStatic(t, vm, ns, "jk/lang/Object.hashCode:()I", RefVal(arr))
		for _, site := range []string{"ArrSites.virt:(Ljk/lang/Object;)I", "ArrSites.iface:(LHashable;)I"} {
			if got := callStatic(t, vm, ns, site, RefVal(arr)); got.I != hash.I {
				t.Errorf("%s on %s = %d, want Object.hashCode's %d", site, desc, got.I, hash.I)
			}
		}
		if got := callStatic(t, vm, ns, "ArrSites.same:(Ljk/lang/Object;)I", RefVal(arr)); got.I != 1 {
			t.Errorf("%s: equals(self) = %d, want 1", desc, got.I)
		}
	}
}

// TestProfileAInterfaceDispatchBuildsKey pins Table 1's modelled
// invokeinterface: under ProfileA a call still builds its composite key in
// vm.ifaceKey, rather than taking the itable.
func TestProfileAInterfaceDispatchBuildsKey(t *testing.T) {
	vm := MustNew(ProfileA)
	classes := map[string][]byte{}
	for _, src := range []string{
		".class Speaker interface\n.method speak ()I\n.end\n",
		`.class Dog implements Speaker
.method speak ()I
  iconst 42
  retv
.end
.method static test (LSpeaker;)I
  load 0
  invokeinterface Speaker.speak:()I
  retv
.end
`,
	} {
		def := MustAssemble(src)
		classes[def.Name] = EncodeClass(def)
	}
	ns := vm.NewNamespace("test", MapResolver(classes, vm.BootResolver()))
	dog, err := ns.Resolve("Dog")
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ns.NewInstance(dog)
	if err != nil {
		t.Fatal(err)
	}
	if got := callStatic(t, vm, ns, "Dog.test:(LSpeaker;)I", RefVal(recv)); got.I != 42 {
		t.Fatalf("speak() = %d, want 42", got.I)
	}
	if got, want := string(vm.ifaceKey), "Dog|speak:()I"; got != want {
		t.Errorf("ifaceKey = %q, want %q", got, want)
	}
}
