package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"jkernel/internal/vmkit"
)

// The copy oracle: seeded graphs over Serializable (S), FastCopy (F) and
// FastCopyGraph (G) classes, copied from domain a to domain b with
// CopyValueBetween and checked against their source — same shape and
// content, no object shared but capabilities, sharing kept where the
// class's copy mode keeps it — against the transfer size the kernel
// reported for the same graph before its copy paths were reworked, and
// against the destination's allocation bytes, the layout of what it got.

const oracleCap = `
.class Cap interface implements jk/kernel/Remote
.method ping ()I
.end
`

const oracleCapImpl = `
.class CapImpl implements Cap
.method ping ()I
  iconst 1
  retv
.end
`

// oracleNode declares one node class: every kind of field a copy meets.
func oracleNode(name, iface string) []byte {
	return asmBytes(fmt.Sprintf(`.class %[1]s implements %[2]s
.field i I
.field f D
.field b [B
.field n [I
.field d [D
.field s Ljk/lang/String;
.field l L%[1]s;
.field r L%[1]s;
.field c LCap;
.field a [L%[1]s;
`, name, iface))
}

func asmBytes(src string) []byte {
	b, err := vmkit.AssembleBytes(src)
	if err != nil {
		panic(err)
	}
	return b
}

type oracleFixture struct {
	k    *Kernel
	a, b *Domain
	cap  *vmkit.Object // a capability stub: the one object a copy may share
}

// newOracleFixture builds domains a and b. a defines the node classes,
// Table 4's MsgS, a capability, Plain (shared, but of no copy mode),
// Hidden (FastCopy, not shared) and Other (FastCopy, not shared; b
// defines its own).
func newOracleFixture(t testing.TB) *oracleFixture {
	t.Helper()
	k := MustNew(Options{})
	a, err := k.NewDomain(DomainConfig{Name: "a", Classes: map[string][]byte{
		"Cap":     asmBytes(oracleCap),
		"CapImpl": asmBytes(oracleCapImpl),
		"S":       oracleNode("S", vmkit.IfaceSerializable),
		"F":       oracleNode("F", vmkit.IfaceFastCopy),
		"G":       oracleNode("G", vmkit.IfaceFastCopyGraph),
		"Plain":   asmBytes(".class Plain\n.field x I\n"),
		"Hidden":  asmBytes(".class Hidden implements jk/io/FastCopy\n.field x I\n"),
		"Other":   asmBytes(".class Other implements jk/io/FastCopy\n.field x I\n"),
		"MsgS":    asmBytes(copyMsgS),
	}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := k.ShareClasses(a, "S", "F", "G", "Plain", "MsgS")
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.NewDomain(DomainConfig{Name: "b", Shared: []*SharedClass{sc}, Classes: map[string][]byte{
		"Other": asmBytes(".class Other implements jk/io/FastCopy\n.field x I\n"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	impl, err := a.NewInstance("CapImpl")
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.CreateVMCapability(a, impl)
	if err != nil {
		t.Fatal(err)
	}
	return &oracleFixture{k: k, a: a, b: b, cap: c.Stub}
}

func (f *oracleFixture) node(t testing.TB, class string) *vmkit.Object {
	t.Helper()
	o, err := f.a.NewInstance(class)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func (f *oracleFixture) array(t testing.TB, desc string, n int) *vmkit.Object {
	t.Helper()
	o, err := f.a.NS.NewArray(desc, n)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func (f *oracleFixture) str(t testing.TB, s string) *vmkit.Object {
	t.Helper()
	o, err := f.a.NS.NewString(s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func setField(o *vmkit.Object, name string, v vmkit.Value) {
	o.Fields[o.Class.FieldByName(name).Slot] = v
}

// oracleGraph is one generated argument.
type oracleGraph struct {
	kind string // "S", "F" or "G"
	root *vmkit.Object
	// serialRefArray is set when the graph holds an S reference array:
	// such a graph could not cross before serialization accepted the
	// destination's own array class.
	serialRefArray bool
}

// gen builds graph number seed. S and G graphs may share any node and
// form cycles; F graphs form a DAG of at most two references per node
// (an F copy duplicates what is shared, and a cycle would be too deep).
// Arrays and strings are shared between nodes now and then; capability
// fields all name f.cap.
func (f *oracleFixture) gen(t testing.TB, seed int) oracleGraph {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6f7261636c65))
	kind := []string{"S", "F", "G"}[seed%3]
	g := oracleGraph{kind: kind}
	nodes := make([]*vmkit.Object, 1+rng.IntN(10))
	for i := range nodes {
		nodes[i] = f.node(t, kind)
	}
	useRefArrays := kind != "S" || rng.IntN(2) == 0
	var arrays, strs []*vmkit.Object
	maybe := func(p int) bool { return rng.IntN(100) < p }
	prim := func(desc string) vmkit.Value {
		if maybe(30) {
			return vmkit.Null()
		}
		if len(arrays) > 0 && maybe(20) {
			for _, o := range arrays {
				if o.Class.Name == desc {
					return vmkit.RefVal(o)
				}
			}
		}
		o := f.array(t, desc, rng.IntN(25))
		for j := range o.Len() {
			switch desc {
			case "[B":
				o.Bytes[j] = byte(rng.Uint32())
			case "[I":
				o.SetWord(j, rng.Int64()>>rng.IntN(64))
			default:
				o.SetWord(j, int64(math.Float64bits(rng.NormFloat64()*1e3)))
			}
		}
		arrays = append(arrays, o)
		return vmkit.RefVal(o)
	}
	for i, n := range nodes {
		refs := 0
		ref := func() *vmkit.Object {
			lo := 0
			if kind == "F" {
				if refs == 2 || i+1 == len(nodes) {
					return nil
				}
				lo = i + 1
			}
			if maybe(35) {
				return nil
			}
			refs++
			return nodes[lo+rng.IntN(len(nodes)-lo)]
		}
		setField(n, "i", vmkit.IntVal(rng.Int64()>>rng.IntN(64)-rng.Int64N(2)<<62))
		switch rng.IntN(8) {
		case 0:
			setField(n, "f", vmkit.FloatVal(math.Copysign(0, -1)))
		case 1:
			setField(n, "f", vmkit.FloatVal(math.Inf(1)))
		case 2:
			setField(n, "f", vmkit.FloatVal(math.NaN()))
		default:
			setField(n, "f", vmkit.FloatVal(rng.NormFloat64()*1e6))
		}
		setField(n, "b", prim("[B"))
		setField(n, "n", prim("[I"))
		setField(n, "d", prim("[D"))
		switch {
		case maybe(30):
		case len(strs) > 0 && maybe(25):
			setField(n, "s", vmkit.RefVal(strs[rng.IntN(len(strs))]))
		default:
			var sb strings.Builder
			for range rng.IntN(20) {
				sb.WriteRune([]rune("ab z0é→€")[rng.IntN(8)])
			}
			s := f.str(t, sb.String())
			strs = append(strs, s)
			setField(n, "s", vmkit.RefVal(s))
		}
		if maybe(25) {
			setField(n, "c", vmkit.RefVal(f.cap))
		}
		if l := ref(); l != nil {
			setField(n, "l", vmkit.RefVal(l))
		}
		if r := ref(); r != nil {
			setField(n, "r", vmkit.RefVal(r))
		}
		if useRefArrays && maybe(40) {
			arr := f.array(t, "["+"L"+kind+";", rng.IntN(5))
			for j := range arr.Fields {
				arr.Fields[j] = vmkit.RefVal(ref())
			}
			setField(n, "a", vmkit.RefVal(arr))
		}
	}
	g.root = nodes[0]
	seen := map[*vmkit.Object]bool{}
	reach(g.root, f.cap, seen)
	for o := range seen {
		g.serialRefArray = g.serialRefArray || o.Class.Name == "[LS;"
	}
	return g
}

// reach returns every object reachable from o, not looking inside
// capabilities.
func reach(o *vmkit.Object, capStub *vmkit.Object, seen map[*vmkit.Object]bool) {
	if o == nil || seen[o] {
		return
	}
	seen[o] = true
	if o == capStub {
		return
	}
	for _, v := range o.Fields {
		if v.R != nil {
			reach(v.R, capStub, seen)
		}
	}
}

// checkCopy compares dup, the copy in f.b, with its source src. It
// returns the first difference, so any goroutine may call it.
func (f *oracleFixture) checkCopy(kind string, src, dup *vmkit.Object) error {
	srcSet, dupSet := map[*vmkit.Object]bool{}, map[*vmkit.Object]bool{}
	reach(src, f.cap, srcSet)
	reach(dup, f.cap, dupSet)
	for o := range dupSet {
		if srcSet[o] && o != f.cap {
			return fmt.Errorf("%s copy shares a %s with its source", kind, o.Class.Name)
		}
	}
	// keep: the copy mode maps each source object to one copy.
	keep := func(o *vmkit.Object) bool {
		return kind == "S" || kind == "G" && o.Class.Name == "G"
	}
	fwd, rev := map[*vmkit.Object]*vmkit.Object{}, map[*vmkit.Object]*vmkit.Object{}
	var walk func(s, c *vmkit.Object, path string) error
	walk = func(s, c *vmkit.Object, path string) error {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("%s %s: %s", kind, path, fmt.Sprintf(format, args...))
		}
		switch {
		case s == nil && c == nil:
			return nil
		case s == nil || c == nil:
			return bad("source %v, copy %v", s, c)
		case s == f.cap:
			if c != s {
				return bad("the capability was copied")
			}
			return nil
		}
		if prev, ok := rev[c]; ok {
			if prev != s {
				return bad("one copy stands for two source objects")
			}
			return nil
		}
		if prev, ok := fwd[s]; ok && keep(s) && prev != c {
			return bad("a shared %s was copied twice", s.Class.Name)
		}
		fwd[s], rev[c] = c, s
		if c.Owner != f.b.ID {
			return bad("copy owned by %d, want %d", c.Owner, f.b.ID)
		}
		switch {
		case s.Class.Name == vmkit.ClassString:
			if c.Class.Name != vmkit.ClassString || vmkit.StringText(c) != vmkit.StringText(s) {
				return bad("string %q copied as %q", vmkit.StringText(s), vmkit.StringText(c))
			}
		case s.Class.IsArray():
			if c.Class.Name != s.Class.Name || c.Class.NS != f.b.NS || c.Len() != s.Len() {
				return bad("%s[%d] copied as %s[%d]", s.Class.Name, s.Len(), c.Class.Name, c.Len())
			}
			switch {
			case s.Bytes != nil:
				if string(s.Bytes) != string(c.Bytes) {
					return bad("bytes differ")
				}
			default:
				for i := range s.Fields {
					if c.Fields[i].I != 0 {
						return bad("[%d] copied with I %d", i, c.Fields[i].I)
					}
					if err := walk(s.Fields[i].R, c.Fields[i].R, fmt.Sprintf("%s[%d]", path, i)); err != nil {
						return err
					}
				}
			}
		default:
			if c.Class != s.Class {
				return bad("%s copied as %s", s.Class.Name, c.Class.Name)
			}
			for i, sv := range s.Fields {
				cv := c.Fields[i]
				switch vmkit.DescKind(s.Class.InstanceFields()[i].Desc) {
				case vmkit.KInt, vmkit.KFloat:
					if sv != cv {
						return bad(".%d: %#x copied as %#x (R %v)", i, sv.I, cv.I, cv.R)
					}
				default:
					if cv.I != 0 {
						return bad(".%d: reference copied with I %d", i, cv.I)
					}
					if err := walk(sv.R, cv.R, fmt.Sprintf("%s.%d", path, i)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	return walk(src, dup, "root")
}

// oracleFigure is what one copy of a graph reported: CopyValueBetween's
// transfer size and the growth of b's AllocBytes.
type oracleFigure struct{ bytes, alloc int64 }

func (f *oracleFixture) copyFigure(t testing.TB, v vmkit.Value) (vmkit.Value, oracleFigure, error) {
	t.Helper()
	before := f.k.Meter.Snapshot(f.b.ID).AllocBytes
	out, n, err := f.k.CopyValueBetween(f.b, v)
	return out, oracleFigure{n, f.k.Meter.Snapshot(f.b.ID).AllocBytes - before}, err
}

// oracleFigures holds, by seed, the transfer size the copy paths reported
// before they were reworked, which the stream keeps, and b's allocation
// bytes since b pays for its copy's objects (layoutBytes). A seed
// without a figure is a graph with an S reference array, which could not
// cross then ("binds differently").
var oracleFigures = map[int]oracleFigure{
	0: {199, 760}, 1: {1655, 3936}, 2: {418, 736}, 3: {535, 1584},
	4: {191, 424}, 5: {344, 680}, 6: {604, 1520}, 7: {487, 1240},
	8: {2580, 6512}, 10: {1883, 4136}, 11: {458, 1360}, 12: {309, 1144},
	13: {459, 1416}, 14: {1551, 3288}, 16: {454, 984}, 17: {202, 600},
	19: {1087, 2048}, 20: {1536, 3912}, 22: {336, 728}, 23: {972, 2104},
	25: {878, 1888}, 26: {325, 720}, 28: {532, 1352}, 29: {198, 704},
	30: {742, 1840}, 31: {1477, 2784}, 32: {1002, 2536}, 33: {297, 1376},
	34: {1174, 2848}, 35: {2255, 5392}, 36: {395, 1256}, 37: {544, 1376},
	38: {312, 744}, 39: {584, 1712}, 40: {475, 1064}, 41: {2252, 6024},
	43: {358, 872}, 44: {160, 232}, 45: {550, 1584}, 46: {2561, 5600},
	47: {1228, 3440}, 48: {770, 3504}, 49: {1428, 3248}, 50: {819, 1824},
	51: {168, 456}, 52: {1999, 4992}, 53: {1101, 2960}, 54: {384, 680},
	55: {1073, 2872}, 56: {2087, 5000}, 58: {2376, 6192}, 59: {344, 1024},
}

const oracleSeeds = 60

func TestCopyOracle(t *testing.T) {
	f := newOracleFixture(t)
	for seed := range oracleSeeds {
		g := f.gen(t, seed)
		var first oracleFigure
		// The second copy reuses the scratch the first left behind.
		for round := range 2 {
			out, fig, err := f.copyFigure(t, vmkit.RefVal(g.root))
			if err != nil {
				t.Fatalf("seed %d (%s): %v", seed, g.kind, err)
			}
			if err := f.checkCopy(g.kind, g.root, out.R); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if want := layoutBytes(out.R, f.cap); fig.alloc != want {
				t.Errorf("seed %d (%s): b allocated %d B, its copy's layout %d B", seed, g.kind, fig.alloc, want)
			}
			if round == 0 {
				first = fig
			} else if fig != first {
				t.Errorf("seed %d (%s): second copy reports %+v, first %+v", seed, g.kind, fig, first)
			}
		}
		want, ok := oracleFigures[seed]
		switch {
		case !ok && !g.serialRefArray:
			t.Errorf("seed %d (%s): no figure recorded", seed, g.kind)
		case ok && g.serialRefArray:
			t.Errorf("seed %d (%s): a figure is recorded for a graph that could not cross", seed, g.kind)
		case ok && first != want:
			t.Errorf("seed %d (%s): transfer %d B, b allocated %d B; want %d, %d", seed, g.kind, first.bytes, first.alloc, want.bytes, want.alloc)
		}
	}
}

// TestCopyOracleErrors pins the fault texts of the copies that may not
// happen, on the fast-copy and the serialization path alike.
func TestCopyOracleErrors(t *testing.T) {
	f := newOracleFixture(t)
	chain := func(class string, n int, cycle bool) *vmkit.Object {
		head := f.node(t, class)
		last := head
		for range n - 1 {
			o := f.node(t, class)
			setField(o, "l", vmkit.RefVal(last))
			last = o
		}
		if cycle {
			setField(head, "l", vmkit.RefVal(last))
		}
		return last
	}
	holding := func(class string, o *vmkit.Object) *vmkit.Object {
		n := f.node(t, class)
		setField(n, "l", vmkit.RefVal(o))
		return n
	}
	const (
		tooDeep = "jkernel: jk/kernel/RemoteException: argument graph too deep or cyclic (declare jk/io/FastCopyGraph)"
		plain   = "jkernel: jk/kernel/RemoteException: objects of Plain cannot cross domains (not a capability, not Serializable/FastCopy)"
	)
	for _, c := range []struct {
		name string
		arg  *vmkit.Object
		want string
	}{
		{"unshared", f.node(t, "Hidden"), "jkernel: jk/kernel/RemoteException: class Hidden is not shared with domain b"},
		{"bound elsewhere", f.node(t, "Other"), "jkernel: jk/kernel/RemoteException: class Other is not shared with domain b"},
		{"unshared in F", holding("F", f.node(t, "Hidden")), "jkernel: jk/kernel/RemoteException: class Hidden is not shared with domain b"},
		{"unshared in S", holding("S", f.node(t, "Hidden")), "jkernel: jk/kernel/RemoteException: deserialize: class Hidden is not shared with domain b"},
		{"bound elsewhere in S", holding("S", f.node(t, "Other")), "jkernel: jk/kernel/RemoteException: deserialize: class Other binds differently in domain b"},
		{"uncopyable", f.node(t, "Plain"), plain},
		{"uncopyable in F", holding("F", f.node(t, "Plain")), plain},
		{"uncopyable in G", holding("G", f.node(t, "Plain")), plain},
		{"uncopyable in S", holding("S", f.node(t, "Plain")), "jkernel: jk/kernel/RemoteException: Plain is not serializable"},
		{"too deep F", chain("F", 300, false), tooDeep},
		{"cyclic F", chain("F", 2, true), tooDeep},
		{"too deep G", chain("G", 300, false), tooDeep},
	} {
		for round := range 2 {
			_, _, err := f.k.CopyValueBetween(f.b, vmkit.RefVal(c.arg))
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (round %d): got %v, want %q", c.name, round, err, c.want)
			}
		}
	}
}
