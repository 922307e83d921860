package vmkit

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: the class-file codec round-trips arbitrary structurally valid
// definitions byte-identically.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		def := randomClassDef(rng)
		enc := EncodeClass(def)
		dec, err := DecodeClass(enc)
		if err != nil {
			return false
		}
		return string(EncodeClass(dec)) == string(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomClassDef(rng *rand.Rand) *ClassDef {
	def := &ClassDef{
		Name:  fmt.Sprintf("Rand%d", rng.Intn(1000)),
		Super: ClassObject,
	}
	for i := 0; i < rng.Intn(4); i++ {
		def.Fields = append(def.Fields, FieldDef{
			Name:    fmt.Sprintf("f%d", i),
			Desc:    []string{"I", "D", "[B", "Ljk/lang/String;"}[rng.Intn(4)],
			Static:  rng.Intn(2) == 0,
			Private: rng.Intn(2) == 0,
		})
	}
	for i := 0; i < rng.Intn(3); i++ {
		m := MethodDef{
			Name:  fmt.Sprintf("m%d", i),
			Desc:  "(I)I",
			Flags: MStatic,
		}
		n := rng.Intn(20) + 2
		for j := 0; j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				m.Code = append(m.Code, Instr{Op: OpIConst, I: rng.Int63n(1000) - 500})
			case 1:
				m.Code = append(m.Code, Instr{Op: OpDConst, F: rng.Float64()})
			case 2:
				m.Code = append(m.Code, Instr{Op: OpSConst, S: fmt.Sprintf("s%d", rng.Intn(10))})
			default:
				m.Code = append(m.Code, Instr{Op: OpNop})
			}
		}
		m.Code = append(m.Code, Instr{Op: OpIConst, I: 0}, Instr{Op: OpRetV})
		def.Methods = append(def.Methods, m)
	}
	return def
}

// Property: randomly generated *well-typed* straight-line programs pass
// the verifier and execute to the value a Go-side oracle computes. This
// exercises the assembler, codec, verifier, and interpreter end to end.
func TestQuickRandomProgramsVerifyAndRun(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src, want := randomIntProgram(rng)
		vm := MustNew(ProfileA)
		b, err := AssembleBytes(src)
		if err != nil {
			t.Logf("assemble: %v\n%s", err, src)
			return false
		}
		ns := vm.NewNamespace("q", MapResolver(map[string][]byte{"Q": b}, vm.BootResolver()))
		th := vm.NewThread("q")
		defer vm.Detach(th)
		v, err := vm.CallStatic(th, ns, "Q.f:()I")
		if err != nil {
			t.Logf("run: %v\n%s", err, src)
			return false
		}
		if v.I != want {
			t.Logf("got %d want %d\n%s", v.I, want, src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomIntProgram emits a stack program computing a deterministic int
// and the oracle value.
func randomIntProgram(rng *rand.Rand) (string, int64) {
	var b strings.Builder
	b.WriteString(".class Q\n.method static f ()I\n")
	// Maintain a model of the stack.
	var stack []int64
	push := func(v int64) {
		fmt.Fprintf(&b, "  iconst %d\n", v)
		stack = append(stack, v)
	}
	push(rng.Int63n(100))
	steps := rng.Intn(30) + 5
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(7); {
		case op == 0 || len(stack) < 2:
			push(rng.Int63n(100) - 50)
		case op == 1:
			b.WriteString("  iadd\n")
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], x+y)
		case op == 2:
			b.WriteString("  isub\n")
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], x-y)
		case op == 3:
			b.WriteString("  imul\n")
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], x*y)
		case op == 4:
			b.WriteString("  ixor\n")
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], x^y)
		case op == 5:
			b.WriteString("  dup\n")
			stack = append(stack, stack[len(stack)-1])
		case op == 6:
			b.WriteString("  swap\n")
			stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]
		}
		// Keep the stack shallow.
		if len(stack) > 48 {
			b.WriteString("  pop\n")
			stack = stack[:len(stack)-1]
		}
	}
	for len(stack) > 1 {
		b.WriteString("  iadd\n")
		x, y := stack[len(stack)-2], stack[len(stack)-1]
		stack = append(stack[:len(stack)-2], x+y)
	}
	b.WriteString("  retv\n.end\n")
	return b.String(), stack[0]
}

// Property: flipping any single byte of a valid class file never panics
// the pipeline — it either fails decode/verify/link or loads a class that
// is still type-safe to define. (Memory safety of the loading pipeline
// against corrupted input.)
func TestQuickBitFlippedClassFilesNeverPanic(t *testing.T) {
	base, err := AssembleBytes(`
.class Flip
.field x I
.method static f (I)I
  load 0
  iconst 2
  imul
  retv
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	vm := MustNew(ProfileA)
	f := func(pos uint16, bit uint8) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] ^= 1 << (bit % 8)
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on flipped byte %d: %v", pos, r)
			}
		}()
		ns := vm.NewNamespace(fmt.Sprintf("flip%d-%d", pos, bit), vm.BootResolver())
		_, _ = ns.DefineClass(data) // error or success; never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
