package vmkit

import (
	"runtime"
	"testing"

	"jkernel/internal/raceflag"
)

// defineSeeds are classes that define in a namespace holding only the
// bootstrap classes: branches and a loop, a handler, arrays, fields, a
// string literal, virtual, interface and static calls.
var defineSeeds = []string{`
.class Loop
.field n I
.field static total D
.method static sum ([I)I
  iconst 0
  store 1
  iconst 0
  store 2
top:
  load 2
  load 0
  arraylength
  isub
  ifz done
  load 1
  load 0
  load 2
  aload
  iadd
  store 1
  load 2
  iconst 1
  iadd
  store 2
  jmp top
done:
  load 1
  retv
.end
.method bump (I)V
  load 0
  load 0
  getfield Loop.n:I
  load 1
  iadd
  putfield Loop.n:I
  ret
.end
`, `
.class Catch
.method static guarded (Ljk/lang/Object;)I
try:
  load 0
  invokevirtual jk/lang/Object.hashCode:()I
  retv
end:
handler:
  store 1
  iconst -1
  retv
  .catch jk/lang/Throwable from try to end using handler
.end
.method static text ()Ljk/lang/String;
  sconst "hello"
  retv
.end
.method static grid (I)[[B
  load 0
  newarr [[B
  dup
  iconst 0
  iconst 4
  newarr [B
  astore
  retv
.end
`}

// FuzzDefineClass feeds bytes through decode, verify and link in a fresh
// namespace. Whatever the bytes, defining them does not panic, and costs
// at most defineBytesPerByte bytes of allocation a byte of class plus
// defineBytesFixed: what a class costs to define follows what it weighs.
func FuzzDefineClass(f *testing.F) {
	const defineBytesPerByte, defineBytesFixed = 1024, 1 << 20
	vm := MustNew(Profile{})
	for _, src := range defineSeeds {
		b, err := AssembleBytes(src)
		if err == nil {
			_, err = vm.NewNamespace("seed", vm.BootResolver()).DefineClass(b)
		}
		if err != nil {
			f.Fatalf("seed does not define: %v", err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ns := vm.NewNamespace("fuzz", vm.BootResolver())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ns.DefineClass(data)
		runtime.ReadMemStats(&after)
		got, bound := after.TotalAlloc-before.TotalAlloc, uint64(defineBytesPerByte*len(data)+defineBytesFixed)
		if !raceflag.Enabled && got > bound {
			t.Errorf("a %d-byte class allocated %d B to define (bound %d; err %v)", len(data), got, bound, err)
		}
	})
}
