package vmkit

import "fmt"

// Bootstrap class sources, assembled at VM construction. These are the
// "system classes" of the paper, shared into every namespace that resolves
// through the bootstrap one. jk/lang/System is also *interposed*: a domain
// gets its own copy so its output stream is per-domain. The J-Kernel's own
// classes — jk/kernel/*, and the interposed jk/lang/Thread whose natives
// act on call segments — are defined by the kernel layer (internal/core).

var bootstrapSources = []string{
	// ---- the root ----
	`.class jk/lang/Object
.method equals (Ljk/lang/Object;)I
  load 0
  load 1
  if_acmpeq yes
  iconst 0
  retv
yes:
  iconst 1
  retv
.end
.method native hashCode ()I
.end
.method native toString ()Ljk/lang/String;
.end
`,

	// ---- strings ----
	`.class jk/lang/String
.field private bytes [B
.method native length ()I
.end
.method native charAt (I)I
.end
.method native equals (Ljk/lang/Object;)I
.end
.method native hashCode ()I
.end
.method native concat (Ljk/lang/String;)Ljk/lang/String;
.end
.method native substring (II)Ljk/lang/String;
.end
.method native getBytes ()[B
.end
.method native indexOf (I)I
.end
.method native toString ()Ljk/lang/String;
.end
.method static native fromBytes ([B)Ljk/lang/String;
.end
.method static native valueOfInt (I)Ljk/lang/String;
.end
`,

	// ---- throwables ----
	`.class jk/lang/Throwable
.field message Ljk/lang/String;
.method init (Ljk/lang/String;)V
  load 0
  load 1
  putfield jk/lang/Throwable.message:Ljk/lang/String;
  ret
.end
.method getMessage ()Ljk/lang/String;
  load 0
  getfield jk/lang/Throwable.message:Ljk/lang/String;
  retv
.end
`,
	".class jk/lang/Exception super jk/lang/Throwable\n",
	".class jk/lang/RuntimeException super jk/lang/Exception\n",
	".class jk/lang/Error super jk/lang/Throwable\n",
	".class jk/lang/NullPointerException super jk/lang/RuntimeException\n",
	".class jk/lang/ClassCastException super jk/lang/RuntimeException\n",
	".class jk/lang/ArithmeticException super jk/lang/RuntimeException\n",
	".class jk/lang/IndexOutOfBoundsException super jk/lang/RuntimeException\n",
	".class jk/lang/NegativeArraySizeException super jk/lang/RuntimeException\n",
	".class jk/lang/IllegalStateException super jk/lang/RuntimeException\n",
	".class jk/lang/ThreadDeath super jk/lang/Error\n",

	// ---- marker interfaces (calling convention) ----
	".class jk/io/Serializable interface\n",
	".class jk/io/FastCopy interface\n",
	".class jk/io/FastCopyGraph interface\n",

	// ---- interposable system class (bootstrap version) ----
	systemClassSource,

	// ---- misc utility ----
	`.class jk/lang/StringBuilder
.field private buf [B
.field private len I
.method init ()V
  load 0
  iconst 16
  newarr "[B"
  putfield jk/lang/StringBuilder.buf:[B
  load 0
  iconst 0
  putfield jk/lang/StringBuilder.len:I
  ret
.end
.method native appendStr (Ljk/lang/String;)Ljk/lang/StringBuilder;
.end
.method native appendInt (I)Ljk/lang/StringBuilder;
.end
.method native toString ()Ljk/lang/String;
.end
`,
}

// systemClassSource is interposed per domain: the same bytecode is defined
// freshly in each domain namespace so its natives observe the domain's
// output stream. This mirrors the paper's observation that System "contains
// resources that need to be defined on a per-domain basis".
const systemClassSource = `.class jk/lang/System
.method static native println (Ljk/lang/String;)V
.end
.method static native printInt (I)V
.end
.method static native timeNanos ()I
.end
`

// defineBootstrap assembles and links the system classes into ns.
func defineBootstrap(ns *Namespace) error {
	for _, src := range bootstrapSources {
		def, err := Assemble(src)
		if err != nil {
			return fmt.Errorf("assembling bootstrap: %w\n%s", err, src)
		}
		def.Flags |= FlagSystem
		if _, err := ns.DefineDef(def); err != nil {
			return fmt.Errorf("defining %s: %w", def.Name, err)
		}
	}
	return nil
}

// InterposedClassSource returns the assembly source for the per-domain
// version of an interposed system class ("" if name is not interposed).
func InterposedClassSource(name string) string {
	if name == ClassSystem {
		return systemClassSource
	}
	return ""
}
