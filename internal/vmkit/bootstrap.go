package vmkit

import "fmt"

// Bootstrap class sources, assembled at VM construction. These are the
// "system classes" of the paper: most are shared into every domain
// namespace verbatim; jk/lang/System and jk/lang/Thread are *interposed* —
// each domain gets its own class so output streams and thread operations
// are per-domain (see internal/core).

var bootstrapSources = []string{
	// ---- the root ----
	`.class jk/lang/Object
.method equals (Ljk/lang/Object;)I stack 4 locals 0
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
.method init (Ljk/lang/String;)V stack 4 locals 0
  load 0
  load 1
  putfield jk/lang/Throwable.message:Ljk/lang/String;
  ret
.end
.method getMessage ()Ljk/lang/String; stack 2 locals 0
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

	// Kernel exceptions are bootstrap classes so that every domain shares
	// them: a RevokedException thrown in a callee must be catchable by the
	// caller even though the two share nothing else.
	".class jk/kernel/RevokedException super jk/lang/RuntimeException\n",
	".class jk/kernel/RemoteException super jk/lang/Exception\n",
	".class jk/kernel/DomainTerminatedException super jk/kernel/RemoteException\n",

	// ---- marker interfaces (calling convention) ----
	".class jk/kernel/Remote interface\n",
	".class jk/io/Serializable interface\n",
	".class jk/io/FastCopy interface\n",
	".class jk/io/FastCopyGraph interface\n",

	// ---- capability root ----
	// Generated stub classes extend Capability. A stub holds no state: its
	// gate is on its class (Class.Gate), out of bytecode's reach, so a user
	// class extending Capability is an ordinary object.
	`.class jk/kernel/Capability abstract
.method native revoke ()V
.end
.method native isRevoked ()I
.end
`,

	// ---- interposable system classes (bootstrap versions) ----
	systemClassSource,
	threadClassSource,

	// ---- misc utility ----
	`.class jk/lang/StringBuilder
.field private buf [B
.field private len I
.method init ()V stack 4 locals 0
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

// threadClassSource is interposed per domain: stop/suspend/resume act on
// the calling thread's current *segment*, not the carrier thread, which is
// how the J-Kernel prevents callers and callees from attacking each other's
// threads. The bootstrap binding acts directly on the carrier (there are no
// segments until the core layer is loaded).
const threadClassSource = `.class jk/lang/Thread
.field private id I
.method static native currentThread ()Ljk/lang/Thread;
.end
.method native stop ()V
.end
.method native suspend ()V
.end
.method native resume ()V
.end
.method native setPriority (I)V
.end
.method native getPriority ()I
.end
.method native yield ()V
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

// SystemClassNames returns the bootstrap classes that are safe to share
// into every domain namespace as-is. jk/lang/System and jk/lang/Thread are
// excluded: they must be interposed per domain.
func SystemClassNames() []string {
	names := make([]string, 0, len(bootstrapSources))
	for _, src := range bootstrapSources {
		def := MustAssemble(src)
		switch def.Name {
		case ClassSystem, ClassThread:
			continue
		}
		names = append(names, def.Name)
	}
	return names
}

// InterposedClassSource returns the assembly source for the per-domain
// version of an interposed system class ("" if name is not interposed).
func InterposedClassSource(name string) string {
	switch name {
	case ClassSystem:
		return systemClassSource
	case ClassThread:
		return threadClassSource
	}
	return ""
}
