package vmkit

import (
	"fmt"
	"strings"
)

// Well-known class names used throughout the VM and the J-Kernel layer.
const (
	ClassObject    = "jk/lang/Object"
	ClassString    = "jk/lang/String"
	ClassThrowable = "jk/lang/Throwable"
	ClassException = "jk/lang/Exception"
	ClassRuntimeEx = "jk/lang/RuntimeException"
	ClassError     = "jk/lang/Error"

	ClassNullPointerEx  = "jk/lang/NullPointerException"
	ClassCastEx         = "jk/lang/ClassCastException"
	ClassArithmeticEx   = "jk/lang/ArithmeticException"
	ClassIndexEx        = "jk/lang/IndexOutOfBoundsException"
	ClassNegArraySizeEx = "jk/lang/NegativeArraySizeException"
	ClassIllegalStateEx = "jk/lang/IllegalStateException"
	ClassThreadDeath    = "jk/lang/ThreadDeath"

	ClassSystem = "jk/lang/System"

	// Marker interfaces choosing how an LRMI argument is copied, mirroring
	// the J-Kernel's fast-copy declaration.
	IfaceSerializable  = "jk/io/Serializable"
	IfaceFastCopy      = "jk/io/FastCopy"
	IfaceFastCopyGraph = "jk/io/FastCopyGraph" // fast copy with cycle table
)

// ClassFlags carries class-level modifiers.
type ClassFlags uint16

const (
	// FlagInterface marks an interface type: no instance fields, all methods
	// abstract.
	FlagInterface ClassFlags = 1 << iota
	// FlagAbstract forbids instantiation.
	FlagAbstract
	// FlagSystem marks a bootstrap class provided by the VM rather than
	// loaded from user bytecode. System classes may carry native methods.
	FlagSystem
)

// MethodFlags carries method-level modifiers.
type MethodFlags uint16

const (
	// MStatic marks a method with no receiver.
	MStatic MethodFlags = 1 << iota
	// MNative marks a method implemented by a registered Go function.
	MNative
	// MAbstract marks a method with no body (interface methods).
	MAbstract
	// MSynchronized wraps the body in the receiver's monitor (or the class
	// monitor for static methods).
	MSynchronized
	// MPrivate restricts callers to the declaring class. This is the
	// paper's "static access control": the verifier rejects foreign access.
	MPrivate
)

// FieldDef describes one declared field.
type FieldDef struct {
	Name   string
	Desc   string
	Static bool
	// Private restricts access to methods of the declaring class, enforced
	// by the verifier (the paper's static access control).
	Private bool
}

// ExcEntry is one exception-table row: if an exception of (a subclass of)
// Type is thrown by an instruction with From <= pc < To, control transfers
// to Handler with the throwable as the only stack operand.
type ExcEntry struct {
	From, To, Handler int32
	Type              string
}

// MethodDef describes one declared method, including its bytecode.
type MethodDef struct {
	Name  string
	Desc  string // "(params)ret" descriptor
	Flags MethodFlags
	Code  []Instr
	Excs  []ExcEntry
}

// ClassDef is the loadable unit: what a class file encodes and what loaders
// submit (as bytes) to a namespace. It is pure data; linking produces the
// runtime *Class.
type ClassDef struct {
	Name       string
	Super      string // empty only for jk/lang/Object
	Interfaces []string
	Flags      ClassFlags
	Fields     []FieldDef
	Methods    []MethodDef
}

// Field is a linked field: its definition plus its slot assignment.
type Field struct {
	FieldDef
	Slot  int // index into Object.Fields (instance) or Class.Statics (static)
	Owner *Class
}

// Method is a linked method.
type Method struct {
	MethodDef
	Owner  *Class
	Native NativeFunc // set when MNative
	// argKinds is the kind of each parameter slot, the receiver's
	// included: its length is the method's argument count.
	argKinds []Kind
	// ret is the return descriptor ("" for V).
	ret string
	// nlocals is the number of local slots, arguments included: the
	// arguments and every local a load or store names. frame is the
	// method's arena window in slots, the locals and the deepest operand
	// stack (just the arguments for native and abstract methods). The
	// verifier sets both for a bytecode method.
	nlocals, frame int
	// slot is the method's index in its owner's vslots, and so in the
	// vslots of every class below the owner (an override takes its
	// parent's slot). An interface's own methods index its itable entries.
	slot int
	// linked caches resolved symbolic references, parallel to Code.
	linked []linkedRef
	// excClasses caches resolved exception-table types, parallel to Excs.
	excClasses []*Class
}

// Sig returns the "name:desc" key used for dispatch tables.
func (m *Method) Sig() string { return m.Name + ":" + m.Desc }

// IsStatic reports whether the method has no receiver.
func (m *Method) IsStatic() bool { return m.Flags&MStatic != 0 }

// Class is a linked, runtime class: resolved hierarchy, flattened dispatch
// tables, and static storage. Classes are created by a Namespace.
type Class struct {
	Def        *ClassDef
	Name       string
	Super      *Class
	Interfaces []*Class

	// vtable maps "name:desc" to the implementing method, with inherited
	// methods flattened in: MethodBySig and link-time resolution read it.
	// vslots holds the same methods by slot (Method.slot), the superclass's
	// slots first, and itable has one entry per interface the class
	// implements; invokevirtual and invokeinterface read those (see
	// dispatch). Profile A's interface dispatch scans methods instead.
	vtable  map[string]*Method
	vslots  []*Method
	itable  []itableEntry
	methods []*Method // declared + inherited, for linear scans
	// supers is the superclass chain from the root down to the class
	// itself, so a class's ancestor at depth d is supers[d].
	supers []*Class

	// fields maps name to linked field (instance and static).
	fields   map[string]*Field
	numSlots int // instance field slots including inherited
	// instanceFields holds the instance fields, inherited ones included,
	// by slot.
	instanceFields []*Field
	// Statics holds static field storage. Like the JVM, slot access is not
	// synchronized; racy programs see races. Shared classes are forbidden
	// statics entirely (the J-Kernel rule), so cross-domain races cannot
	// arise through them.
	Statics []Value

	// Namespace that linked the class. Symbolic references in code resolve
	// through this namespace, so two domains can bind the same name to
	// different classes.
	NS *Namespace

	// elem is the element descriptor for array classes ("" otherwise), and
	// elemCls the element class of a reference array (nil otherwise).
	elem    string
	elemCls *Class

	// Gate is the kernel's gate for a capability stub class, nil for every
	// other class. It is set at definition (DefineGateClass), before any
	// object of the class can exist, and binds the class's natives. An
	// object is a capability exactly when its own class carries one: a
	// subclass, of Capability or of a stub, does not.
	Gate StubGate

	// linking is the class's link group until the group is published.
	linking *linkGroup
}

// IsArray reports whether c is an array class.
func (c *Class) IsArray() bool { return c.elem != "" }

// Elem returns the element descriptor of an array class ("" otherwise).
func (c *Class) Elem() string { return c.elem }

// IsInterface reports whether c is an interface.
func (c *Class) IsInterface() bool { return c.Def != nil && c.Def.Flags&FlagInterface != 0 }

// NumInstanceSlots returns the number of instance field slots (including
// inherited fields).
func (c *Class) NumInstanceSlots() int { return c.numSlots }

// InstanceFields returns the instance fields, inherited ones included, in
// slot order: InstanceFields()[i] describes Object.Fields[i]. The slice
// is the class's own; callers must not modify it.
func (c *Class) InstanceFields() []*Field { return c.instanceFields }

// FieldByName returns the linked field with the given name, searching
// superclasses, or nil.
func (c *Class) FieldByName(name string) *Field {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.fields[name]; ok {
			return f
		}
	}
	return nil
}

// MethodBySig returns the method with the given "name:desc" signature using
// the flattened virtual table, or nil.
func (c *Class) MethodBySig(name, desc string) *Method {
	if c.vtable == nil {
		return nil
	}
	return c.vtable[name+":"+desc]
}

// itableEntry is one interface a class implements, with impl holding the
// class's implementation of each of the interface's methods by slot (nil
// where the class has none).
type itableEntry struct {
	iface *Class
	impl  []*Method
}

// dispatch returns c's implementation of the virtual or interface method
// m, which is what c.vtable[m.Sig()] holds. It returns nil when c has no
// implementation, and when c does not descend from, or implement, m's
// owner.
func (c *Class) dispatch(m *Method) *Method {
	o := m.Owner
	if !o.IsInterface() {
		if c.SubclassOf(o) {
			return c.vslots[m.slot]
		}
		return nil
	}
	for i := range c.itable {
		if c.itable[i].iface == o {
			return c.itable[i].impl[m.slot]
		}
	}
	return nil
}

// Methods returns the flattened method list (declared and inherited).
func (c *Class) Methods() []*Method { return c.methods }

// SubclassOf reports whether c is t or a subclass of t.
func (c *Class) SubclassOf(t *Class) bool {
	d := len(t.supers) - 1
	return d < len(c.supers) && c.supers[d] == t
}

// Implements reports whether c or any superclass lists t (or a
// super-interface of t) among its interfaces.
func (c *Class) Implements(t *Class) bool {
	if !t.IsInterface() {
		return false
	}
	for k := c; k != nil; k = k.Super {
		for _, it := range k.Interfaces {
			if it == t || it.Implements(t) || it.SubclassOf(t) {
				return true
			}
		}
	}
	return false
}

// AssignableTo reports whether a value of class c may be stored where a
// value of class t is expected.
func (c *Class) AssignableTo(t *Class) bool {
	if c == t {
		return true
	}
	if t.Name == ClassObject {
		return true
	}
	if c.IsArray() {
		if !t.IsArray() {
			return false
		}
		ce, te := c.elem, t.elem
		if ce == te {
			return true
		}
		// Covariant reference arrays only.
		if strings.HasPrefix(ce, "L") && strings.HasPrefix(te, "L") {
			return c.elemCls.AssignableTo(t.elemCls)
		}
		return false
	}
	if t.IsInterface() {
		if c.IsInterface() {
			return c.SubclassOf(t) || c.Implements(t)
		}
		return c.Implements(t)
	}
	return c.SubclassOf(t)
}

func (c *Class) String() string { return c.Name }

// RefName extracts the class name from an "L<name>;" descriptor; an array
// descriptor names its own class and comes back unchanged.
func RefName(desc string) string {
	if len(desc) >= 2 && desc[0] == 'L' && desc[len(desc)-1] == ';' {
		return desc[1 : len(desc)-1]
	}
	return desc
}

// descOfClass returns the descriptor naming a class ("L<name>;" or the
// array descriptor itself).
func descOfClass(name string) string {
	if strings.HasPrefix(name, "[") {
		return name
	}
	return "L" + name + ";"
}

// ParseMethodDesc splits "(AB)C" into parameter descriptors and the return
// descriptor ("" for V). It returns an error for malformed descriptors.
func ParseMethodDesc(desc string) (params []string, ret string, err error) {
	if ret, err = checkMethodDesc(desc); err != nil {
		return nil, "", err
	}
	for i := 1; desc[i] != ')'; {
		d, n, _ := parseOneDesc(desc[i:])
		params = append(params, d)
		i += n
	}
	return params, ret, nil
}

// checkMethodDesc validates "(AB)C" and returns its return descriptor (""
// for V). It allocates only to report an error.
func checkMethodDesc(desc string) (ret string, err error) {
	if len(desc) < 3 || desc[0] != '(' {
		return "", fmt.Errorf("vmkit: bad method descriptor %q", desc)
	}
	i := 1
	for i < len(desc) && desc[i] != ')' {
		_, n, perr := parseOneDesc(desc[i:])
		if perr != nil {
			return "", fmt.Errorf("vmkit: bad method descriptor %q: %v", desc, perr)
		}
		i += n
	}
	if i >= len(desc) || desc[i] != ')' {
		return "", fmt.Errorf("vmkit: unterminated params in %q", desc)
	}
	rest := desc[i+1:]
	if rest == "V" {
		return "", nil
	}
	d, n, perr := parseOneDesc(rest)
	if perr != nil || n != len(rest) {
		return "", fmt.Errorf("vmkit: bad return descriptor in %q", desc)
	}
	return d, nil
}

// parseOneDesc parses a single type descriptor at the front of s and
// returns it plus the number of bytes consumed. The descriptor is a prefix
// of s: nothing is allocated but an error.
func parseOneDesc(s string) (string, int, error) {
	n := 0
	for n < len(s) && s[n] == '[' {
		n++
	}
	if n == len(s) {
		return "", 0, fmt.Errorf("empty descriptor")
	}
	switch s[n] {
	case 'I', 'D', 'Z', 'B', 'C':
		n++
	case 'L':
		j := strings.IndexByte(s[n:], ';')
		if j < 2 {
			return "", 0, fmt.Errorf("unterminated class descriptor")
		}
		n += j + 1
	default:
		return "", 0, fmt.Errorf("unknown descriptor byte %q", s[n])
	}
	return s[:n], n, nil
}

// ValidIdent reports whether s is acceptable as a class, field, or method
// name component. Slashes separate package segments in class names.
func ValidIdent(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '$' || r == '/' || r == '<' || r == '>':
		default:
			return false
		}
	}
	return true
}
