package vmkit

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"jkernel/internal/account"
)

// Resolution is the outcome of a resolver query, mirroring the J-Kernel's
// class name resolvers: a class name maps to freshly submitted bytecode
// (local class), to a class defined elsewhere (shared class), or to nothing.
type Resolution struct {
	// Bytes, when non-nil, is binary class-file data to define locally.
	Bytes []byte
	// Shared, when non-nil, binds an already-linked class (defined in
	// another namespace) into this namespace.
	Shared *Class
}

// ResolverFunc is queried whenever a namespace encounters an unknown class
// name. Returning (nil, nil) means "unknown name".
//
// A resolver runs while its namespace's link group links, holding the
// namespace's link lock. It may load into another namespace, but not into
// one whose resolver loads back into its own: each load would wait on the
// other's lock.
type ResolverFunc func(name string) (*Resolution, error)

// LinkError reports a class loading, verification, or linking failure.
type LinkError struct {
	Class string
	Op    string // "resolve", "decode", "hierarchy", "verify", "link"
	Err   error
}

func (e *LinkError) Error() string {
	return fmt.Sprintf("vmkit: %s %s: %v", e.Op, e.Class, e.Err)
}

func (e *LinkError) Unwrap() error { return e.Err }

type classState int

const (
	stateLoading classState = iota + 1 // hierarchy being resolved
	stateLinking                       // shell ready; code verify/link in progress
	stateReady
)

// classEntry is a name's binding. An entry short of stateReady belongs to
// the link group linking it, and only that group sees it.
type classEntry struct {
	state classState
	class *Class
	group *linkGroup
}

// linkGroup is the classes one outermost load links, all in one namespace,
// with the array classes of them it makes. Their code may resolve one
// another's shells, so none is published (stateReady) until every one has
// verified, and when one fails all are withdrawn.
type linkGroup struct {
	members []*classEntry
}

// Namespace maps class names to classes for one protection domain. Each
// domain has its own namespace, so the same name can denote different
// classes in different domains; sharing a class means binding the same
// *Class into several namespaces.
type Namespace struct {
	VM   *VM
	Name string

	mu      sync.Mutex
	classes map[string]*classEntry
	// link is held by an outermost load while its group links, up to the
	// group's publication or withdrawal: one group links in a namespace at
	// a time, and a caller that meets a class in progress waits on link
	// for it. A resolver may load into another namespace, but not into one
	// whose resolver loads into this one.
	link     sync.Mutex
	resolver ResolverFunc
	interns  map[string]*Object

	// Account, when set, is the account of the domain the namespace
	// belongs to: it pays for the namespace's classes, for its interned
	// strings, and for what the host allocates through it (NewInstance,
	// NewArray, NewString).
	Account *account.Account

	// Output receives jk/lang/System output for this namespace; when nil,
	// the VM's Stdout is used. Interposing System per domain is what makes
	// this per-domain state possible.
	Output io.Writer
}

// NewNamespace creates an empty namespace resolving through r. The VM's
// bootstrap classes are not automatically visible; use BindSystemClasses or
// a resolver that forwards to the bootstrap namespace.
func (vm *VM) NewNamespace(name string, r ResolverFunc) *Namespace {
	return &Namespace{
		VM:       vm,
		Name:     name,
		classes:  make(map[string]*classEntry),
		resolver: r,
		interns:  make(map[string]*Object),
	}
}

// Lookup returns the class bound to name if it is published, else nil. A
// class that a link group is linking is waited for: Lookup returns it once
// the group publishes, nil if the group withdraws it. Code that runs while
// a group links, a resolver say, must not look up one of that group's
// classes.
func (ns *Namespace) Lookup(name string) *Class {
	if c, linking := ns.published(name); !linking {
		return c
	}
	ns.link.Lock()
	defer ns.link.Unlock()
	c, _ := ns.published(name)
	return c
}

// published returns the class bound to name if it is published, and
// whether a link group is linking name instead.
func (ns *Namespace) published(name string) (c *Class, linking bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e := ns.classes[name]
	switch {
	case e == nil:
		return nil, false
	case e.state != stateReady:
		return nil, true
	}
	return e.class, false
}

// bound settles a load of name in group g from name's entry, if that
// entry is visible to g: a published class, or one of g's own. done is
// false when name has no entry, or another group is linking it. A def
// (DefineClass) settles on any published class as a duplicate.
func (ns *Namespace) bound(name string, def *ClassDef, g *linkGroup) (c *Class, done bool, err error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e := ns.classes[name]
	switch {
	case e == nil || e.state != stateReady && e.group != g:
		return nil, false, nil
	case def != nil:
		return nil, true, &LinkError{Class: name, Op: "resolve",
			Err: fmt.Errorf("class already defined in namespace %s", ns.Name)}
	case e.state == stateLoading:
		return nil, true, &LinkError{Class: name, Op: "hierarchy",
			Err: fmt.Errorf("circular superclass/interface chain")}
	}
	return e.class, true, nil
}

// Classes returns a snapshot of all fully defined classes.
func (ns *Namespace) Classes() []*Class {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	out := make([]*Class, 0, len(ns.classes))
	for _, e := range ns.classes {
		if e.state == stateReady {
			out = append(out, e.class)
		}
	}
	return out
}

// Bind makes an existing class (typically defined by another namespace)
// visible in this namespace under its own name. This is the mechanism
// behind both system-class visibility and SharedClass capabilities.
func (ns *Namespace) Bind(c *Class) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if e, ok := ns.classes[c.Name]; ok {
		if e.class == c {
			return nil
		}
		return fmt.Errorf("vmkit: namespace %s already binds %s", ns.Name, c.Name)
	}
	ns.classes[c.Name] = &classEntry{state: stateReady, class: c}
	return nil
}

// DefineClass decodes, verifies, and links bytecode in this namespace and
// returns the new class. Referenced classes are resolved recursively
// through the namespace's resolver, as in the paper's class loaders.
func (ns *Namespace) DefineClass(data []byte) (*Class, error) {
	return ns.DefineGateClass(data, nil)
}

// DefineGateClass is DefineClass for a capability stub class: the class
// carries gate (Class.Gate) from the moment it is published in the
// namespace, so no object of it ever exists without its gate, and the gate
// binds its native methods.
func (ns *Namespace) DefineGateClass(data []byte, gate StubGate) (*Class, error) {
	def, err := DecodeClass(data)
	if err != nil {
		return nil, &LinkError{Class: "?", Op: "decode", Err: err}
	}
	return ns.defineDecoded(def, gate)
}

// DefineDef links an already-decoded definition (used by the stub generator
// and bootstrap; user-supplied classes should go through DefineClass so the
// binary format is the trust boundary).
func (ns *Namespace) DefineDef(def *ClassDef) (*Class, error) {
	return ns.defineDecoded(def, nil)
}

func (ns *Namespace) defineDecoded(def *ClassDef, gate StubGate) (*Class, error) {
	return ns.load(def.Name, def, gate, nil)
}

// Resolve returns the class bound to name, loading it through the resolver
// if necessary.
func (ns *Namespace) Resolve(name string) (*Class, error) {
	return ns.load(name, nil, nil, nil)
}

// resolve is Resolve for c's code: while c links, a class it loads joins
// c's link group.
func (c *Class) resolve(name string) (*Class, error) {
	return c.NS.load(name, nil, nil, c.linking)
}

// load drives the two-phase pipeline. If def is non-nil it is used directly
// instead of querying the resolver (DefineClass path), and the new class
// carries gate. Cyclic references between classes are permitted once a
// shell (hierarchy, fields, vtable) exists; cyclic superclass chains are
// not. A class it links joins g, and a load given no group starts one and
// publishes or withdraws it, holding ns.link throughout.
func (ns *Namespace) load(name string, def *ClassDef, gate StubGate, g *linkGroup) (*Class, error) {
	if isArrayDesc(name) {
		return ns.arrayClass(name, g)
	}
	if c, done, err := ns.bound(name, def, g); done {
		return c, err
	}
	outer := g == nil
	if outer {
		// Wait out the group linking name, if any, and look again.
		ns.link.Lock()
		defer ns.link.Unlock()
		if c, done, err := ns.bound(name, def, g); done {
			return c, err
		}
		g = new(linkGroup)
	}
	resolver := ns.resolver

	if def == nil {
		if resolver == nil {
			return nil, &LinkError{Class: name, Op: "resolve",
				Err: fmt.Errorf("no resolver in namespace %s", ns.Name)}
		}
		res, err := resolver(name)
		if err != nil {
			return nil, &LinkError{Class: name, Op: "resolve", Err: err}
		}
		if res == nil {
			return nil, &LinkError{Class: name, Op: "resolve",
				Err: fmt.Errorf("class not found in namespace %s", ns.Name)}
		}
		if res.Shared != nil {
			if err := ns.Bind(res.Shared); err != nil {
				return nil, &LinkError{Class: name, Op: "resolve", Err: err}
			}
			return res.Shared, nil
		}
		d, err := DecodeClass(res.Bytes)
		if err != nil {
			return nil, &LinkError{Class: name, Op: "decode", Err: err}
		}
		def = d
	}
	if def.Name != name {
		return nil, &LinkError{Class: name, Op: "resolve",
			Err: fmt.Errorf("resolver produced class %q", def.Name)}
	}

	// Phase 1: shell (hierarchy, field slots, vtable).
	ns.mu.Lock()
	if e, ok := ns.classes[name]; ok {
		// The resolver bound name (Bind); settle on that.
		ns.mu.Unlock()
		if e.state != stateReady {
			return nil, &LinkError{Class: name, Op: "hierarchy",
				Err: fmt.Errorf("circular superclass/interface chain")}
		}
		return e.class, nil
	}
	entry := &classEntry{state: stateLoading, group: g}
	ns.classes[name] = entry
	ns.mu.Unlock()

	fail := func(op string, err error) (*Class, error) {
		ns.mu.Lock()
		delete(ns.classes, name)
		if outer {
			for _, e := range g.members {
				if ns.classes[e.class.Name] == e {
					delete(ns.classes, e.class.Name)
				}
			}
		}
		ns.mu.Unlock()
		if le, ok := err.(*LinkError); ok {
			return nil, le
		}
		return nil, &LinkError{Class: name, Op: op, Err: err}
	}

	c := &Class{Def: def, Name: name, NS: ns, Gate: gate, linking: g}
	if def.Super == "" {
		if name != ClassObject {
			return fail("hierarchy", fmt.Errorf("only %s may omit a superclass", ClassObject))
		}
	} else {
		super, err := c.resolve(def.Super)
		if err != nil {
			return fail("hierarchy", err)
		}
		if super.IsInterface() || super.IsArray() {
			return fail("hierarchy", fmt.Errorf("superclass %s is not a class", super.Name))
		}
		c.Super = super
	}
	for _, in := range def.Interfaces {
		ic, err := c.resolve(in)
		if err != nil {
			return fail("hierarchy", err)
		}
		if !ic.IsInterface() {
			return fail("hierarchy", fmt.Errorf("%s is not an interface", in))
		}
		c.Interfaces = append(c.Interfaces, ic)
	}
	if err := linkFieldsAndMethods(c); err != nil {
		return fail("link", err)
	}

	ns.mu.Lock()
	entry.class = c
	entry.state = stateLinking
	ns.mu.Unlock()
	g.members = append(g.members, entry)

	// Phase 2: resolve code references (may recursively load), then verify.
	if err := resolveCode(c); err != nil {
		return fail("link", err)
	}
	if err := verifyClass(c); err != nil {
		return fail("verify", err)
	}

	if !outer {
		return c, nil
	}
	ns.mu.Lock()
	for _, e := range g.members {
		e.state, e.group = stateReady, nil
		e.class.linking = nil
	}
	ns.mu.Unlock()
	if a := ns.Account; a != nil {
		for _, e := range g.members {
			d := e.class.Def
			a.Class(int64(len(d.Methods))*64 + int64(len(d.Fields))*16 + 256)
		}
	}
	return c, nil
}

// linkFieldsAndMethods assigns field slots, flattens the vtable, binds
// native methods (a stub class's from its gate, any other's from the VM's
// table), and validates basic structure.
func linkFieldsAndMethods(c *Class) error {
	def := c.Def
	c.fields = make(map[string]*Field, len(def.Fields))
	base := 0
	if c.Super != nil {
		base = c.Super.numSlots
	}
	nextSlot := base
	nextStatic := 0
	for i := range def.Fields {
		fd := def.Fields[i]
		if _, dup := c.fields[fd.Name]; dup {
			return fmt.Errorf("duplicate field %s", fd.Name)
		}
		if _, n, err := parseOneDesc(fd.Desc); err != nil || n != len(fd.Desc) {
			return fmt.Errorf("field %s: bad descriptor %q", fd.Name, fd.Desc)
		}
		f := &Field{FieldDef: fd, Owner: c}
		if fd.Static {
			f.Slot = nextStatic
			nextStatic++
		} else {
			if c.IsInterface() {
				return fmt.Errorf("interface %s declares instance field %s", c.Name, fd.Name)
			}
			f.Slot = nextSlot
			nextSlot++
		}
		c.fields[fd.Name] = f
	}
	c.numSlots = nextSlot
	c.Statics = make([]Value, nextStatic)
	c.instanceFields = make([]*Field, nextSlot)
	for k := c; k != nil; k = k.Super {
		for _, f := range k.fields {
			if !f.Static {
				c.instanceFields[f.Slot] = f
			}
		}
	}

	c.vtable = make(map[string]*Method)
	if c.Super != nil {
		for sig, m := range c.Super.vtable {
			c.vtable[sig] = m
		}
		c.vslots = slices.Clone(c.Super.vslots)
		c.methods = append(c.methods, c.Super.methods...)
		c.supers = slices.Clip(c.Super.supers)
	}
	c.supers = append(c.supers, c)
	for i := range def.Methods {
		md := def.Methods[i]
		params, ret, err := ParseMethodDesc(md.Desc)
		if err != nil {
			return fmt.Errorf("method %s: %v", md.Name, err)
		}
		m := &Method{MethodDef: md, Owner: c, ret: ret}
		if md.Flags&MStatic == 0 {
			m.argKinds = append(m.argKinds, KRef)
		}
		for _, p := range params {
			m.argKinds = append(m.argKinds, DescKind(p))
		}
		if md.Flags&MNative != 0 {
			key := c.Name + "." + md.Name + ":" + md.Desc
			if c.Gate != nil {
				m.Native = c.Gate.Native(&m.MethodDef)
			} else {
				m.Native = c.NS.VM.nativeFor(key)
			}
			if m.Native == nil {
				return fmt.Errorf("unbound native method %s", key)
			}
		}
		if c.IsInterface() && md.Flags&(MNative|MStatic) == 0 {
			m.Flags |= MAbstract
		}
		if m.Flags&(MAbstract|MNative) != 0 {
			m.frame = len(m.argKinds) // a bytecode method's, the verifier sets
		} else if len(md.Code) == 0 {
			return fmt.Errorf("method %s has no code", md.Name)
		}
		sig := m.Sig()
		if prev, inherited := c.vtable[sig]; !inherited {
			m.slot = len(c.vslots)
			c.vslots = append(c.vslots, m)
		} else if prev.Owner == c {
			return fmt.Errorf("duplicate method %s", sig)
		} else {
			m.slot = prev.slot
			c.vslots[m.slot] = m
		}
		c.vtable[sig] = m
		c.methods = append(c.methods, m)
	}
	if !c.IsInterface() {
		for k := c; k != nil; k = k.Super {
			for _, it := range k.Interfaces {
				c.addItable(it)
			}
		}
	}
	return nil
}

// addItable gives c an itable entry for interface it and for each of its
// super-interfaces that has none yet, filled from c's vtable.
func (c *Class) addItable(it *Class) {
	for _, e := range c.itable {
		if e.iface == it {
			return
		}
	}
	impl := make([]*Method, len(it.vslots))
	for i, m := range it.vslots {
		impl[i] = c.vtable[m.Sig()]
	}
	c.itable = append(c.itable, itableEntry{iface: it, impl: impl})
	for _, sup := range it.Interfaces {
		c.addItable(sup)
	}
}

// isArrayDesc reports whether name is an array descriptor rather than a
// class name.
func isArrayDesc(name string) bool { return len(name) > 0 && name[0] == '[' }

// arrayClass returns (creating on demand) the array class for desc in this
// namespace. Reference element classes resolve through the namespace, and
// join g; an array of a class g is linking joins g too, so it is published
// and withdrawn with its element class.
func (ns *Namespace) arrayClass(desc string, g *linkGroup) (*Class, error) {
	if c, done, _ := ns.bound(desc, nil, g); done {
		return c, nil
	}

	elem, n, err := parseOneDesc(desc[1:])
	if err != nil || n != len(desc)-1 {
		return nil, &LinkError{Class: desc, Op: "resolve", Err: fmt.Errorf("bad array descriptor")}
	}
	var ec *Class
	switch elem[0] {
	case 'L':
		ec, err = ns.load(RefName(elem), nil, nil, g)
	case '[':
		ec, err = ns.arrayClass(elem, g)
	}
	if err != nil {
		return nil, err
	}
	super, err := ns.load(ClassObject, nil, nil, g)
	if err != nil {
		return nil, err
	}
	c := &Class{
		Name:    desc,
		Super:   super,
		NS:      ns,
		elem:    elem,
		elemCls: ec,
		vtable:  super.vtable,
		vslots:  super.vslots,
		methods: super.methods,
		fields:  map[string]*Field{},
	}
	c.supers = append(slices.Clip(super.supers), c)
	e := &classEntry{state: stateReady, class: c}
	if ec != nil && ec.linking != nil {
		c.linking = g
		e.state, e.group = stateLinking, g
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if prev, ok := ns.classes[desc]; ok {
		return prev.class, nil
	}
	ns.classes[desc] = e
	if e.group != nil {
		g.members = append(g.members, e)
	}
	return c, nil
}

// InternString returns the namespace-interned String object for text.
// Literal strings (SCONST) are interned; runtime strings are not.
func (ns *Namespace) InternString(text string) (*Object, error) {
	return ns.internString(text, nil)
}

// internString is InternString for a class of link group g, which
// resolves jk/lang/String as one of g's classes would.
func (ns *Namespace) internString(text string, g *linkGroup) (*Object, error) {
	ns.mu.Lock()
	if o, ok := ns.interns[text]; ok {
		ns.mu.Unlock()
		return o, nil
	}
	ns.mu.Unlock()
	sc, err := ns.load(ClassString, nil, nil, g)
	if err != nil {
		return nil, err
	}
	o := newString(sc, text, ns.Account)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if prev, ok := ns.interns[text]; ok {
		return prev, nil
	}
	ns.interns[text] = o
	return o, nil
}

// NewString allocates a fresh (non-interned) String object in this
// namespace, paid for by its account.
func (ns *Namespace) NewString(text string) (*Object, error) {
	sc, err := ns.Resolve(ClassString)
	if err != nil {
		return nil, err
	}
	return newString(sc, text, ns.Account), nil
}

// NewStringBytes is NewString for text held in a byte slice, which it
// copies once: the new string shares no bytes with b.
func (ns *Namespace) NewStringBytes(b []byte) (*Object, error) {
	sc, err := ns.Resolve(ClassString)
	if err != nil {
		return nil, err
	}
	return newString(sc, b, ns.Account), nil
}

func mustArrayClass(ns *Namespace, desc string) *Class {
	c, err := ns.arrayClass(desc, nil)
	if err != nil {
		panic(fmt.Sprintf("vmkit: array class %s: %v", desc, err))
	}
	return c
}

// StringText extracts the Go string from a jk/lang/String object. Returns
// "" when o is not a string.
func StringText(o *Object) string { return string(StringBytes(o)) }

// StringBytes returns the bytes of a jk/lang/String object, nil when o is
// not a string. The slice is the string's own: callers must not modify it.
func StringBytes(o *Object) []byte {
	if o == nil || o.Class == nil || o.Class.Name != ClassString {
		return nil
	}
	f := o.Class.FieldByName("bytes")
	if f == nil {
		return nil
	}
	arr := o.Fields[f.Slot].R
	if arr == nil {
		return nil
	}
	return arr.Bytes
}

// NewInstance allocates a zeroed instance of c for ns's domain, which
// owns it and pays for it. c need not be ns's own class.
func (ns *Namespace) NewInstance(c *Class) (*Object, error) {
	if c.IsInterface() || c.Def != nil && c.Def.Flags&FlagAbstract != 0 {
		return nil, fmt.Errorf("vmkit: cannot instantiate %s", c.Name)
	}
	if c.IsArray() {
		return nil, fmt.Errorf("vmkit: use NewArray for %s", c.Name)
	}
	return newInstance(c, ns.Account), nil
}

// NewArray allocates an array of the given descriptor and length in ns,
// paid for by its account.
func (ns *Namespace) NewArray(desc string, length int) (*Object, error) {
	return ns.newArray(desc, length, ns.Account)
}

// newArray is NewArray paid for by payer.
func (ns *Namespace) newArray(desc string, length int, payer *account.Account) (*Object, error) {
	if length < 0 {
		return nil, fmt.Errorf("vmkit: negative array size %d", length)
	}
	c, err := ns.arrayClass(desc, nil)
	if err != nil {
		return nil, err
	}
	if int64(length) > maxArrayLen(c) {
		return nil, fmt.Errorf("vmkit: %s", arrayTooLarge(c, int64(length)))
	}
	return newArray(c, length, payer), nil
}
