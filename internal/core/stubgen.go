package core

import (
	"fmt"

	"jkernel/internal/vmkit"
)

// genStubClass generates the bytecode for a capability stub class, the
// run-time code generation of the paper's "Local-RMI stubs": create
// "automatically generates a stub class at run-time for each target
// class". The stub extends jk/kernel/Capability, implements every remote
// interface of the target, and each method loads the stub, its method
// index and its raw arguments — no argument array, no boxes — and enters
// the gate through the typed entry for the method's shape (see entryFor),
// where the gate checks revocation, switches thread segments, and applies
// the copying calling convention.
//
// The generated class is emitted as binary bytecode and loaded through the
// ordinary decode/verify/link pipeline, so the verifier checks the
// generator's output like any other class.
func genStubClass(k *Kernel, g *Gate, targetClass *vmkit.Class) *vmkit.ClassDef {
	name := fmt.Sprintf("jk/stub/%s$%d", targetClass.Name, k.nextStub.Add(1))
	def := &vmkit.ClassDef{
		Name:  name,
		Super: classCapability,
	}
	for _, ifc := range g.ifaces {
		def.Interfaces = append(def.Interfaces, ifc.Name)
	}
	for idx := range g.plans {
		def.Methods = append(def.Methods, genStubMethod(idx, &g.plans[idx]))
	}
	return def
}

// genStubMethod emits one stub method forwarding to its typed entry.
func genStubMethod(idx int, p *vmMethodPlan) vmkit.MethodDef {
	code := []vmkit.Instr{
		{Op: vmkit.OpLoad, I: 0},
		{Op: vmkit.OpIConst, I: int64(idx)},
	}
	for j := range p.params {
		code = append(code, vmkit.Instr{Op: vmkit.OpLoad, I: int64(1 + j)})
	}
	code = append(code, vmkit.Instr{Op: vmkit.OpInvokeS, S: p.entry.class + ".call:" + p.entry.desc})

	// Primitives come back raw. The entry types a reference result as
	// Object; the cast restores the declared type.
	switch ret := p.m.RetDesc(); {
	case ret == "":
		code = append(code, vmkit.Instr{Op: vmkit.OpRet})
	case vmkit.DescKind(ret) == vmkit.KRef:
		code = append(code, vmkit.Instr{Op: vmkit.OpCast, S: vmkit.RefName(ret)}, vmkit.Instr{Op: vmkit.OpRetV})
	default:
		code = append(code, vmkit.Instr{Op: vmkit.OpRetV})
	}

	return vmkit.MethodDef{
		Name: p.m.Name,
		Desc: p.m.Desc,
		Code: code,
	}
}

// gateEntry is one typed gate entry: a generated system class
// jk/kernel/Enter$<shape> whose only member is
//
//	static native call (Ljk/kernel/Capability;I<params>)<ret>
//
// taking the stub, the method index and the raw arguments. A shape is a
// method descriptor with every reference type erased to Object — classes
// are checked by the gate against the callee's namespace, since the entry
// class lives in the bootstrap namespace and cannot name them — so
// "(ILFoo;D)I" and "(ILBar;D)I" share the entry Enter$ILD$I. Entries are
// ordinary public classes: hand-written bytecode may call one directly,
// and gets exactly what a stub gets — the verifier holds it to the
// entry's arity and kinds, the gate to the method's shape and classes.
// Their names are reserved (vmkit.GateEntryPrefix), so the entry a stub
// names is always this class and never one its creating domain supplied.
type gateEntry struct {
	class string // "jk/kernel/Enter$ILD$I"
	desc  string // "(Ljk/kernel/Capability;IILjk/lang/Object;D)I"
}

// erase maps a parameter or return descriptor to its shape letter and to
// its descriptor in an entry's signature.
func erase(desc string) (shape, entryDesc string) {
	switch vmkit.DescKind(desc) {
	case vmkit.KInt:
		return "I", "I"
	case vmkit.KFloat:
		return "D", "D"
	case vmkit.KRef:
		return "L", "L" + vmkit.ClassObject + ";"
	}
	return "V", "V"
}

// entryFor returns the typed entry for a method's parameter and return
// descriptors, generating its class on first use: the native is bound,
// then the class is defined into the bootstrap namespace through the
// ordinary link pipeline, from where every domain's resolver shares it.
func (k *Kernel) entryFor(params []string, ret string) (*gateEntry, error) {
	shape, desc := "", "(L"+classCapability+";I"
	for _, p := range params {
		s, d := erase(p)
		shape, desc = shape+s, desc+d
	}
	s, d := erase(ret)
	shape, desc = shape+"$"+s, desc+")"+d

	k.entryMu.Lock()
	defer k.entryMu.Unlock()
	if e := k.entries[shape]; e != nil {
		return e, nil
	}
	e := &gateEntry{class: vmkit.GateEntryPrefix + shape, desc: desc}
	k.VM.RegisterNative(e.class+".call:"+e.desc,
		func(env *vmkit.Env, _ *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			g, th := k.gateOfStub(args[0].R)
			if th != nil {
				return vmkit.Value{}, th
			}
			return g.callVM(env.Thread, e, args[1].I, args[2:])
		})
	def := &vmkit.ClassDef{
		Name:  e.class,
		Super: vmkit.ClassObject,
		Flags: vmkit.FlagSystem,
		Methods: []vmkit.MethodDef{{
			Name:  "call",
			Desc:  e.desc,
			Flags: vmkit.MStatic | vmkit.MNative,
		}},
	}
	if _, err := k.VM.Bootstrap().DefineDef(def); err != nil {
		return nil, fmt.Errorf("jkernel: defining %s: %w", e.class, err)
	}
	if k.entries == nil {
		k.entries = map[string]*gateEntry{}
	}
	k.entries[shape] = e
	return e, nil
}
