package core

import (
	"fmt"

	"jkernel/internal/vmkit"
)

// genStubClass generates a capability stub class, the run-time code
// generation of the paper's "Local-RMI stubs": create "automatically
// generates a stub class at run-time for each target class". The stub
// extends jk/kernel/Capability and implements every remote interface of
// the target. Each of its methods is a native with the interface method's
// name and descriptor, which the gate binds when the class links
// (Gate.Native): an invokeinterface on a capability enters the gate in one
// call, with the raw arguments — no argument array, no boxes — and the gate
// checks revocation, switches thread segments, and applies the copying
// calling convention.
//
// The generated class is emitted as binary bytecode and loaded through the
// ordinary decode/verify/link pipeline, like any other class.
func genStubClass(k *Kernel, g *Gate, targetClass *vmkit.Class) *vmkit.ClassDef {
	name := fmt.Sprintf("jk/stub/%s$%d", targetClass.Name, k.nextStub.Add(1))
	def := &vmkit.ClassDef{
		Name:  name,
		Super: classCapability,
	}
	for _, ifc := range g.ifaces {
		def.Interfaces = append(def.Interfaces, ifc.Name)
	}
	for i := range g.plans {
		m := g.plans[i].m
		def.Methods = append(def.Methods, vmkit.MethodDef{Name: m.Name, Desc: m.Desc, Flags: vmkit.MNative})
	}
	return def
}

// Native binds a method of g's stub class to the gate: the function checks
// that the receiver is a stub of g — a subclass of the stub class inherits
// the method but is not a capability — and makes the call.
func (g *Gate) Native(md *vmkit.MethodDef) vmkit.NativeFunc {
	for i := range g.plans {
		plan := &g.plans[i]
		if plan.m.Name != md.Name || plan.m.Desc != md.Desc {
			continue
		}
		return func(env *vmkit.Env, recv *vmkit.Object, args []vmkit.Value) (vmkit.Value, *vmkit.Object) {
			if gateOf(recv) != g {
				return vmkit.Value{}, g.k.VM.Throwf(vmkit.ClassIllegalStateEx, "not a capability")
			}
			return g.callVM(env.Thread, plan, args)
		}
	}
	return nil
}
