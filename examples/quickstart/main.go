// Quickstart: two protection domains in one process, communicating only
// through revocable capabilities — the core of the J-Kernel model.
//
// Part 1 uses native Go objects as capability targets. Part 2 loads
// verified bytecode into a VM domain and calls through a generated stub,
// exactly as the paper's Java system works.
package main

import (
	"fmt"
	"log"

	"jkernel"
)

// Greeter is a service one domain exports to another. Remote methods are
// the exported methods whose last result is error.
type Greeter struct {
	Lang string
}

// Greet builds a greeting.
func (g *Greeter) Greet(name string) (string, error) {
	return fmt.Sprintf("[%s] hello, %s", g.Lang, name), nil
}

// Redact mutates its argument — safely: LRMI hands it a copy.
func (g *Greeter) Redact(data []byte) ([]byte, error) {
	for i := range data {
		data[i] = '*'
	}
	return data, nil
}

func main() {
	k := jkernel.New(jkernel.Options{})

	server, err := k.NewDomain(jkernel.DomainConfig{Name: "server"})
	if err != nil {
		log.Fatal(err)
	}
	client, err := k.NewDomain(jkernel.DomainConfig{Name: "client"})
	if err != nil {
		log.Fatal(err)
	}

	// --- Part 1: native capabilities -----------------------------------
	cap, err := k.CreateNativeCapability(server, &Greeter{Lang: "en"})
	if err != nil {
		log.Fatal(err)
	}
	if err := k.Repository().Bind("greeter", cap); err != nil {
		log.Fatal(err)
	}

	// The client goroutine enters its domain with a Task.
	task := k.NewTask(client, "main")
	defer task.Close()

	got := k.Repository().Lookup("greeter")
	res, err := got.Invoke("Greet", "world")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dynamic invoke:", res[0])

	// Typed stubs via Bind — the Go analog of casting to a remote
	// interface.
	var stub struct {
		Greet  func(name string) (string, error)
		Redact func(data []byte) ([]byte, error)
	}
	if err := got.Bind(&stub); err != nil {
		log.Fatal(err)
	}
	msg, err := stub.Greet("again")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("typed stub:   ", msg)

	// Arguments cross by copy: the callee cannot scribble on our buffer.
	mine := []byte("secret")
	redacted, _ := stub.Redact(mine)
	fmt.Printf("redacted=%s, mine is still %q\n", redacted, mine)

	// Revocation: one call, then the rug is pulled.
	cap.Revoke()
	if _, err := stub.Greet("too late"); err == jkernel.ErrRevoked {
		fmt.Println("after revoke: ", err)
	}

	// --- Part 2: a VM domain with verified bytecode ---------------------
	// The adder domain loads a class implementing a remote interface; the
	// kernel generates a bytecode stub and the call crosses domains under
	// the copying convention.
	adderIface := jkernel.MustAssemble(`
.class Adder interface implements jk/kernel/Remote
.method add (II)I
.end
`)
	adderImpl := jkernel.MustAssemble(`
.class AdderImpl implements Adder
.method add (II)I
  load 1
  load 2
  iadd
  retv
.end
`)
	vmDomain, err := k.NewDomain(jkernel.DomainConfig{
		Name:    "vm-adder",
		Classes: map[string][]byte{"Adder": adderIface, "AdderImpl": adderImpl},
	})
	if err != nil {
		log.Fatal(err)
	}
	target, err := vmDomain.NewInstance("AdderImpl")
	if err != nil {
		log.Fatal(err)
	}
	vmCap, err := k.CreateVMCapability(vmDomain, target)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := vmCap.InvokeVM(task, "add", 40, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vm capability: 40 + 2 =", sum)

	// Terminating the domain revokes everything it created.
	vmDomain.Terminate("demo over")
	if _, err := vmCap.InvokeVM(task, "add", 1, 1); err != nil {
		fmt.Println("after terminate:", err)
	}

	// Resource accounting survives the domain.
	st := vmDomain.Stats()
	fmt.Printf("vm-adder account: %d alloc bytes, %d interp steps, %d class bytes\n",
		st.AllocBytes, st.Steps, st.ClassBytes)
}
