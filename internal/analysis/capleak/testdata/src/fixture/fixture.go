// Package fixture exercises the capleak pass: gate targets whose remote
// surface passes anything but capabilities and seri-registered deep-copy
// types must be reported at the creation site.
package fixture

// Cap stands in for core.Capability: the one legal cross-domain
// reference.
//
//jk:cap
type Cap struct{ id int64 }

// create stands in for core.Kernel.CreateNativeCapability.
//
//jk:gate-target 0
func create(target any) {}

// register stands in for seri's Registry.Register / RegisterWireType.
//
//jk:wire-register 1
func register(name string, sample any) {}

// Spec is wire-registered below: it may cross by value or pointer.
type Spec struct{ Name string }

// Unregistered never passes through register: it may not cross.
type Unregistered struct{ X int }

// good's whole remote surface is legal.
type good struct{}

func (good) Ping(n int64, s string) (string, error) { return s, nil }
func (good) Blob(b []byte) ([]byte, error)          { return b, nil }
func (good) Grant(c *Cap) (*Cap, error)             { return c, nil }
func (good) Deploy(sp *Spec) (Spec, error)          { return *sp, nil }
func (good) NotRemote(p *int)                       {}             // no trailing error: not on the remote surface
func (good) hidden(p *int) error                    { return nil } // unexported: not on the remote surface

// bad leaks shared mutable state in every method.
type bad struct{}

func (bad) Leak(p *int) error               { return nil }
func (bad) Share(m map[string]int) error    { return nil }
func (bad) Slice(s []string) (int64, error) { return 0, nil }
func (bad) Stream() (chan int, error)       { return nil, nil }
func (bad) Hook(f func()) error             { return nil }
func (bad) Opaque(v any) error              { return nil }
func (bad) Unreg(u Unregistered) error      { return nil }

func wire() {
	register("fixture.Spec", Spec{})
}

func cleanTargets() {
	create(good{})
	var dynamic any = bad{}
	create(dynamic) // interface-typed target: surface unknowable, skipped
}

func leakyTarget() {
	create(&bad{}) // want "method Hook" "method Leak" "method Opaque" "method Share" "method Slice" "method Stream" "method Unreg"
}

func allowedCounterExample() {
	//jk:allow(capleak) fixture: a deliberate breach — direct sharing is the demonstration
	create(&bad{})
}
