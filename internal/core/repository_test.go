package core

import (
	"testing"
)

func TestRepositoryBindLookupUnbind(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{Name: "d"})
	if err != nil {
		t.Fatal(err)
	}
	cap1, err := k.CreateNativeCapability(d, &calcService{})
	if err != nil {
		t.Fatal(err)
	}
	cap2, err := k.CreateNativeCapability(d, &calcService{})
	if err != nil {
		t.Fatal(err)
	}
	r := k.Repository()
	if err := r.Bind("a", cap1); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind("a", cap2); err == nil {
		t.Error("duplicate bind accepted")
	}
	if got := r.Lookup("a"); got != cap1 {
		t.Error("lookup returned wrong capability")
	}
	r.Rebind("a", cap2)
	if got := r.Lookup("a"); got != cap2 {
		t.Error("rebind did not replace")
	}
	if err := r.Bind("b", cap1); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	r.Unbind("a")
	if r.Lookup("a") != nil {
		t.Error("unbind left binding")
	}
}

func TestDomainFieldHelpers(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{
		Name: "d",
		Classes: map[string][]byte{
			"Rec": mustAsm(t, ".class Rec\n.field n I\n.field data [B\n.field label Ljk/lang/String;\n"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := d.NewInstance("Rec")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetIntField(obj, "n", 42); err != nil {
		t.Fatal(err)
	}
	if err := d.SetBytesField(obj, "data", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetStringField(obj, "label", "hi"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetIntField(obj, "missing", 1); err == nil {
		t.Error("missing field accepted")
	}
	cls := obj.Class
	if obj.Fields[cls.FieldByName("n").Slot].I != 42 {
		t.Error("int field lost")
	}
	if len(obj.Fields[cls.FieldByName("data").Slot].R.Bytes) != 2 {
		t.Error("bytes field lost")
	}
}

func TestInvokeVMConversions(t *testing.T) {
	k := MustNew(Options{})
	iface := mustAsm(t, `
.class Conv interface implements jk/kernel/Remote
.method twice (Ljk/lang/String;)Ljk/lang/String;
.end
.method xor ([B)[B
.end
.method half (D)D
.end
`)
	impl := mustAsm(t, `
.class ConvImpl implements Conv
.method twice (Ljk/lang/String;)Ljk/lang/String;
  load 1
  load 1
  invokevirtual jk/lang/String.concat:(Ljk/lang/String;)Ljk/lang/String;
  retv
.end
.method xor ([B)[B
  load 1
  retv
.end
.method half (D)D
  load 1
  dconst 2.0
  ddiv
  retv
.end
`)
	host, err := k.NewDomain(DomainConfig{
		Name:    "host",
		Classes: map[string][]byte{"Conv": iface, "ConvImpl": impl},
	})
	if err != nil {
		t.Fatal(err)
	}
	user, err := k.NewDomain(DomainConfig{Name: "user"})
	if err != nil {
		t.Fatal(err)
	}
	target, err := host.NewInstance("ConvImpl")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := k.CreateVMCapability(host, target)
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(user, "t")
	defer task.Close()

	out, err := cap.InvokeVM(task, "twice", "ab")
	if err != nil || out.(string) != "abab" {
		t.Errorf("twice = %v, %v", out, err)
	}
	out, err = cap.InvokeVM(task, "xor", []byte{1, 2, 3})
	if err != nil || len(out.([]byte)) != 3 {
		t.Errorf("xor = %v, %v", out, err)
	}
	out, err = cap.InvokeVM(task, "half", 5.0)
	if err != nil || out.(float64) != 2.5 {
		t.Errorf("half = %v, %v", out, err)
	}
	if _, err := cap.InvokeVM(task, "nonexistent"); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := cap.InvokeVM(task, "twice"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := cap.InvokeVM(task, "twice", 7); err == nil {
		t.Error("type mismatch accepted (int for string param)")
	}
}

func TestDetachedTaskUsableAcrossGoroutines(t *testing.T) {
	k := MustNew(Options{})
	d, err := k.NewDomain(DomainConfig{
		Name: "d",
		Classes: map[string][]byte{
			"W": mustAsm(t, ".class W\n.method static f ()I\n iconst 7\n retv\n.end\n"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewDetachedTask(d, "worker")
	defer task.Close()
	// Serial handoff between goroutines, as a task pool does.
	for g := 0; g < 3; g++ {
		errc := make(chan error, 1)
		go func() {
			v, err := task.CallStatic("W.f:()I")
			if err == nil && v.I != 7 {
				err = ErrNoSuchMethod
			}
			errc <- err
		}()
		if err := <-errc; err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
