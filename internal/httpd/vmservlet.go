package httpd

import (
	"fmt"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

// DocServletSource returns the assembly for a VM servlet that serves a
// fixed in-memory document — the workload of Table 5's "IIS + J-Kernel"
// row: the bridge LRMIs into the servlet domain, and the body crosses back
// under the copying calling convention.
//
// The servlet keeps its document in a static of its (domain-local) class;
// it is installed via the configure([B)V convention.
func DocServletSource(className string) string {
	return fmt.Sprintf(`
.class %[1]s implements jk/servlet/Servlet
.field static body [B
.method static configure ([B)V
  load 0
  putstatic %[1]s.body:[B
  ret
.end
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  getstatic %[1]s.body:[B
  retv
.end
`, className)
}

// Configure invokes the optional static configure([B)V convention on a
// servlet domain's main class.
func Configure(k *core.Kernel, d *core.Domain, mainClass string, config []byte) error {
	cls, err := d.NS.Resolve(mainClass)
	if err != nil {
		return err
	}
	if cls.MethodBySig("configure", "([B)V") == nil {
		return fmt.Errorf("httpd: %s has no configure([B)V", mainClass)
	}
	task := k.NewTask(d, "configure")
	defer task.Close()
	arr, err := d.NS.NewArray("[B", len(config))
	if err != nil {
		return err
	}
	copy(arr.Bytes, config)
	_, err = task.CallStatic(mainClass+".configure:([B)V", vmkit.RefVal(arr))
	return err
}

// MountDocServlet uploads a document-serving VM servlet and configures it
// with doc. It returns the servlet domain.
func (b *Bridge) MountDocServlet(name, prefix string, doc []byte) (*core.Domain, error) {
	className := "DocServlet"
	src := DocServletSource(className)
	data, err := vmkit.AssembleBytes(src)
	if err != nil {
		return nil, err
	}
	d, err := b.UploadVM(name, prefix, className, map[string][]byte{className: data})
	if err != nil {
		return nil, err
	}
	if err := Configure(b.K, d, className, doc); err != nil {
		b.TerminateServlet(name)
		return nil, err
	}
	return d, nil
}
