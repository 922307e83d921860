package jkernel

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"jkernel/servlet"
	"jkernel/toolchain"
)

// End-to-end: the extensible web server hosting the CS314 toolchain, a
// MiniC program flowing compile→assemble→link→run across four isolated
// servlet domains, then a servlet termination that leaves the rest
// serving. This is the examples' behavior, pinned as a test.
func TestIntegrationToolchainOverExtensibleServer(t *testing.T) {
	k := New(Options{})
	bridge, err := servlet.NewBridge(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := toolchain.MountServlets(bridge); err != nil {
		t.Fatal(err)
	}

	post := func(path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		bridge.ServeHTTP(rec, req)
		res := rec.Result()
		out, _ := io.ReadAll(res.Body)
		return res.StatusCode, out
	}

	src := `
func square(x) { return x * x; }
func main() {
  var i = 1;
  while (i <= 5) {
    print(square(i));
    i = i + 1;
  }
}
`
	code, asm := post("/cs314/compile", []byte(src))
	if code != 200 {
		t.Fatalf("compile: %d %s", code, asm)
	}
	code, obj := post("/cs314/assemble?unit=prog", asm)
	if code != 200 {
		t.Fatalf("assemble: %d %s", code, obj)
	}
	code, exe := post("/cs314/link", servlet.EncodeBundle(map[string][]byte{"prog": obj}))
	if code != 200 {
		t.Fatalf("link: %d %s", code, exe)
	}
	code, out := post("/cs314/run", exe)
	if code != 200 {
		t.Fatalf("run: %d %s", code, out)
	}
	want := "1\n4\n9\n16\n25\n"
	if string(out) != want {
		t.Errorf("program output = %q, want %q", out, want)
	}

	// A compile-error path exercises failure isolation inside a servlet.
	code, msg := post("/cs314/compile", []byte("func broken( {"))
	if code != 422 || !strings.Contains(string(msg), "minic") {
		t.Errorf("bad source: %d %q", code, msg)
	}

	// Kill the compiler domain; the runner must keep serving.
	if err := bridge.TerminateServlet("cs314-compile"); err != nil {
		t.Fatal(err)
	}
	if code, _ := post("/cs314/compile", []byte(src)); code != 404 {
		t.Errorf("terminated servlet returned %d, want 404", code)
	}
	if code, _ := post("/cs314/run", exe); code != 200 {
		t.Errorf("runner harmed by compiler termination: %d", code)
	}
}

// End-to-end VM servlet upload through the admin surface, with state reset
// on hot-replace (the fresh-domain guarantee).
func TestIntegrationUploadAndHotReplace(t *testing.T) {
	k := New(Options{})
	bridge, err := servlet.NewBridge(k)
	if err != nil {
		t.Fatal(err)
	}
	classData := MustAssemble(`
.class Hit implements jk/servlet/Servlet
.field count I
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  load 0
  load 0
  getfield Hit.count:I
  iconst 1
  iadd
  putfield Hit.count:I
  load 0
  getfield Hit.count:I
  invokestatic jk/lang/String.valueOfInt:(I)Ljk/lang/String;
  invokevirtual jk/lang/String.getBytes:()[B
  retv
.end
`)
	bundle := servlet.EncodeBundle(map[string][]byte{"Hit": classData})
	do := func(method, path string, body []byte) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		bridge.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	if code, msg := do(http.MethodPost, "/admin/upload?name=h&prefix=/h&main=Hit", bundle); code != 200 {
		t.Fatalf("upload: %d %s", code, msg)
	}
	for want := 1; want <= 3; want++ {
		if _, body := do(http.MethodGet, "/h", nil); body != itoa(want) {
			t.Fatalf("hit %d: body=%q", want, body)
		}
	}
	if code, _ := do(http.MethodDelete, "/admin/servlet?name=h", nil); code != 200 {
		t.Fatal("terminate failed")
	}
	if code, msg := do(http.MethodPost, "/admin/upload?name=h2&prefix=/h&main=Hit", bundle); code != 200 {
		t.Fatalf("re-upload: %d %s", code, msg)
	}
	// Fresh domain, fresh state.
	if _, body := do(http.MethodGet, "/h", nil); body != "1" {
		t.Errorf("hot-replaced servlet kept state: %q", body)
	}
}

func itoa(n int) string {
	return strconv.Itoa(n)
}
