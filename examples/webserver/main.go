// Webserver: the paper's §4 extensible HTTP server. An off-the-shelf
// net/http front server (standing in for IIS) hosts the J-Kernel bridge;
// user servlets are uploaded as bytecode over HTTP, each into its own
// protection domain, and can be terminated and hot-replaced while the
// server keeps running. A deliberately crashing native servlet shows
// failure isolation.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	"jkernel"
	"jkernel/servlet"
)

// statusServlet is a native Go servlet.
type statusServlet struct{}

func (statusServlet) Service(req *servlet.Request) (*servlet.Response, error) {
	return &servlet.Response{
		Status: 200,
		Body:   []byte("server is healthy; path=" + req.Path),
	}, nil
}

// crashServlet fails on every request — and harms nobody else.
type crashServlet struct{}

func (crashServlet) Service(req *servlet.Request) (*servlet.Response, error) {
	var boom []int
	_ = boom[42] // deliberate out-of-range panic
	return nil, nil
}

func main() {
	k := jkernel.New(jkernel.Options{})
	bridge, err := servlet.NewBridge(k)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bridge.MountNative("status", "/status", statusServlet{}); err != nil {
		log.Fatal(err)
	}
	if _, err := bridge.MountNative("crash", "/crash", crashServlet{}); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	go http.Serve(ln, bridge)
	fmt.Println("extensible server on", base)

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/status")
	fmt.Printf("GET /status -> %d %q\n", code, body)

	// The crashing servlet returns 502; the server and other servlets are
	// untouched — failure isolation in action.
	code, _ = get("/crash")
	fmt.Printf("GET /crash  -> %d (isolated; server still up)\n", code)
	code, _ = get("/status")
	fmt.Printf("GET /status -> %d (still healthy)\n", code)

	// Upload a VM servlet: bytecode travels over HTTP into a fresh domain,
	// is verified, and serves requests.
	src := `
.class CounterServlet implements jk/servlet/Servlet
.field hits I
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  load 0
  load 0
  getfield CounterServlet.hits:I
  iconst 1
  iadd
  putfield CounterServlet.hits:I
  sconst "counter page, hit "
  load 0
  getfield CounterServlet.hits:I
  invokestatic jk/lang/String.valueOfInt:(I)Ljk/lang/String;
  invokevirtual jk/lang/String.concat:(Ljk/lang/String;)Ljk/lang/String;
  invokevirtual jk/lang/String.getBytes:()[B
  retv
.end
`
	classData, err := jkernel.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	bundle := servlet.EncodeBundle(map[string][]byte{"CounterServlet": classData})
	resp, err := http.Post(
		base+"/admin/upload?name=counter&prefix=/counter&main=CounterServlet",
		"application/octet-stream", bytes.NewReader(bundle))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Println("uploaded counter servlet:", resp.Status)

	for i := 0; i < 3; i++ {
		_, body = get("/counter")
		fmt.Println("GET /counter ->", body)
	}

	// Terminate it (revoking its capability) and hot-replace — no server
	// restart, state gone with the domain.
	req, _ := http.NewRequest(http.MethodDelete, base+"/admin/servlet?name=counter", nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		log.Fatal(err)
	}
	fmt.Println("terminated counter servlet")

	resp, err = http.Post(
		base+"/admin/upload?name=counter2&prefix=/counter&main=CounterServlet",
		"application/octet-stream", bytes.NewReader(bundle))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	_, body = get("/counter")
	fmt.Println("after hot-replace:", body)
}
