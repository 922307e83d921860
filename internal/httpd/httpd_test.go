package httpd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func newBridge(t *testing.T) (*core.Kernel, *Bridge) {
	t.Helper()
	k := core.MustNew(core.Options{})
	b, err := NewBridge(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, b
}

type helloServlet struct{ greeting string }

func (h *helloServlet) Service(req *Request) (*Response, error) {
	return &Response{
		Status: 200,
		Body:   []byte(h.greeting + " " + req.Path),
	}, nil
}

type crashServlet struct{}

func (c *crashServlet) Service(req *Request) (*Response, error) {
	panic("servlet bug")
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res, string(body)
}

func TestNativeServletRoundTrip(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountNative("hello", "/hello", &helloServlet{greeting: "hi"}); err != nil {
		t.Fatal(err)
	}
	res, body := get(t, b, "/hello/world")
	if res.StatusCode != 200 || body != "hi /hello/world" {
		t.Errorf("got %d %q", res.StatusCode, body)
	}
	res, _ = get(t, b, "/nope")
	if res.StatusCode != 404 {
		t.Errorf("unrouted path: %d", res.StatusCode)
	}
}

func TestServletCrashIsolated(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountNative("boom", "/boom", &crashServlet{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MountNative("ok", "/ok", &helloServlet{greeting: "ok"}); err != nil {
		t.Fatal(err)
	}
	res, body := get(t, b, "/boom")
	if res.StatusCode != http.StatusBadGateway {
		t.Errorf("crash status = %d (%s)", res.StatusCode, body)
	}
	// The server and the other servlet live on.
	res, _ = get(t, b, "/ok")
	if res.StatusCode != 200 {
		t.Errorf("healthy servlet harmed by sibling crash: %d", res.StatusCode)
	}
}

// A VM servlet whose service asks newarr for 2^62 bytes answers 500, and
// the next request, to another route, is served.
func TestVMServletGiantArrayIs500(t *testing.T) {
	_, b := newBridge(t)
	data, err := vmkit.AssembleBytes(`
.class Giant implements jk/servlet/Servlet
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  iconst 4611686018427387904
  newarr "[B"
  retv
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.UploadVM("giant", "/giant", "Giant", map[string][]byte{"Giant": data}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MountDocServlet("doc", "/doc", []byte("doc body")); err != nil {
		t.Fatal(err)
	}
	res, body := get(t, b, "/giant")
	if res.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "exceeds") {
		t.Errorf("giant newarr: %d %q, want 500", res.StatusCode, body)
	}
	if res, body := get(t, b, "/doc"); res.StatusCode != 200 || body != "doc body" {
		t.Errorf("next request: %d %q, want 200", res.StatusCode, body)
	}
}

// A VM servlet whose domain was terminated under a mounted route is
// unavailable, not failed.
func TestVMServletTerminatedIs503(t *testing.T) {
	_, b := newBridge(t)
	d, err := b.MountDocServlet("doc", "/doc", []byte("doc body"))
	if err != nil {
		t.Fatal(err)
	}
	d.Terminate("test")
	if res, body := get(t, b, "/doc"); res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("terminated VM servlet: %d %q, want 503", res.StatusCode, body)
	}
}

func TestVMDocServlet(t *testing.T) {
	_, b := newBridge(t)
	doc := []byte("<html>doc body</html>")
	if _, err := b.MountDocServlet("doc", "/doc", doc); err != nil {
		t.Fatal(err)
	}
	res, body := get(t, b, "/doc/index.html")
	if res.StatusCode != 200 || body != string(doc) {
		t.Errorf("got %d %q", res.StatusCode, body)
	}
}

func TestUploadTerminateReplaceCycle(t *testing.T) {
	_, b := newBridge(t)
	mk := func(msg string) []byte {
		src := fmt.Sprintf(`
.class UserServlet implements jk/servlet/Servlet
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  sconst %q
  invokevirtual jk/lang/String.getBytes:()[B
  retv
.end
`, msg)
		data, err := vmkit.AssembleBytes(src)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Upload v1 through the admin HTTP surface, like a real user.
	bundle := EncodeBundle(map[string][]byte{"UserServlet": mk("version one")})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost,
		"/admin/upload?name=user&prefix=/user&main=UserServlet", bytes.NewReader(bundle))
	b.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	if _, body := get(t, b, "/user"); body != "version one" {
		t.Fatalf("v1 body = %q", body)
	}

	// Terminate it; requests now fail but the server survives.
	rec = httptest.NewRecorder()
	b.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/admin/servlet?name=user", nil))
	if rec.Code != 200 {
		t.Fatalf("terminate: %d", rec.Code)
	}
	if res, _ := get(t, b, "/user"); res.StatusCode != 404 {
		t.Errorf("after terminate: %d, want 404 (unmounted)", res.StatusCode)
	}

	// Hot-replace with v2 under the same name — no server restart, fresh
	// domain: the terminated one's name is free again.
	bundle = EncodeBundle(map[string][]byte{"UserServlet": mk("version two")})
	rec = httptest.NewRecorder()
	b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/admin/upload?name=user&prefix=/user&main=UserServlet", bytes.NewReader(bundle)))
	if rec.Code != 200 {
		t.Fatalf("re-upload: %d %s", rec.Code, rec.Body.String())
	}
	if _, body := get(t, b, "/user"); body != "version two" {
		t.Errorf("v2 body = %q", body)
	}
}

func TestUploadRejectsBadBytecode(t *testing.T) {
	_, b := newBridge(t)
	// Type-confused servlet: returns an int where [B is declared.
	src := `
.class EvilServlet implements jk/servlet/Servlet
.method service (Ljk/lang/String;Ljk/lang/String;[B)[B
  iconst 1234
  retv
.end
`
	data, err := vmkit.AssembleBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	bundle := EncodeBundle(map[string][]byte{"EvilServlet": data})
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/admin/upload?name=evil&prefix=/evil&main=EvilServlet", bytes.NewReader(bundle)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("verifier-rejected upload returned %d: %s", rec.Code, rec.Body.String())
	}
}

func TestJWSHandlesRequests(t *testing.T) {
	k := core.MustNew(core.Options{})
	doc := []byte(strings.Repeat("x", 100))
	jws, err := NewJWS(k, doc)
	if err != nil {
		t.Fatal(err)
	}
	task := k.NewTask(jws.Domain, "test")
	defer task.Close()
	resp, err := jws.HandleWith(task, []byte("GET /index.html HTTP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(resp)
	if !strings.HasPrefix(s, "HTTP/1.0 200 OK\r\n") {
		t.Errorf("status line: %q", s[:min(40, len(s))])
	}
	if !strings.Contains(s, "Content-Length: 100\r\n") {
		t.Errorf("content length missing: %q", s[:80])
	}
	if !strings.HasSuffix(s, string(doc)) {
		t.Error("body missing")
	}
}

func TestJWSOverRealSocket(t *testing.T) {
	k := core.MustNew(core.Options{})
	jws, err := NewJWS(k, []byte("hello jws"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	go jws.Serve(ln)
	defer ln.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello jws" {
		t.Errorf("body = %q", body)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	in := map[string][]byte{"A": {1, 2}, "B": {}, "C": []byte("xyz")}
	out, err := DecodeBundle(EncodeBundle(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || string(out["C"]) != "xyz" || len(out["A"]) != 2 {
		t.Errorf("round trip = %v", out)
	}
	if _, err := DecodeBundle([]byte{1, 2, 3}); err == nil {
		t.Error("truncated bundle accepted")
	}
	if _, err := DecodeBundle(nil); err == nil {
		t.Error("empty bundle accepted")
	}
}

func TestStaticHandler(t *testing.T) {
	res, body := get(t, StaticHandler([]byte("static doc")), "/any")
	if res.StatusCode != 200 || body != "static doc" {
		t.Errorf("got %d %q", res.StatusCode, body)
	}
}

// echoLenServlet answers with the length of the body it was handed.
type echoLenServlet struct{}

func (echoLenServlet) Service(req *Request) (*Response, error) {
	return &Response{Status: 200, Body: []byte(fmt.Sprint(len(req.Body)))}, nil
}

// A body over the limit is refused with 413 — whether its length was
// declared or is only met while reading — on the servlet path and on the
// admin upload path. It used to reach the servlet cut to the limit, with a
// 200, and an upload reported "truncated class data".
func TestOversizeBodyIs413(t *testing.T) {
	k, b := newBridge(t)
	if _, err := b.MountNative("len", "/len", echoLenServlet{}); err != nil {
		t.Fatal(err)
	}
	post := func(path string, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	// struct{io.Reader} hides the length: ContentLength is -1, as for a
	// chunked upload.
	big := func() io.Reader { return bytes.NewReader(make([]byte, maxBody+1)) }
	const upload = "/admin/upload?name=u&prefix=/u&main=U"
	for name, rec := range map[string]*httptest.ResponseRecorder{
		"servlet, declared":   post("/len", big()),
		"servlet, undeclared": post("/len", struct{ io.Reader }{big()}),
		"upload, declared":    post(upload, big()),
		"upload, undeclared":  post(upload, struct{ io.Reader }{big()}),
	} {
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	// At the limit the body arrives whole, either way.
	for name, body := range map[string]io.Reader{
		"declared":   bytes.NewReader(make([]byte, maxBody)),
		"undeclared": struct{ io.Reader }{bytes.NewReader(make([]byte, maxBody))},
	} {
		if rec := post("/len", body); rec.Code != 200 || rec.Body.String() != fmt.Sprint(maxBody) {
			t.Errorf("body at the limit, %s: %d %q", name, rec.Code, rec.Body.String())
		}
	}
	// A body that ends before its declared length is the client's error.
	short := httptest.NewRequest(http.MethodPost, "/len", strings.NewReader("abc"))
	short.ContentLength = 10
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, short)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("short body: status %d, want 400", rec.Code)
	}
	// Every routed request above was counted, once, under its status.
	reg := k.Telemetry()
	if got := reg.Counter("httpd.requests").Value(); got != 5 {
		t.Errorf("httpd.requests = %d, want 5 (admin requests are not routed)", got)
	}
	for status, want := range map[string]int64{"status_413": 2, "status_200": 2, "status_400": 1} {
		if got := reg.Counter("httpd.req.len." + status).Value(); got != want {
			t.Errorf("httpd.req.len.%s = %d, want %d", status, got, want)
		}
	}
}

// echoServlet answers with the body it was handed.
type echoServlet struct{}

func (echoServlet) Service(req *Request) (*Response, error) {
	return &Response{Status: 200, Body: req.Body}, nil
}

// A declared body is read in chunks that grow with what has arrived, not
// allocated whole on the client's word: it still arrives intact across
// chunk boundaries, and one that stops short in a later chunk is a 400.
func TestDeclaredBodyReadInChunks(t *testing.T) {
	_, b := newBridge(t)
	if _, err := b.MountNative("echo", "/echo", echoServlet{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, bodyChunk - 1, bodyChunk, bodyChunk + 1, 3*bodyChunk + 7} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 31)
		}
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/echo", bytes.NewReader(body)))
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Errorf("%d-byte body: status %d, %d bytes back, intact=%v", n, rec.Code, rec.Body.Len(), bytes.Equal(rec.Body.Bytes(), body))
		}
	}
	short := httptest.NewRequest(http.MethodPost, "/echo", bytes.NewReader(make([]byte, bodyChunk+10)))
	short.ContentLength = 3 * bodyChunk
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, short)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("body cut short in its second chunk: status %d, want 400", rec.Code)
	}
}

// A status other than 200 gets its counter by name; headers of the
// request reach the servlet, and a request without any hands it a nil map.
type teapotServlet struct{ sawHeaders chan map[string]string }

func (s teapotServlet) Service(req *Request) (*Response, error) {
	s.sawHeaders <- req.Headers
	return &Response{Status: http.StatusTeapot}, nil
}

func TestServletChosenStatusAndHeaders(t *testing.T) {
	k, b := newBridge(t)
	s := teapotServlet{sawHeaders: make(chan map[string]string, 2)}
	if _, err := b.MountNative("tea", "/tea", s); err != nil {
		t.Fatal(err)
	}
	if res, _ := get(t, b, "/tea"); res.StatusCode != http.StatusTeapot {
		t.Errorf("status %d, want 418", res.StatusCode)
	}
	if h := <-s.sawHeaders; h != nil {
		t.Errorf("header-less request handed the servlet %v, want nil", h)
	}
	req := httptest.NewRequest(http.MethodGet, "/tea", nil)
	req.Header.Set("X-Trace", "t1")
	b.ServeHTTP(httptest.NewRecorder(), req)
	if h := <-s.sawHeaders; h["X-Trace"] != "t1" {
		t.Errorf("headers = %v", h)
	}
	if got := k.Telemetry().Counter("httpd.req.tea.status_418").Value(); got != 2 {
		t.Errorf("status_418 = %d, want 2", got)
	}
	if got := k.Telemetry().Histogram("httpd.req.tea.latency_ns").Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
}
