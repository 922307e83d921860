package httpd

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
)

// replyServlet answers every request with its status, headers and body.
type replyServlet struct {
	status  int
	headers map[string]string
	body    []byte
}

func (s *replyServlet) Service(*Request) (*Response, error) {
	return &Response{Status: s.status, Headers: s.headers, Body: s.body}, nil
}

// explicitFraming is the reference a routed reply is held to: a handler
// that sets Content-Length to the body's length itself before
// WriteHeader, after any headers of the servlet's, as the bridge once did
// for every reply.
func explicitFraming(status int, headers map[string]string, body []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range headers {
			w.Header().Set(k, v)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body)
	})
}

// framedReply is what a client sees of a reply, Date left out.
type framedReply struct {
	status           int
	header           http.Header
	transferEncoding []string
	body             []byte
}

func fetch(t *testing.T, c *http.Client, method, url string) framedReply {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	res.Header.Del("Date")
	return framedReply{res.StatusCode, res.Header, res.TransferEncoding, body}
}

func (a framedReply) String() string {
	return fmt.Sprintf("%d %v TE=%v body %d B", a.status, a.header, a.transferEncoding, len(a.body))
}

// Through a real http.Server, every routed reply — native or VM, short
// enough for net/http to frame it or too long for its buffer, to GET or
// to HEAD — carries the same status, headers and bytes as the explicitly
// framed reference, and a body's reply its length as Content-Length,
// never chunked. A native 204 and a servlet's own headers (a wrong
// Content-Length among them) come out as the reference sends them too.
func TestReplyFramingMatchesExplicitContentLength(t *testing.T) {
	_, b := newBridge(t)
	srv := httptest.NewServer(b)
	defer srv.Close()
	c := srv.Client()

	type row struct {
		name    string
		path    string
		status  int
		headers map[string]string
		body    []byte
	}
	var rows []row
	for _, n := range []int{0, 10, 2047, 2048, 2049, 65536} {
		body := bytes.Repeat([]byte{'a' + byte(n%26)}, n)
		nat, vm := fmt.Sprintf("n%d", n), fmt.Sprintf("v%d", n)
		if _, err := b.MountNative(nat, "/"+nat+"/", &replyServlet{status: 200, body: body}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.MountDocServlet(vm, "/"+vm+"/", body); err != nil {
			t.Fatal(err)
		}
		rows = append(rows,
			row{nat, "/" + nat + "/x", 200, nil, body},
			row{vm, "/" + vm + "/x", 200, nil, body})
	}
	extra := []row{
		{"no-content", "/nc/x", http.StatusNoContent, nil, nil},
		{"headers", "/hd/x", 200, map[string]string{"X-Servlet": "yes", "content-length": "1"}, []byte("own headers")},
		{"headers-long", "/hl/x", 200, map[string]string{"X-Servlet": "yes"}, bytes.Repeat([]byte("h"), 4000)},
	}
	for _, r := range extra {
		if _, err := b.MountNative(r.name, r.path[:3], &replyServlet{status: r.status, headers: r.headers, body: r.body}); err != nil {
			t.Fatal(err)
		}
	}
	rows = append(rows, extra...)

	for _, r := range rows {
		ref := httptest.NewServer(explicitFraming(r.status, r.headers, r.body))
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			got := fetch(t, c, method, srv.URL+r.path)
			want := fetch(t, ref.Client(), method, ref.URL+r.path)
			if got.status != want.status || !maps.EqualFunc(got.header, want.header, slices.Equal) ||
				!slices.Equal(got.transferEncoding, want.transferEncoding) || !bytes.Equal(got.body, want.body) {
				t.Errorf("%s %s:\n got %v\nwant %v", method, r.name, got, want)
			}
			if r.status == http.StatusNoContent {
				continue
			}
			if cl := got.header.Get("Content-Length"); cl != strconv.Itoa(len(r.body)) || got.transferEncoding != nil {
				t.Errorf("%s %s: Content-Length %q, Transfer-Encoding %v; want %d and none", method, r.name, cl, got.transferEncoding, len(r.body))
			}
		}
		ref.Close()
	}
}
