package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
)

// rawHTTP is the generator's HTTP/1.1 client: one keep-alive connection,
// request bytes built once per route, a reused read buffer, and a reply
// parser that looks at the status line and Content-Length only. It
// allocates nothing per request (loadgen.allocs_per_op holds it to that),
// so allocs_per_op on the HTTP workloads counts the server side.
type rawHTTP struct {
	conn io.ReadWriter
	br   *bufio.Reader
}

// rawHTTPBuffer holds any reply the workloads serve (bodies are at most a
// few KiB) so the body can be compared in place.
const rawHTTPBuffer = 16 << 10

func dialRawHTTP(addr string) (*rawHTTP, net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return newRawHTTP(nc), nc, nil
}

func newRawHTTP(conn io.ReadWriter) *rawHTTP {
	return &rawHTTP{conn: conn, br: bufio.NewReaderSize(conn, rawHTTPBuffer)}
}

// buildGET returns the request bytes for path.
func buildGET(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

var contentLength = []byte("content-length:")

// do sends req and reads one reply. It returns the status code and
// whether the reply was a 200 carrying exactly want.
func (c *rawHTTP) do(req, want []byte) (status int, ok bool, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, false, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || line[8] != ' ' {
		return 0, false, fmt.Errorf("rawHTTP: malformed status line %q", line)
	}
	status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return status, false, err
		}
		if len(line) <= 2 { // "\r\n": end of headers
			break
		}
		if len(line) > len(contentLength) && bytes.EqualFold(line[:len(contentLength)], contentLength) {
			length = 0
			for _, b := range bytes.TrimSpace(line[len(contentLength):]) {
				if b < '0' || b > '9' {
					return status, false, fmt.Errorf("rawHTTP: bad Content-Length %q", line)
				}
				length = length*10 + int(b-'0')
			}
		}
	}
	if length < 0 || length > rawHTTPBuffer {
		return status, false, fmt.Errorf("rawHTTP: reply without a usable Content-Length (%d)", length)
	}
	body, err := c.br.Peek(length)
	if err != nil {
		return status, false, err
	}
	ok = status == 200 && bytes.Equal(body, want)
	if _, err := c.br.Discard(length); err != nil {
		return status, false, err
	}
	return status, ok, nil
}

// cannedConn answers every Write with one fixed reply: the no-op target
// the generator's own cost is measured against.
type cannedConn struct {
	reply   []byte
	pending []byte
}

func (c *cannedConn) Write(p []byte) (int, error) {
	c.pending = c.reply
	return len(p), nil
}

func (c *cannedConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}
