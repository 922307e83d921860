package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

// This file holds the two Table 5 baselines.
//
// StaticHandler is the "IIS" analog: the off-the-shelf native server
// serving an in-memory document directly.
//
// JWS is the "Java Web Server" analog: the entire request path — request
// parsing, header generation, body copy — runs in VM bytecode on the
// interpreter, as JWS ran all-Java without a JIT.

// StaticHandler serves doc for every request, framed as the bridge frames
// a servlet's reply.
func StaticHandler(doc []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeReply(w, r, nil, http.StatusOK, doc)
	})
}

// httpEngineSrc is the all-bytecode HTTP engine: handle() scans the
// request line, formats the status line and Content-Length header, and
// assembles the response byte by byte.
const httpEngineSrc = `
.class jk/www/HttpEngine
.field static doc [B
.method static setDoc ([B)V
  load 0
  putstatic jk/www/HttpEngine.doc:[B
  ret
.end
.method static handle ([B)[B
  ; locals: 0=req 1=i/j 2=pathStart 3=pathLen 4=hdr 5=digits 6=ndigits 7=out 8=k 9=tmp
  iconst 0
  store 1
scan1:
  load 1
  load 0
  arraylength
  if_ge bad
  load 0
  load 1
  aload
  iconst 32
  if_eq found1
  load 1
  iconst 1
  iadd
  store 1
  jmp scan1
found1:
  load 1
  iconst 1
  iadd
  store 2
  load 2
  store 1
scan2:
  load 1
  load 0
  arraylength
  if_ge bad
  load 0
  load 1
  aload
  iconst 32
  if_eq found2
  load 1
  iconst 1
  iadd
  store 1
  jmp scan2
found2:
  load 1
  load 2
  isub
  store 3
  sconst "HTTP/1.0 200 OK\r\nServer: jk-jws/1.0\r\nContent-Length: "
  invokevirtual jk/lang/String.getBytes:()[B
  store 4
  getstatic jk/www/HttpEngine.doc:[B
  arraylength
  store 9
  iconst 20
  newarr "[B"
  store 5
  iconst 0
  store 6
digitloop:
  load 5
  load 6
  load 9
  iconst 10
  irem
  iconst 48
  iadd
  astore
  load 6
  iconst 1
  iadd
  store 6
  load 9
  iconst 10
  idiv
  store 9
  load 9
  ifnz digitloop
  load 4
  arraylength
  load 6
  iadd
  iconst 4
  iadd
  getstatic jk/www/HttpEngine.doc:[B
  arraylength
  iadd
  newarr "[B"
  store 7
  iconst 0
  store 8
cp1:
  load 8
  load 4
  arraylength
  if_ge cp1done
  load 7
  load 8
  load 4
  load 8
  aload
  astore
  load 8
  iconst 1
  iadd
  store 8
  jmp cp1
cp1done:
  load 6
  iconst 1
  isub
  store 1
cp2:
  load 1
  iconst 0
  if_lt cp2done
  load 7
  load 8
  load 5
  load 1
  aload
  astore
  load 8
  iconst 1
  iadd
  store 8
  load 1
  iconst 1
  isub
  store 1
  jmp cp2
cp2done:
  load 7
  load 8
  iconst 13
  astore
  load 8
  iconst 1
  iadd
  store 8
  load 7
  load 8
  iconst 10
  astore
  load 8
  iconst 1
  iadd
  store 8
  load 7
  load 8
  iconst 13
  astore
  load 8
  iconst 1
  iadd
  store 8
  load 7
  load 8
  iconst 10
  astore
  load 8
  iconst 1
  iadd
  store 8
  iconst 0
  store 1
cp3:
  load 1
  getstatic jk/www/HttpEngine.doc:[B
  arraylength
  if_ge done
  load 7
  load 8
  getstatic jk/www/HttpEngine.doc:[B
  load 1
  aload
  astore
  load 8
  iconst 1
  iadd
  store 8
  load 1
  iconst 1
  iadd
  store 1
  jmp cp3
done:
  load 7
  retv
bad:
  iconst 0
  newarr "[B"
  retv
.end
`

// JWS is the all-interpreted server.
type JWS struct {
	K      *core.Kernel
	Domain *core.Domain
}

// NewJWS builds the engine domain and installs doc as the served document.
func NewJWS(k *core.Kernel, doc []byte) (*JWS, error) {
	engine, err := vmkit.AssembleBytes(httpEngineSrc)
	if err != nil {
		return nil, err
	}
	d, err := k.NewDomain(core.DomainConfig{
		Name:    "jws",
		Classes: map[string][]byte{"jk/www/HttpEngine": engine},
	})
	if err != nil {
		return nil, err
	}
	j := &JWS{K: k, Domain: d}
	if err := j.SetDoc(doc); err != nil {
		return nil, err
	}
	return j, nil
}

// SetDoc replaces the served document.
func (j *JWS) SetDoc(doc []byte) error {
	task := j.K.NewTask(j.Domain, "setdoc")
	defer task.Close()
	arr, err := j.Domain.NS.NewArray("[B", len(doc))
	if err != nil {
		return err
	}
	copy(arr.Bytes, doc)
	_, err = task.CallStatic("jk/www/HttpEngine.setDoc:([B)V", vmkit.RefVal(arr))
	return err
}

// HandleWith processes one raw HTTP request through the bytecode engine
// using an existing task (task must belong to j.Domain's kernel and be on
// the calling goroutine).
func (j *JWS) HandleWith(task *core.Task, rawRequest []byte) ([]byte, error) {
	arr, err := j.Domain.NS.NewArray("[B", len(rawRequest))
	if err != nil {
		return nil, err
	}
	copy(arr.Bytes, rawRequest)
	v, err := task.CallStatic("jk/www/HttpEngine.handle:([B)[B", vmkit.RefVal(arr))
	if err != nil {
		return nil, err
	}
	if v.R == nil {
		return nil, fmt.Errorf("jws: engine returned null")
	}
	return v.R.Bytes, nil
}

// Serve accepts connections and answers HTTP/1.0-style requests (with
// keep-alive) until the listener closes.
func (j *JWS) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go j.serveConn(conn)
	}
}

func (j *JWS) serveConn(conn net.Conn) {
	defer conn.Close()
	task := j.K.NewTask(j.Domain, "jws-conn")
	defer task.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		req, err := readRequestBytes(br)
		if err != nil {
			return
		}
		resp, err := j.HandleWith(task, req)
		if err != nil {
			return
		}
		if _, err := bw.Write(resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// readRequestBytes reads one request's header block (through the blank
// line). Bodies are not supported by the toy engine.
func readRequestBytes(br *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return buf.Bytes(), nil
		}
		if buf.Len() > 1<<16 {
			return nil, fmt.Errorf("jws: request too large")
		}
	}
}
