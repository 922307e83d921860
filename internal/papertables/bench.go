package papertables

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/oskit"
	"jkernel/internal/ukern"
	"jkernel/internal/vmkit"
)

// One measured body per table cell. Each builds its fixture, resets the
// timer, and performs b.N operations.

// vmLoop runs one of the client's bytecode loops for b.N iterations
// (Tables 1 and 6).
func vmLoop(profile vmkit.Profile, method string) func(*testing.B) {
	return func(b *testing.B) {
		f := newVMFixture(b, profile)
		defer f.close()
		b.ReportAllocs()
		b.ResetTimer()
		f.run(b, method, b.N)
	}
}

// threadLookup is measured outside bytecode, where the generated stubs
// perform it.
func threadLookup(profile vmkit.Profile) func(*testing.B) {
	return func(b *testing.B) {
		f := newVMFixture(b, profile)
		defer f.close()
		id := f.task.Thread.ID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f.k.VM.LookupThread(id) == nil {
				b.Fatal("lookup failed")
			}
		}
	}
}

// vmCopy is one LRMI whose argument is count objects of size bytes,
// copied by the mechanism class selects (Table 4).
func vmCopy(profile vmkit.Profile, class, method string, count, size int) func(*testing.B) {
	return func(b *testing.B) {
		f := newVMFixture(b, profile)
		defer f.close()
		msg := f.chain(b, class, count, size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.cap.InvokeVM(f.task, method, msg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// osRPC is a one-byte round trip to a server in a child process (Table 2).
func osRPC(start func() (*oskit.Transport, error)) func(*testing.B) {
	return func(b *testing.B) {
		tr, err := start()
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		payload := []byte{1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.RoundTrip(payload); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var inprocSink byte

func comInProc(b *testing.B) {
	s := oskit.InProc()
	for i := 0; i < b.N; i++ {
		inprocSink = s.Null(byte(i))
	}
}

// pingPong is a double thread switch (Table 3). JVMs of the paper's day
// mapped Java threads onto kernel threads, so the faithful row pins both
// goroutines to OS threads; unpinned is the Go-native ablation.
func pingPong(pin bool) func(*testing.B) {
	return func(b *testing.B) {
		ping := make(chan struct{})
		pong := make(chan struct{})
		done := make(chan struct{})
		go func() {
			if pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			for {
				select {
				case <-ping:
					pong <- struct{}{}
				case <-done:
					return
				}
			}
		}()
		if pin {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping <- struct{}{}
			<-pong
		}
		b.StopTimer()
		close(done)
	}
}

// pageClients is the paper's load for Table 5.
const pageClients = 8

// pages fetches b.N pages with pageClients concurrent keep-alive clients
// over loopback TCP from a server of size-byte in-memory documents. The
// socket is in the loop on purpose: "the bridge within tens of percent of
// the native server" is a statement about servers, not handlers. serve
// runs the server on the listener until the listener closes.
func pages(size int, serve func(doc []byte) (func(net.Listener) error, error)) func(*testing.B) {
	return func(b *testing.B) {
		doc := make([]byte, size)
		for i := range doc {
			doc[i] = byte('a' + i%26)
		}
		run, err := serve(doc)
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = run(ln) // the listener's close, below, is what ends it
		}()
		defer func() {
			ln.Close()
			<-served
		}()
		url := "http://" + ln.Addr().String() + "/index.html"

		var claimed atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, pageClients)
		b.ReportAllocs()
		b.ResetTimer()
		for c := 0; c < pageClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr := &http.Transport{}
				defer tr.CloseIdleConnections()
				client := &http.Client{Transport: tr}
				for claimed.Add(1) <= int64(b.N) {
					if err := fetch(client, url, size); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	}
}

func fetch(client *http.Client, url string, size int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n != int64(size) {
		return fmt.Errorf("GET %s: status %d, %d body bytes, want 200 and %d", url, resp.StatusCode, n, size)
	}
	return nil
}

func httpServe(h http.Handler) func(net.Listener) error {
	return (&http.Server{Handler: h}).Serve
}

// staticServer is the native server alone (the paper's IIS column).
func staticServer(doc []byte) (func(net.Listener) error, error) {
	return httpServe(httpd.StaticHandler(doc)), nil
}

// bridgeServer is the native server with the J-Kernel bridge routing to a
// VM document servlet (IIS + J-Kernel).
func bridgeServer(doc []byte) (func(net.Listener) error, error) {
	bridge, err := httpd.NewBridge(core.MustNew(core.Options{}))
	if err != nil {
		return nil, err
	}
	if _, err := bridge.MountDocServlet("doc", "/", doc); err != nil {
		return nil, err
	}
	return httpServe(bridge), nil
}

// jwsServer is the all-interpreted server (JWS).
func jwsServer(doc []byte) (func(net.Listener) error, error) {
	jws, err := httpd.NewJWS(core.MustNew(core.Options{}), doc)
	if err != nil {
		return nil, err
	}
	return jws.Serve, nil
}

// ipc is one round trip between two tasks of a modelled microkernel
// (Table 6).
func ipc[P interface {
	Call(uint64) (uint64, error)
}](pair func(*ukern.Kernel) P) func(*testing.B) {
	return func(b *testing.B) {
		p := pair(ukern.NewKernel())
		if c, ok := any(p).(interface{ Close() }); ok {
			defer c.Close()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Call(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
