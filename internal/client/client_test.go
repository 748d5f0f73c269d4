package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvmstore/internal/wire"
)

// serveFake accepts connections on a loopback listener and runs handle
// on each; cleanup closes the listener and waits for the handlers.
func serveFake(t *testing.T, handle func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				handle(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// keyValue is the row the fake server returns for key.
func keyValue(key uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, key)
}

// echoKeys answers every GET with a row holding its key, until the
// client goes away.
func echoKeys(nc net.Conn) {
	br := bufio.NewReader(nc)
	var payload, buf, out []byte
	var err error
	for {
		payload, buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		out = wire.AppendResponse(out[:0], wire.Response{Code: wire.RespValue, ID: req.ID, Value: keyValue(req.Key)})
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// TestPipelinedCallsMatchIDs issues synchronous and pipelined GETs from
// many goroutines over a small pool: every call must get the response
// to its own request.
func TestPipelinedCallsMatchIDs(t *testing.T) {
	addr := serveFake(t, echoKeys)
	cl, err := Dial(addr, Options{Conns: 2, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const goroutines, perG = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func(key uint64, val []byte, ok bool, err error) bool {
				if err != nil || !ok || string(val) != string(keyValue(key)) {
					t.Errorf("get %d: value %x, found %v, err %v", key, val, ok, err)
					return false
				}
				return true
			}
			var window []*Call
			for i := 0; i < perG; i++ {
				key := uint64(g*perG + i)
				if g%2 == 0 {
					val, ok, err := cl.Get(1, key)
					if !check(key, val, ok, err) {
						return
					}
					continue
				}
				window = append(window, cl.GetAsync(1, key))
				if len(window) == 16 || i == perG-1 {
					for j, call := range window {
						val, ok, err := getResult(call)
						if !check(key-uint64(len(window)-1-j), val, ok, err) {
							return
						}
					}
					window = window[:0]
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSeverFailsEveryPendingCall: a server that reads a full pipeline
// and then drops the connection must fail every pending call with a
// retryable error, and none may hang.
func TestSeverFailsEveryPendingCall(t *testing.T) {
	const depth = 16
	addr := serveFake(t, func(nc net.Conn) {
		br := bufio.NewReader(nc)
		var buf []byte
		var err error
		for i := 0; i < depth; i++ {
			if _, buf, err = wire.ReadFrame(br, buf); err != nil {
				return
			}
		}
	})
	cl, err := Dial(addr, Options{Depth: depth, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	calls := make([]*Call, depth)
	for i := range calls {
		calls[i] = cl.GetAsync(1, uint64(i))
	}
	timeout := time.After(10 * time.Second)
	for i, call := range calls {
		select {
		case <-call.Done():
		case <-timeout:
			t.Fatalf("call %d still pending after the server severed", i)
		}
		if _, err := call.Result(); err == nil || !IsRetryable(err) {
			t.Fatalf("call %d: err %v, want a retryable transport failure", i, err)
		}
	}
}

// TestCloseStopsFlusher: after Close every connection goroutine — read
// loop and flusher — exits, so the goroutine count returns to where it
// was before Dial.
func TestCloseStopsFlusher(t *testing.T) {
	addr := serveFake(t, echoKeys)
	base := runtime.NumGoroutine()
	cl, err := Dial(addr, Options{Conns: 4, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 64; key++ {
		if _, _, err := cl.Get(1, key); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n < base+8 {
		t.Fatalf("%d goroutines with 4 open connections, want at least %d", n, base+8)
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPendingBoundedByDepth holds the socket closed (an unread in-memory
// pipe) while a goroutine issues calls: the pending buffer never holds
// more than Depth frames, and at most Depth requests reach the wire
// before a response frees a slot.
func TestPendingBoundedByDepth(t *testing.T) {
	const depth, total = 4, 40
	opts := Options{Depth: depth}
	opts.applyDefaults()
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	cn := (&Client{opts: opts}).newConn(clientEnd)
	defer cn.close(ErrClosed)
	frameLen := len(wire.AppendRequest(nil, wire.Request{Op: wire.OpGet, Table: 1}))

	issued := make(chan *Call, total)
	go func() {
		for i := 0; i < total; i++ {
			issued <- cn.do(wire.Request{Op: wire.OpGet, Table: 1, Key: uint64(i)})
		}
	}()
	pendingBytes := func() int {
		cn.wmu.Lock()
		defer cn.wmu.Unlock()
		return len(cn.wpend)
	}

	br := bufio.NewReader(serverEnd)
	var payload, buf, out []byte
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for answered := 0; answered < total; {
		// Let the issuer run into the Depth bound while nothing is read.
		time.Sleep(5 * time.Millisecond)
		if n := pendingBytes(); n > depth*frameLen {
			t.Fatalf("%d bytes pending, more than Depth (%d) frames of %d bytes", n, depth, frameLen)
		}
		// Take every request the client sends until it pauses.
		var ids []uint32
		for {
			serverEnd.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			payload, buf, err = wire.ReadFrame(br, buf)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if len(ids) > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("client stalled after %d of %d answers", answered, total)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, req.ID)
			if len(ids) > depth {
				t.Fatalf("%d unanswered requests on the wire, Depth is %d", len(ids), depth)
			}
			if n := pendingBytes(); n > depth*frameLen {
				t.Fatalf("%d bytes pending, more than Depth (%d) frames", n, depth)
			}
		}
		out = out[:0]
		for _, id := range ids {
			out = wire.AppendResponse(out, wire.Response{Code: wire.RespNotFound, ID: id})
		}
		serverEnd.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := serverEnd.Write(out); err != nil {
			t.Fatal(err)
		}
		answered += len(ids)
	}
	for i := 0; i < total; i++ {
		if _, err := (<-issued).Result(); err != nil {
			t.Fatal(err)
		}
	}
}
