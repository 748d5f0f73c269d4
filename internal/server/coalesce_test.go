package server_test

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/fault"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

// countingListener hands the server connections that record the size
// of every Write. When gated, each connection's first Write waits until
// release, so a test can let responses queue up behind it.
type countingListener struct {
	net.Listener
	gate chan struct{}
	once sync.Once

	mu    sync.Mutex
	conns []*countingConn
}

// release opens the gate (idempotent).
func (l *countingListener) release() {
	l.once.Do(func() {
		if l.gate != nil {
			close(l.gate)
		}
	})
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: nc, gate: l.gate}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// writes returns the byte count of every Write on the i-th accepted
// connection.
func (l *countingListener) writes(i int) []int {
	l.mu.Lock()
	c := l.conns[i]
	l.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

type countingConn struct {
	net.Conn
	gate chan struct{}

	mu    sync.Mutex
	sizes []int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := len(c.sizes) == 0
	c.sizes = append(c.sizes, len(p))
	c.mu.Unlock()
	if first && c.gate != nil {
		<-c.gate
	}
	return c.Conn.Write(p)
}

// startCountingServer serves a 2-shard store with rowSize-byte rows
// through a countingListener, gated or not. Cleanup releases the gate
// before the server drains, so a failed test cannot wedge the writer.
func startCountingServer(t *testing.T, rowSize int, gated bool, sopts server.Options) (*server.Server, *nvmstore.ShardedStore, *countingListener, string) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: raw}
	if gated {
		ln.gate = make(chan struct{})
	}
	srv, store, addr := startServerOn(t, ln, 2, rowSize, sopts)
	t.Cleanup(ln.release)
	return srv, store, ln, addr
}

// waitAnswered waits until the server has answered n requests (every
// response is queued for its connection by then).
func waitAnswered(t *testing.T, srv *server.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Ops < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests answered", srv.Stats().Ops, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendGets dials addr and pipelines n GETs (ids 1..n, keys 0..n-1, on
// an empty table) in a single write.
func sendGets(t *testing.T, addr string, n int) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	var buf []byte
	for i := 1; i <= n; i++ {
		buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpGet, ID: uint32(i), Table: testTable, Key: uint64(i - 1)})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	return nc
}

// readResponses reads response frames until want arrived or the stream
// ends, returning the ids seen and the error that ended the stream (nil
// once want frames arrived). Every id must be new.
func readResponses(t *testing.T, nc net.Conn, want int) (ids map[uint32]bool, err error) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	ids = make(map[uint32]bool)
	var payload, buf []byte
	for len(ids) < want {
		payload, buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			return ids, err
		}
		resp, derr := wire.DecodeResponse(payload)
		if derr != nil {
			t.Fatal(derr)
		}
		if resp.Code != wire.RespNotFound {
			t.Fatalf("response %d: code %s, want notfound", resp.ID, wire.OpName(resp.Code))
		}
		if ids[resp.ID] {
			t.Fatalf("id %d answered twice", resp.ID)
		}
		ids[resp.ID] = true
	}
	return ids, nil
}

// TestResponsesCoalesce pins the writer's batching: pipelined requests
// reach the socket in fewer Writes than responses, and every request id
// is answered exactly once.
func TestResponsesCoalesce(t *testing.T) {
	const n = 256
	_, _, ln, addr := startCountingServer(t, testRowSize, false, server.Options{})
	nc := sendGets(t, addr, n)
	ids, err := readResponses(t, nc, n)
	if err != nil {
		t.Fatalf("after %d responses: %v", len(ids), err)
	}
	for id := uint32(1); id <= n; id++ {
		if !ids[id] {
			t.Fatalf("id %d never answered", id)
		}
	}
	writes := ln.writes(0)
	if len(writes) >= n {
		t.Fatalf("%d responses took %d writes; the writer did not coalesce", n, len(writes))
	}
	t.Logf("%d responses in %d writes", n, len(writes))
}

// TestFaultMidBatchDeliversPrefix injects a network fault on frame k of
// a coalesced batch: frames 1..k-1 must still reach the client, then the
// connection ends — cleanly after a dropped frame, mid-frame after a
// torn one.
func TestFaultMidBatchDeliversPrefix(t *testing.T) {
	const n, k = 64, 20
	frameLen := len(wire.AppendResponse(nil, wire.Response{Code: wire.RespNotFound, ID: 1}))
	for _, tc := range []struct {
		kind    fault.Kind
		wantErr error
		torn    int // bytes of frame k sent before the cut
	}{
		{fault.NetDrop, io.EOF, 0},
		{fault.NetPartial, io.ErrUnexpectedEOF, frameLen / 2},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: tc.kind, EveryN: k, Limit: 1}}}
			srv, _, ln, addr := startCountingServer(t, testRowSize, true, server.Options{Faults: plan.Injector(0)})
			nc := sendGets(t, addr, n)
			// Hold the first write until every response is queued, so
			// frame k travels in a batch with the frames before it.
			waitAnswered(t, srv, n)
			ln.release()
			ids, err := readResponses(t, nc, n)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("stream ended with %v, want %v", err, tc.wantErr)
			}
			if len(ids) != k-1 {
				t.Fatalf("%d frames delivered before the fault on frame %d, want %d", len(ids), k, k-1)
			}
			writes := ln.writes(0)
			total := 0
			for _, w := range writes {
				total += w
			}
			if want := (k-1)*frameLen + tc.torn; total != want {
				t.Fatalf("server wrote %d bytes, want %d", total, want)
			}
			if len(writes) > 2 {
				t.Fatalf("%d frames went out in %d writes; want the gated write plus one batch", k-1, len(writes))
			}
		})
	}
}

// TestWriteBatchCap pins the writer's byte cap: with responses of 1 KiB
// rows and two scans larger than the cap queued behind a held write,
// every Write is either at most WriteBatchBytes or exactly one frame.
func TestWriteBatchCap(t *testing.T) {
	const rowSize, rows = 1024, 200
	// The write queue must hold every response while the first write
	// is held.
	srv, store, ln, addr := startCountingServer(t, rowSize, true, server.Options{WriteQueue: 256})
	tab := store.Table(testTable)
	row := make([]byte, rowSize)
	for k := uint64(0); k < rows; k++ {
		if err := tab.Insert(k, row); err != nil {
			t.Fatal(err)
		}
	}
	// Twice: 80 GETs (~83 KiB of responses, over the cap) and a SCAN of
	// every row (~200 KiB).
	var reqs []byte
	id := uint32(0)
	for round := 0; round < 2; round++ {
		for k := uint64(0); k < 80; k++ {
			id++
			reqs = wire.AppendRequest(reqs, wire.Request{Op: wire.OpGet, ID: id, Table: testTable, Key: k})
		}
		id++
		reqs = wire.AppendRequest(reqs, wire.Request{Op: wire.OpScan, ID: id, Table: testTable, Limit: rows})
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(reqs); err != nil {
		t.Fatal(err)
	}
	waitAnswered(t, srv, int64(id))
	ln.release()

	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	frames := make(map[int]bool) // on-wire lengths of the frames seen
	var payload, buf []byte
	for n := uint32(0); n < id; n++ {
		if payload, buf, err = wire.ReadFrame(br, buf); err != nil {
			t.Fatal(err)
		}
		frames[4+len(payload)] = true
	}
	writes := ln.writes(0)
	over := 0
	for _, w := range writes {
		if w <= server.WriteBatchBytes {
			continue
		}
		over++
		if !frames[w] {
			t.Fatalf("a %d-byte write exceeds the %d-byte cap and is not a single frame (writes %v)",
				w, server.WriteBatchBytes, writes)
		}
	}
	if over != 2 {
		t.Fatalf("%d writes over the cap, want the 2 scan frames alone (writes %v)", over, writes)
	}
}
