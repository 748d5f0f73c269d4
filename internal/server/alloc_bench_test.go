package server_test

import (
	"context"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/server"
)

// startBenchServer is the benchmark twin of startServer: same loopback
// setup, but against testing.B so the allocation benchmarks below can
// use it.
func startBenchServer(b *testing.B, shards int) string {
	b.Helper()
	store, err := nvmstore.OpenSharded(shards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.CreateTable(testTable, testRowSize); err != nil {
		b.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; ; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		if i > 500 {
			b.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			b.Errorf("serve: %v", err)
		}
	})
	return addr
}

// BenchmarkServeGet measures allocations per pipelined GET round trip —
// client framing, server read/execute/reply, client decode included.
// The serving path draws its frame and row buffers from wire's pool, so
// the steady state should allocate only what must outlive a frame (the
// decoded response's value copy and call bookkeeping).
func BenchmarkServeGet(b *testing.B) {
	cl := dialLoaded(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var inflight []*client.Call
	for i := 0; i < b.N; i++ {
		inflight = append(inflight, cl.GetAsync(testTable, uint64(i)%benchKeys))
		if len(inflight) >= 64 {
			if _, err := inflight[0].Result(); err != nil {
				b.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, call := range inflight {
		if _, err := call.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeGetSync is BenchmarkServeGet at depth 1: one synchronous
// GET at a time, so nothing coalesces and each op is a bare round trip
// — the latency that handing frames to the client's flusher goroutine
// must not slow down.
func BenchmarkServeGetSync(b *testing.B) {
	cl := dialLoaded(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(testTable, uint64(i)%benchKeys); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKeys is how many rows dialLoaded preloads.
const benchKeys = 512

// dialLoaded starts a 2-shard bench server, preloads benchKeys rows, and
// returns a one-connection client with the given pipeline depth.
func dialLoaded(b *testing.B, depth int) *client.Client {
	addr := startBenchServer(b, 2)
	cl, err := client.Dial(addr, client.Options{Conns: 1, Depth: depth})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	for k := uint64(0); k < benchKeys; k++ {
		if err := cl.Put(testTable, k, rowFor(k)); err != nil {
			b.Fatal(err)
		}
	}
	return cl
}

// BenchmarkServePut is BenchmarkServeGet for the write path: routed
// value copy, group-committed execute, and the OK response.
func BenchmarkServePut(b *testing.B) {
	addr := startBenchServer(b, 2)
	cl, err := client.Dial(addr, client.Options{Conns: 1, Depth: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	row := rowFor(7)
	b.ReportAllocs()
	b.ResetTimer()
	var inflight []*client.Call
	for i := 0; i < b.N; i++ {
		inflight = append(inflight, cl.PutAsync(testTable, uint64(i)%512, row))
		if len(inflight) >= 64 {
			if _, err := inflight[0].Result(); err != nil {
				b.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, call := range inflight {
		if _, err := call.Result(); err != nil {
			b.Fatal(err)
		}
	}
}
