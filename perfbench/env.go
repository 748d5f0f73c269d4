package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/server"
	"nvmstore/internal/ycsb"
)

const (
	// clients is the number of client goroutines (in process) or
	// connections (wire), one per vCPU of the reference machine.
	clients = 2
	// shards is the store's shard count, one per vCPU.
	shards = 2
	// maxScan bounds the rows one generated SCAN asks for.
	maxScan = 50
	// loadFill is the B-tree fill factor of the bulk load, the paper's
	// YCSB setting (ycsb.RowBytes assumes it).
	loadFill = 0.66
	// traceRing is the server flight recorder's sample size in traced
	// runs, large enough for a p99 with tens of samples beyond it.
	traceRing = 8192
)

// env is one opened store with its table, its clients' checkers and,
// for wire workloads, the server hosting it and the connected clients.
type env struct {
	w      *workload
	store  *nvmstore.ShardedStore
	tab    *nvmstore.ShardedTable
	chks   []*checker
	srv    *server.Server
	served chan error
	addr   string
	cls    []*client.Client
}

type envOpts struct {
	observe bool // Options.Observe: per-tier latency histograms
	strict  bool // Options.StrictPersistence, for the durability pass
}

// open creates the store as deployed (ThreeTier, shards, capacities in
// the paper's DRAM:NVM:SSD = 2:10:50 ratio, default group commit and
// maintenance), bulk-loads every row, checkpoints, starts the server and
// dials the clients for wire workloads, and runs the warm-up stream.
func open(w *workload, ks *keyspace, warm []stream, o envOpts, tr *tracer) (*env, error) {
	e := &env{w: w}
	err := tr.span("nvmstore.OpenSharded", func() error {
		var err error
		e.store, err = nvmstore.OpenSharded(shards, nvmstore.Options{
			Architecture:      nvmstore.ThreeTier,
			DRAMBytes:         2 * w.unit,
			NVMBytes:          10 * w.unit,
			SSDBytes:          50 * w.unit,
			WALBytes:          w.walBytes,
			Observe:           o.observe,
			StrictPersistence: o.strict,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := e.load(tr); err != nil {
		e.close()
		return nil, err
	}
	e.chks = make([]*checker, clients)
	for c := range e.chks {
		e.chks[c] = newChecker(ks, c)
	}
	if w.wire {
		if err := e.startServer(tr); err != nil {
			e.close()
			return nil, err
		}
		if err := e.dial(false, tr); err != nil {
			e.close()
			return nil, err
		}
	}
	err = tr.span("warmup", func() error {
		_, err := e.run(warm, nil)
		return err
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// load creates the table and bulk-loads every row, each shard its own
// keys in ascending order, then checkpoints so the load is durable.
func (e *env) load(tr *tracer) error {
	err := tr.span("ShardedStore.CreateTable", func() error {
		var err error
		e.tab, err = e.store.CreateTable(ycsb.TableID, rowSize)
		return err
	})
	if err != nil {
		return err
	}
	keys := make([][]uint64, shards)
	for k := uint64(0); k < uint64(e.w.rows); k++ {
		sh := e.store.ShardFor(k)
		keys[sh] = append(keys[sh], k)
	}
	for sh := range keys {
		ks := keys[sh]
		err := tr.span("Table.BulkLoad", func() error {
			return e.store.WithShard(sh, func(st *nvmstore.Store) error {
				return st.Table(ycsb.TableID).BulkLoad(len(ks),
					func(i int) uint64 { return ks[i] },
					func(i int, dst []byte) { fillRow(dst, ks[i]) },
					loadFill)
			})
		})
		if err != nil {
			return fmt.Errorf("bulk load shard %d: %w", sh, err)
		}
	}
	return tr.span("ShardedStore.Checkpoint", e.store.Checkpoint)
}

func (e *env) startServer(tr *tracer) error {
	return tr.span("server.Serve", func() error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.srv = server.New(e.store, server.Options{TraceRing: traceRing})
		e.served = make(chan error, 1)
		go func() { e.served <- e.srv.Serve(ln) }()
		e.addr = ln.Addr().String()
		return nil
	})
}

// dial connects one client per stream, each with a single connection at
// the workload's pipeline depth; traced clients stamp every keyed
// request for the server's span timelines.
func (e *env) dial(traced bool, tr *tracer) error {
	e.closeClients()
	sample := 0
	if traced {
		sample = 1
	}
	return tr.span("client.Dial", func() error {
		for c := 0; c < clients; c++ {
			cl, err := client.Dial(e.addr, client.Options{Conns: 1, Depth: e.w.depth, TraceSample: sample})
			if err != nil {
				return err
			}
			e.cls = append(e.cls, cl)
		}
		return nil
	})
}

// run drives every client's stream to completion, recording per-op
// timestamps when recs is non-nil.
func (e *env) run(sts []stream, recs []*recorder) (int, error) {
	return runClients(clients, func(c int) (int, error) {
		var rec *recorder
		if recs != nil {
			rec = recs[c]
		}
		if e.w.wire {
			return runWire(e.cls[c], &sts[c], e.chks[c], e.w.rows, e.w.depth, rec)
		}
		return runInproc(e.tab, &sts[c], e.chks[c], rec)
	})
}

func (e *env) closeClients() {
	for _, cl := range e.cls {
		_ = cl.Close() // every call has completed; nothing is lost
	}
	e.cls = nil
}

// stopServer drains the server; the store stays open.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	e.closeClients()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serveErr := <-e.served; err == nil {
		err = serveErr
	}
	e.srv = nil
	return err
}

// close stops the server (if any) and closes the store.
func (e *env) close() error {
	err := e.stopServer()
	if e.store != nil {
		if cerr := e.store.Close(); err == nil {
			err = cerr
		}
		e.store = nil
	}
	return err
}
