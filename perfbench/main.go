// Command perfbench is the repository benchmark. It runs one workload
// against a 2-shard ThreeTier ShardedStore, as the store is deployed,
// and prints its metrics: with -trace 0 the end-to-end metrics of an
// untraced run, with -trace 1 the per-layer metrics of a traced run
// (plus the tracing overhead against an untraced run of the same
// inputs). Every input is generated from -seed before timing starts;
// every read, scan and acknowledged write is checked, and a failed check
// ends the run with a non-zero exit and no numbers. See README.md.
//
//	go run ./perfbench -workload ycsb-b-tiered -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nvmstore/internal/ycsb"
)

// workload is one benchmark input set and the store shape it runs on.
type workload struct {
	name string
	wire bool
	// unit sizes the store: DRAM 2×unit, NVM 10×unit, SSD 50×unit.
	unit     int64
	rows     int
	walBytes int64 // 0 selects the store default
	mix      mix
	fields   int // how many leading fields writes update
	// rate sizes the measured window: a run of s seconds measures
	// rate×s operations, a fixed count rather than a duration, so
	// per-op counters compare across runs and commits.
	rate    int
	warmOps int // warm-up operations per client
	durOps  int // operations per client in the durability pass
	depth   int // wire pipeline depth per connection
}

const mib = 1 << 20

var workloads = []*workload{
	{
		// Data ≈ 2.5× DRAM+NVM: every tier serves reads, and the
		// optimistic row cache answers the hottest keys.
		name: "ycsb-b-tiered", unit: 2 * mib,
		rows: ycsb.RowsForDataSize(30 * 2 * mib),
		mix:  mix{read: 950, write: 50}, fields: ycsb.Fields,
		rate: 400000, warmOps: 20000, durOps: 2000,
	},
	{
		// Data 2× DRAM, 0.4× NVM; a 1 MiB WAL per shard makes the
		// background maintainer checkpoint and truncate many times.
		name: "ycsb-a-writeback", unit: 4 * mib,
		rows:     ycsb.RowsForDataSize(4 * 4 * mib),
		walBytes: shards * mib,
		mix:      mix{read: 500, write: 500}, fields: ycsb.Fields,
		rate: 150000, warmOps: 10000, durOps: 2000,
	},
	{
		// Data ≤ DRAM/2: device time is near zero and the client,
		// wire codec and server pipeline carry the cost.
		name: "wire-mixed", wire: true, unit: 6 * mib,
		rows: ycsb.RowsForDataSize(6 * mib),
		mix:  mix{read: 900, write: 80}, fields: 1,
		rate: 180000, warmOps: 5000, durOps: 2000, depth: 4,
	},
}

// procs pins GOMAXPROCS to one P per client goroutine plus one, whatever
// the host's CPU count, so runs compare across hosts. With only as many
// Ps as client goroutines (GOMAXPROCS=2 on a 2-vCPU host) the goroutines
// the clients wake (server connection loops and shard workers,
// maintainers) wait for a P behind the closed-loop clients: on
// wire-mixed p99 rose from about 0.6 ms to 3 ms and swung by a third
// between runs.
const procs = clients + 1

// setupRuns is how many times an untraced run sets the store up; it
// reports the median and measures on the last one.
const setupRuns = 5

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "nominal length of the measured window")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file of traced runs")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload {ycsb-b-tiered|ycsb-a-writeback|wire-mixed} -seed N -seconds S -trace {0|1}\n")
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(w *workload, seed uint64, seconds int, traced bool, out string) (*result, error) {
	per := w.rate * seconds / clients
	ks := newKeyspace(w.rows)
	sts, err := genStreams(ks, w.mix, w.fields, w.warmOps, per, seed)
	if err != nil {
		return nil, err
	}
	dur, err := genStreams(ks, w.mix, w.fields, 0, w.durOps, seed^0xd0ab1e)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s: %d rows, data %.1f MiB vs DRAM %d / NVM %d / SSD %d MiB, %d shards, %d clients, %d ops measured\n",
		w.name, w.rows, float64(ycsb.RowBytes(w.rows))/mib, 2*w.unit/mib, 10*w.unit/mib, 50*w.unit/mib, shards, clients, per*clients)
	rep := &report{}
	var win *window
	if !traced {
		var setups []float64
		var e *env
		for k := 0; k < setupRuns; k++ {
			if e != nil {
				if err := e.close(); err != nil {
					return nil, err
				}
				runtime.GC()
			}
			t0 := time.Now()
			if e, err = open(w, ks, sts.warm, envOpts{}, nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		if win, err = e.measure(sts.window, false, nil); err != nil {
			e.close()
			return nil, err
		}
		sts = nil
		if err := verifyTable(e.tab, w.rows, e.chks); err != nil {
			e.close()
			return nil, fmt.Errorf("after the window: %w", err)
		}
		rep.endToEnd(w, win)
		win.lat = [numKinds][segments][]int64{}
		rep.add("heap_mb", "MiB", heapMiB(), 0)
		rep.add("setup_s", "s", median(setups), len(setups))
		if err := e.close(); err != nil {
			return nil, err
		}
	} else {
		e, err := open(w, ks, sts.warm, envOpts{}, nil)
		if err != nil {
			return nil, err
		}
		plain, err := e.measure(sts.window, false, nil)
		if err == nil {
			err = verifyTable(e.tab, w.rows, e.chks)
		}
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		runtime.GC()
		tr := newTracer()
		if e, err = open(w, ks, sts.warm, envOpts{observe: true}, tr); err != nil {
			return nil, err
		}
		if win, err = e.measure(sts.window, true, tr); err == nil {
			err = verifyTable(e.tab, w.rows, e.chks)
		}
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		rep.perLayer(w, win, plain, sts.genNs, sts.ops)
		path, n, err := tr.write(out, "spans-"+w.name+".tsv.gz", sts.window, win.recs, w.wire, win.flight.Sample)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		win.recs = nil
		fmt.Printf("spans: %d written to %s\n", n, filepath.ToSlash(path))
	}
	if err := durability(w, ks, dur.window); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	fmt.Printf("window: %d ops in %.3f s wall + %.3f s simulated device time (slowest shard)\n",
		win.ops, win.wall.Seconds(), win.sim.Seconds())
	fmt.Printf("checks passed: %d operations completed and checked against their writers' versions, full table read back after the window, acknowledged writes survive a power failure\n", win.ops)
	rep.print()
	return &result{Correct: true, Attempted: win.ops, Failed: win.failed, Metrics: rep.json()}, nil
}

// durability runs a short pass of the workload against a store opened
// with StrictPersistence (unflushed NVM writes vanish at a crash), which
// the measured runs do not use because it slows every NVM write. It then
// power-fails every shard and reads every row back: each must hold the
// last version its writer saw acknowledged.
func durability(w *workload, ks *keyspace, sts []stream) (err error) {
	e, err := open(w, ks, sts, envOpts{strict: true}, nil)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	if err := e.stopServer(); err != nil {
		return err
	}
	if _, err := e.store.CrashRestart(); err != nil {
		return err
	}
	return verifyTable(e.tab, w.rows, e.chks)
}

func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / mib
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
