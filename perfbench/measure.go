package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"nvmstore"
	"nvmstore/internal/core"
	"nvmstore/internal/obs"
)

// segments is how many consecutive slices of each client's stream the
// window's latency quantiles are taken over; a run reports the median of
// the per-slice quantiles, so one burst of interference (a GC cycle, a
// noisy neighbour) moves one slice, not the result.
const segments = 10

// window is what one measured window observed: op counts, wall time,
// the simulated-time and Metrics() deltas around it, and per-kind call
// latencies (ns) per segment, each sorted.
type window struct {
	ops, failed  int
	kinds        [numKinds]int
	lat          [numKinds][segments][]int64
	wall         time.Duration
	wallRate     float64       // median completions per wall second over time slices
	sim, devWork time.Duration // MaxSimulatedTime and TotalSimulatedTime advance
	m0, m1       nvmstore.Metrics
	wearMax      uint32
	retries      int64
	flight       obs.FlightSnapshot
	recs         []*recorder
}

// measure runs the window streams on e. Wear counters and latency
// histograms are reset first so both cover the window alone; a traced
// wire run reconnects with span-stamping clients.
func (e *env) measure(sts []stream, traced bool, tr *tracer) (*window, error) {
	if traced && e.w.wire {
		if err := e.dial(true, tr); err != nil {
			return nil, err
		}
	}
	for i := 0; i < shards; i++ {
		_ = e.store.WithShard(i, func(st *nvmstore.Store) error { st.ResetWear(); return nil })
	}
	e.store.ResetLatency()
	recs := make([]*recorder, clients)
	for c := range recs {
		recs[c] = newRecorder(time.Time{}, len(sts[c].ops), traced)
	}
	runtime.GC()
	w := &window{m0: e.store.Metrics()}
	for _, cl := range e.cls {
		w.retries -= cl.Retries()
	}
	sim0, dev0 := e.store.MaxSimulatedTime(), e.store.TotalSimulatedTime()
	base := time.Now()
	for _, r := range recs {
		r.base = base
	}
	failed, err := e.run(sts, recs)
	w.wall = time.Since(base)
	if err != nil {
		return nil, err
	}
	w.m1 = e.store.Metrics()
	w.sim = e.store.MaxSimulatedTime() - sim0
	w.devWork = e.store.TotalSimulatedTime() - dev0
	w.wearMax = e.store.WearProfile().MaxPerLine
	for _, cl := range e.cls {
		w.retries += cl.Retries()
	}
	if traced && e.srv != nil {
		w.flight = e.srv.TraceSnapshot()
	}
	w.failed = failed
	var done [segments]float64 // completions per slice of the wall time
	for c, st := range sts {
		rec := recs[c]
		for i := range st.ops {
			k := st.ops[i].kind
			seg := i * segments / len(st.ops)
			w.kinds[k]++
			w.lat[k][seg] = append(w.lat[k][seg], rec.dur[i])
			j := int((rec.start[i] + rec.dur[i]) * segments / int64(w.wall))
			done[min(j, segments-1)]++
		}
		w.ops += len(st.ops)
	}
	w.wallRate = median(done[:]) / (w.wall.Seconds() / segments)
	for k := range w.lat {
		for _, l := range w.lat[k] {
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		}
	}
	if traced {
		w.recs = recs
	}
	return w, nil
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// latency is the median over segments of the q-quantile of kind k's
// latencies, in microseconds.
func (w *window) latency(k uint8, q float64) float64 {
	var qs []float64
	for _, l := range w.lat[k] {
		if len(l) > 0 {
			qs = append(qs, quantile(l, q)/1e3)
		}
	}
	if len(qs) == 0 {
		return 0
	}
	return median(qs)
}

// all returns kind k's latencies over the whole window, sorted.
func (w *window) all(kinds ...uint8) []int64 {
	var l []int64
	for _, k := range kinds {
		for _, seg := range w.lat[k] {
			l = append(l, seg...)
		}
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report collects metrics in print order.
type report struct {
	rows []reportRow
}

type reportRow struct {
	name, unit string
	value      float64
	n          int  // samples behind a latency, 0 otherwise
	hidden     bool // printed but not part of the JSON result
}

func (r *report) add(name, unit string, v float64, n int) {
	r.rows = append(r.rows, reportRow{name: name, unit: unit, value: v, n: n})
}

// note adds a metric that is printed for the reader but left out of the
// JSON result, because on some workload it does not exist or is zero.
func (r *report) note(name, unit string, v float64, n int) {
	r.rows = append(r.rows, reportRow{name: name, unit: unit, value: v, n: n, hidden: true})
}

func (r *report) print() {
	for _, row := range r.rows {
		s := fmt.Sprintf("  %-40s %14.4f %s", row.name, row.value, row.unit)
		if row.n > 0 {
			s += fmt.Sprintf("  (n=%d)", row.n)
		}
		if row.hidden {
			s += "  [report only]"
		}
		fmt.Println(s)
	}
}

func (r *report) json() map[string]metric {
	m := make(map[string]metric)
	for _, row := range r.rows {
		if !row.hidden {
			m[row.name] = metric{Value: row.value, Unit: row.unit}
		}
	}
	return m
}

// hybridSeconds is the window's hybrid time: wall time plus the advance
// of the slowest shard's simulated device clock.
func (w *window) hybridSeconds() float64 { return (w.wall + w.sim).Seconds() }

// throughput is operations per hybrid second. Its wall part is the
// median completion rate over ten equal slices of the window's wall
// time, so a stall or a neighbour's burst in one slice does not move it;
// its simulated part is the whole window's device time per operation.
func (w *window) throughput() float64 {
	return 1 / (1/w.wallRate + w.sim.Seconds()/float64(w.ops))
}

func (w *window) userBytes() int64 { return int64(w.kinds[opWrite]) * fieldSize }

// endToEnd adds the metrics a user of the store sees, except heap_mb
// and setup_s, which the caller adds.
func (r *report) endToEnd(wl *workload, w *window) {
	r.add("throughput_ops_s", "ops/s", w.throughput(), w.ops)
	for _, k := range []uint8{opRead, opWrite} {
		r.add(kindNames[k]+"_p50_us", "us", w.latency(k, 0.50), w.kinds[k])
		r.add(kindNames[k]+"_p99_us", "us", w.latency(k, 0.99), w.kinds[k])
	}
	if n := w.kinds[opScan]; n > 0 {
		scans := w.all(opScan)
		r.note("scan_p50_us", "us", quantile(scans, 0.50)/1e3, n)
		r.note("scan_p99_us", "us", quantile(scans, 0.99)/1e3, n)
	}
	r.note("error_rate", "ratio", ratio(int64(w.failed)+w.retries, int64(w.ops)), w.ops)
	r.add("nvm_write_amp", "B/B", ratio((w.m1.NVMTotalWrites-w.m0.NVMTotalWrites)*core.LineSize, w.userBytes()), 0)
	r.note("ssd_write_amp", "B/B", ratio((w.m1.SSDPagesWritten-w.m0.SSDPagesWritten)*core.PageSize, w.userBytes()), 0)
	r.note("space_amp", "B/B", ratio(w.m1.Residency.SSDPages*core.PageSize, int64(wl.rows)*rowSize), 0)
}

// perLayer adds the per-layer metrics of a traced window; plain is the
// untraced window over the same inputs, for the tracing overhead.
func (r *report) perLayer(wl *workload, w, plain *window, genNs int64, genOps int) {
	m0, m1 := &w.m0, &w.m1
	ops := int64(w.ops)
	writes := int64(w.kinds[opWrite])
	k := func(n int64, per int64) float64 { return 1000 * ratio(n, per) }

	hits := m1.Read.OptimisticHits - m0.Read.OptimisticHits
	retries := m1.Read.OptimisticRetries - m0.Read.OptimisticRetries
	r.add("nvmstore.lookup_optimistic_hit_ratio", "ratio", ratio(hits, int64(w.kinds[opRead])), 0)
	r.add("nvmstore.lookup_optimistic_retry_ratio", "ratio", ratio(retries, hits+retries), 0)
	r.add("nvmstore.commits_per_flush", "ratio", ratio(m1.Log.Commits-m0.Log.Commits, m1.Log.Flushes-m0.Log.Flushes), 0)
	r.add("nvmstore.writer_throttles_per_kwrite", "1/kwrite", k(m1.WriterThrottles-m0.WriterThrottles, writes), 0)
	r.add("nvmstore.snapshot_images_per_scan", "1/scan", ratio(m1.Read.SnapshotReads-m0.Read.SnapshotReads, int64(w.kinds[opScan])), 0)
	r.add("nvmstore.versions_saved_per_kwrite", "1/kwrite", k(m1.Read.VersionsSaved-m0.Read.VersionsSaved, writes), 0)
	r.add("nvmstore.version_chain_max", "count", float64(m1.Read.VersionChainMax), 0)

	rounds := m1.Ckpt.Rounds - m0.Ckpt.Rounds
	r.add("engine.ckpt_rounds_per_kwrite", "1/kwrite", k(rounds, writes), 0)
	r.add("engine.ckpt_pages_per_round", "pages", ratio(m1.Ckpt.Pages-m0.Ckpt.Pages, rounds), 0)
	r.add("engine.log_truncations", "count", float64(m1.Ckpt.Truncations-m0.Ckpt.Truncations), 0)

	b0, b1 := &m0.Buffer, &m1.Buffer
	fixes := b1.Fixes - b0.Fixes
	swz := b1.SwizzleHits - b0.SwizzleHits
	r.add("core.fixes_per_op", "1/op", ratio(fixes, ops), 0)
	r.add("core.dram_hit_ratio", "ratio", ratio(swz+b1.TableHits-b0.TableHits, fixes), 0)
	r.add("core.swizzle_hit_ratio", "ratio", ratio(swz, fixes), 0)
	r.add("core.nvm_lines_loaded_per_op", "1/op", ratio(b1.LinesLoaded-b0.LinesLoaded, ops), 0)
	r.add("core.ssd_loads_per_op", "1/op", ratio(b1.SSDLoads-b0.SSDLoads, ops), 0)
	r.add("core.dram_evictions_per_kop", "1/kop", k(b1.DRAMEvictions-b0.DRAMEvictions, ops), 0)
	adm := b1.NVMAdmissions - b0.NVMAdmissions
	r.add("core.nvm_admit_ratio", "ratio", ratio(adm, adm+b1.NVMDenials-b0.NVMDenials), 0)
	r.add("core.nvm_evictions_per_kop", "1/kop", k(b1.NVMEvictions-b0.NVMEvictions, ops), 0)
	r.add("core.mini_promotions_per_kop", "1/kop", k(b1.MiniPromotions-b0.MiniPromotions, ops), 0)

	r.add("nvm.lines_read_per_op", "1/op", ratio(m1.NVMLinesRead-m0.NVMLinesRead, ops), 0)
	r.add("nvm.lines_flushed_per_op", "1/op", ratio(m1.NVMLinesFlushed-m0.NVMLinesFlushed, ops), 0)
	r.add("nvm.line_writes_per_kwrite", "1/kwrite", k(m1.NVMTotalWrites-m0.NVMTotalWrites, writes), 0)
	r.add("nvm.wear_max_line_writes", "count", float64(w.wearMax), 0)

	ssdW := m1.SSDPagesWritten - m0.SSDPagesWritten
	r.add("ssd.pages_read_per_op", "1/op", ratio(m1.SSDPagesRead-m0.SSDPagesRead, ops), 0)
	r.add("ssd.pages_written_per_kop", "1/kop", k(ssdW, ops), 0)
	r.add("ssd.write_amp", "B/B", ratio(ssdW*core.PageSize, w.userBytes()), 0)
	r.add("ssd.space_amp", "B/B", ratio(m1.Residency.SSDPages*core.PageSize, int64(wl.rows)*rowSize), 0)

	r.add("wal.records_per_write", "1/write", ratio(m1.Log.Records-m0.Log.Records, writes), 0)
	r.add("wal.flushes_per_kop", "1/kop", k(m1.Log.Flushes-m0.Log.Flushes, ops), 0)

	r.add("device.sim_ns_per_op", "ns/op", ratio(int64(w.devWork), ops), 0)
	r.add("device.sim_share", "ratio", w.sim.Seconds()/w.hybridSeconds(), 0)
	var rows []obs.Row
	if m1.Latency != nil {
		rows = m1.Latency.Rows()
	}
	for _, name := range []string{"nvm.lineload", "ssd.read", "wal.flush"} {
		v, n := 0.0, 0
		for _, row := range rows {
			if row.Op == name {
				v, n = float64(row.P99), int(row.Count)
			}
		}
		r.add("device."+strings.ReplaceAll(name, ".", "_")+"_sim_ns_p99", "ns", v, n)
	}

	// Server spans: the sampled request timelines' totals and the p99
	// decomposition across pipeline stages, whose parts sum to the span
	// p99 (zero in process).
	var totals []int64
	for _, tl := range w.flight.Sample {
		totals = append(totals, tl.TotalNs)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	spanP99 := float64(w.flight.P99.TotalNs) / 1e3
	r.add("server.span_p50_us", "us", quantile(totals, 0.50)/1e3, len(totals))
	r.add("server.span_p99_us", "us", spanP99, len(totals))
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		r.add("server.p99_"+st.String()+"_us", "us", float64(w.flight.P99.Stages[st])/1e3, w.flight.P99.TailCount)
	}
	var keyed []int64
	if wl.wire {
		keyed = w.all(opRead, opWrite)
	}
	outside := 0.0
	if len(totals) > 0 {
		outside = quantile(keyed, 0.99)/1e3 - spanP99
	}
	r.add("client.outside_server_p99_us", "us", outside, len(keyed))
	r.add("client.retries", "count", float64(w.retries), 0)
	scans := w.all(opScan)
	r.add("client.scan_p50_us", "us", quantile(scans, 0.50)/1e3, len(scans))
	r.add("client.scan_p99_us", "us", quantile(scans, 0.99)/1e3, len(scans))

	r.add("driver.gen_ns_per_op", "ns/op", ratio(genNs, int64(genOps)), genOps)
	r.add("trace.overhead_frac", "ratio", 1-w.throughput()/plain.throughput(), 0)
	r.note("throughput_ops_s.traced", "ops/s", w.throughput(), w.ops)
	r.note("throughput_ops_s.untraced", "ops/s", plain.throughput(), plain.ops)
}
