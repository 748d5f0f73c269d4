package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/wire"
	"nvmstore/internal/ycsb"
)

// recorder keeps one client's per-op timestamps of a measured window,
// in nanoseconds since base: when the op was issued, how long until it
// completed, and (traced wire runs only) when the issuing call returned.
type recorder struct {
	base  time.Time
	start []int64
	dur   []int64
	issue []int64
}

func newRecorder(base time.Time, n int, traced bool) *recorder {
	r := &recorder{base: base, start: make([]int64, n), dur: make([]int64, n)}
	if traced {
		r.issue = make([]int64, n)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// runClients runs fn for every client on its own goroutine and waits
// for all of them, returning the summed failure count.
func runClients(n int, fn func(c int) (int, error)) (int, error) {
	var wg sync.WaitGroup
	failed := make([]int, n)
	errs := make([]error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			failed[c], errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	total := 0
	for _, f := range failed {
		total += f
	}
	return total, errors.Join(errs...)
}

// checkImage confirms a generated write image carries the version the
// checker assigned: generator and checker track versions independently.
func checkImage(o *op, img []byte, v uint32) error {
	if t := binary.LittleEndian.Uint64(img); t != tag(o.key, int(o.field), v) {
		return fmt.Errorf("key %d field %d: generated image tag %#x, checker expects version %d", o.key, o.field, t, v)
	}
	return nil
}

// runInproc is one in-process client: a closed loop of ShardedTable
// calls over its stream. A read that returns the wrong version, or a
// missing row, is an error (the run stops); an operation the store
// fails counts as failed. rec may be nil (warm-up, durability pass).
func runInproc(tab *nvmstore.ShardedTable, st *stream, chk *checker, rec *recorder) (failed int, err error) {
	buf := make([]byte, rowSize)
	for i := range st.ops {
		o := &st.ops[i]
		var found bool
		var opErr error
		var v uint32
		var t0 int64
		if o.kind == opWrite {
			v = chk.issue(o)
			if err := checkImage(o, st.val(o), v); err != nil {
				return failed, err
			}
		}
		if rec != nil {
			t0 = rec.now()
		}
		switch o.kind {
		case opRead:
			found, opErr = tab.Lookup(o.key, buf)
		case opWrite:
			found, opErr = tab.UpdateField(o.key, int(o.field)*fieldSize, st.val(o))
		default:
			return failed, fmt.Errorf("in-process stream holds a scan")
		}
		if rec != nil {
			rec.start[i], rec.dur[i] = t0, rec.now()-t0
		}
		switch {
		case opErr != nil:
			failed++
			if o.kind == opWrite {
				chk.poison(o.key)
			}
		case !found:
			return failed, fmt.Errorf("%s of key %d: row not found", kindNames[o.kind], o.key)
		case o.kind == opWrite:
			chk.ack(o, v)
		default:
			if err := chk.checkRow(o.key, buf, chk.floor0(o.key), false); err != nil {
				return failed, err
			}
		}
	}
	return failed, nil
}

// runWire is one wire client: a closed loop keeping up to depth GETs and
// PUTs in flight on its connection, reaping each as it completes. A SCAN
// first drains the pipeline and then runs alone, so the scan sees every
// write this client issued and no completion waits behind it.
func runWire(cl *client.Client, st *stream, chk *checker, rows, depth int, rec *recorder) (failed int, err error) {
	type slot struct {
		call *client.Call
		i    int
		lo0  uint32 // reads: acked version of field 0 at issue
		v    uint32 // writes: version written
	}
	slots := make([]slot, depth)
	cases := make([]reflect.SelectCase, depth)
	free := make([]int, depth)
	for j := range cases {
		cases[j].Dir = reflect.SelectRecv
		free[j] = j
	}
	inflight, next, completed := 0, 0, 0
	for next < len(st.ops) || inflight > 0 {
		for inflight < depth && next < len(st.ops) {
			o := &st.ops[next]
			if o.kind == opScan {
				if inflight > 0 {
					break
				}
				f, err := wireScan(cl, o, next, chk, rows, rec)
				if err != nil {
					return failed, err
				}
				failed += f
				next++
				completed++
				continue
			}
			j := free[len(free)-1]
			free = free[:len(free)-1]
			s := slot{i: next}
			var t0 int64
			if rec != nil {
				t0 = rec.now()
			}
			if o.kind == opWrite {
				s.v = chk.issue(o)
				if err := checkImage(o, st.val(o), s.v); err != nil {
					return failed, err
				}
				s.call = cl.PutAsync(ycsb.TableID, o.key, st.val(o))
			} else {
				s.lo0 = chk.floor0(o.key)
				s.call = cl.GetAsync(ycsb.TableID, o.key)
			}
			if rec != nil {
				rec.start[next] = t0
				if rec.issue != nil {
					rec.issue[next] = rec.now()
				}
			}
			slots[j] = s
			cases[j].Chan = reflect.ValueOf(s.call.Done())
			inflight++
			next++
		}
		if inflight == 0 {
			continue
		}
		j, _, _ := reflect.Select(cases)
		s := slots[j]
		if rec != nil {
			rec.dur[s.i] = rec.now() - rec.start[s.i]
		}
		cases[j].Chan = reflect.Value{}
		free = append(free, j)
		inflight--
		completed++
		o := &st.ops[s.i]
		resp, callErr := s.call.Result()
		switch {
		case callErr != nil:
			failed++
			if o.kind == opWrite {
				chk.poison(o.key)
			}
		case o.kind == opWrite:
			if resp.Code != wire.RespOK {
				return failed, fmt.Errorf("put of key %d: response %s", o.key, wire.OpName(resp.Code))
			}
			chk.ack(o, s.v)
		case resp.Code != wire.RespValue:
			return failed, fmt.Errorf("get of key %d: response %s", o.key, wire.OpName(resp.Code))
		default:
			if err := chk.checkRow(o.key, resp.Value, s.lo0, false); err != nil {
				return failed, err
			}
		}
	}
	if completed != len(st.ops) {
		return failed, fmt.Errorf("%d requests issued, %d completed", len(st.ops), completed)
	}
	return failed, nil
}

// wireScan runs one SCAN synchronously and checks its rows.
func wireScan(cl *client.Client, o *op, i int, chk *checker, rows int, rec *recorder) (failed int, err error) {
	var t0 int64
	if rec != nil {
		t0 = rec.now()
	}
	entries, scanErr := cl.Scan(ycsb.TableID, o.key, int(o.limit))
	if rec != nil {
		rec.start[i], rec.dur[i] = t0, rec.now()-t0
		if rec.issue != nil {
			rec.issue[i] = rec.start[i] + rec.dur[i]
		}
	}
	if scanErr != nil {
		return 1, nil
	}
	return 0, chk.checkScan(o.key, int(o.limit), rows, entries)
}
