package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nvmstore/internal/obs"
)

// span is one timed call: the op it belongs to (shared by every span of
// that op), its id within the op, the span that caused it (0 for a
// root), and its interval in nanoseconds since the tracer's base.
type span struct {
	op         uint64
	id, parent uint32
	name       string
	start, end int64
}

// tracer records the spans of a traced run. Set-up calls are kept as
// span values; the measured window's spans live in its recorders (one
// start, duration and, for wire calls, issue time per op) and are
// expanded only when written. A nil tracer records nothing, so untraced
// runs call through it for free.
type tracer struct {
	base  time.Time
	spans []span
	ops   uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// span runs fn as one root span of a fresh op.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.ops++
	s := span{op: t.ops, id: 1, name: name, start: int64(time.Since(t.base))}
	err := fn()
	s.end = int64(time.Since(t.base))
	t.spans = append(t.spans, s)
	return err
}

// Span names of the measured calls, by op kind.
var (
	inprocNames = [numKinds]string{"ShardedTable.Lookup", "ShardedTable.UpdateField", "ShardedTable.Scan"}
	rootNames   = [numKinds]string{"client.get", "client.put", "client.Scan"}
	issueNames  = [numKinds]string{"client.GetAsync", "client.PutAsync", ""}
)

// write stores every span as a gzipped tab-separated line under dir and
// returns the file's path and the number of spans:
//
//   - the set-up calls;
//   - the window: client c's op i has op id (c+1)<<32 | i; a wire GET or
//     PUT is a root span from issue to completion with a child for the
//     issuing call, every other op one span around its call;
//   - the server's sampled request timelines, keyed by trace id, with a
//     child per pipeline stage.
func (t *tracer) write(dir, name string, sts []stream, recs []*recorder, wire bool, sample []obs.Timeline) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is valid
	bw := bufio.NewWriter(zw)
	n, err := t.emit(bw, sts, recs, wire, sample)
	for _, step := range []func() error{bw.Flush, zw.Close, f.Close} {
		if serr := step(); err == nil {
			err = serr
		}
	}
	return path, n, err
}

func (t *tracer) emit(w io.Writer, sts []stream, recs []*recorder, wire bool, sample []obs.Timeline) (int, error) {
	n := 0
	put := func(s span) {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, s.id, s.parent, s.name, s.start, s.end)
		n++
	}
	if _, err := fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns"); err != nil {
		return 0, err
	}
	for _, s := range t.spans {
		put(s)
	}
	for c, rec := range recs {
		off := int64(rec.base.Sub(t.base))
		for i := range sts[c].ops {
			k := sts[c].ops[i].kind
			s := span{op: uint64(c+1)<<32 | uint64(i), id: 1, start: off + rec.start[i]}
			s.end = s.start + rec.dur[i]
			if !wire {
				s.name = inprocNames[k]
				put(s)
				continue
			}
			s.name = rootNames[k]
			put(s)
			if issueNames[k] != "" {
				put(span{op: s.op, id: 2, parent: 1, name: issueNames[k], start: s.start, end: off + rec.issue[i]})
			}
		}
	}
	baseUnix := t.base.UnixNano()
	for _, tl := range sample {
		start := tl.StartUnixNs - baseUnix
		put(span{op: tl.TraceID, id: 1, name: "server." + tl.Op, start: start, end: start + tl.TotalNs})
		at := start
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			put(span{op: tl.TraceID, id: 2 + uint32(st), parent: 1, name: "server." + st.String(), start: at, end: at + tl.Stages[st]})
			at += tl.Stages[st]
		}
	}
	// Write errors are sticky in the bufio.Writer; the caller's Flush
	// reports them.
	return n, nil
}
