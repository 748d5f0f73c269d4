package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"nvmstore/internal/shard"
	"nvmstore/internal/ycsb"
	"nvmstore/internal/zipfian"
)

// Operation kinds of a generated stream.
const (
	opRead uint8 = iota
	opWrite
	opScan
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "scan"}

// op is one pre-generated operation. A write names its 100-byte field
// image in the stream's value arena; a scan carries its row limit. An op
// holds no pointers, so the garbage collector never scans the streams.
type op struct {
	kind  uint8
	field uint8
	limit uint8
	val   uint32
	key   uint64
}

// stream is one client's operations for one phase.
type stream struct {
	ops  []op
	vals []byte // write images, fieldSize bytes each
}

func (s *stream) val(o *op) []byte {
	off := int(o.val) * fieldSize
	return s.vals[off : off+fieldSize : off+fieldSize]
}

// Row content. Each row has ycsb.Fields fields of ycsb.FieldSize bytes.
// Field f of key k at version v (0 = as loaded) starts with the tag
// k<<32 | f<<24 | v and continues with words derived from it, so a
// read can be checked against the version its owner last wrote by
// comparing one word per field, and fully by comparing every byte.
const (
	fieldSize = ycsb.FieldSize
	rowSize   = ycsb.RowSize
	maxVer    = 1<<24 - 1
)

func tag(key uint64, field int, ver uint32) uint64 {
	return key<<32 | uint64(field)<<24 | uint64(ver)
}

func fillField(dst []byte, t uint64) {
	var w [8]byte
	for i := 0; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(w[:], t^(uint64(i)*0x9e3779b97f4a7c15))
		copy(dst[i:], w[:])
	}
}

func fillRow(dst []byte, key uint64) {
	for f := 0; f < ycsb.Fields; f++ {
		fillField(dst[f*fieldSize:(f+1)*fieldSize], tag(key, f, 0))
	}
}

// fieldTag returns the tag word at the start of field f of row.
func fieldTag(row []byte, f int) uint64 {
	return binary.LittleEndian.Uint64(row[f*fieldSize:])
}

// checkFieldBytes verifies every byte of field f of row against tag t.
func checkFieldBytes(row []byte, f int, t uint64) bool {
	var want [fieldSize]byte
	fillField(want[:], t)
	got := row[f*fieldSize : (f+1)*fieldSize]
	return string(got) == string(want[:])
}

// mix is the share of reads and writes, in per mille of operations;
// the rest are scans.
type mix struct{ read, write int }

// keyspace splits the keys 0..rows-1 among the clients: client c owns
// the keys of shard c, so it can check every read of its own keys
// against the last version it wrote, and the clients' operations never
// wait on each other for a shard lock or a group-commit flush.
type keyspace struct {
	owned [][]uint64 // per client, ascending
	owner []uint8    // per key
	pos   []uint32   // per key: its index in owned[owner[key]]
}

func newKeyspace(rows int) *keyspace {
	ks := &keyspace{owned: make([][]uint64, clients), owner: make([]uint8, rows), pos: make([]uint32, rows)}
	for k := 0; k < rows; k++ {
		c := shard.Of(uint64(k), shards) % clients
		ks.owner[k] = uint8(c)
		ks.pos[k] = uint32(len(ks.owned[c]))
		ks.owned[c] = append(ks.owned[c], uint64(k))
	}
	return ks
}

// streams holds every client's pre-generated operations for one store:
// warm-up first, then the measured window.
type streams struct {
	warm, window []stream
	genNs        int64 // wall time spent generating
	ops          int   // total operations generated
}

// genStreams builds warm and window op streams of the given lengths
// per client from seed. Versions are tracked per (key, field) while
// generating so each write carries the exact image it must leave.
func genStreams(ks *keyspace, m mix, fields int, warmOps, windowOps int, seed uint64) (*streams, error) {
	t0 := time.Now()
	s := &streams{warm: make([]stream, clients), window: make([]stream, clients)}
	for c := 0; c < clients; c++ {
		// Zipf z≈1 over the client's own keys, popular keys scattered.
		keys := ks.owned[c]
		z := zipfian.New(uint64(len(keys)), zipfian.Theta1, shard.SeedFor(seed, c))
		vers := make([][]uint32, len(keys))
		// An independent stream for op kinds, fields and scan lengths.
		r := rng(shard.SeedFor(seed^0x6f70, c))
		gen := func(n int) (stream, error) {
			st := stream{ops: make([]op, n)}
			for i := range st.ops {
				o := op{key: keys[z.NextScrambled()]}
				x := int(r.next(1000))
				switch {
				case x < m.read:
					o.kind = opRead
				case x < m.read+m.write:
					o.kind = opWrite
					o.field = uint8(r.next(uint64(fields)))
					idx := ks.pos[o.key]
					if vers[idx] == nil {
						vers[idx] = make([]uint32, ycsb.Fields)
					}
					vers[idx][o.field]++
					if vers[idx][o.field] > maxVer {
						return st, fmt.Errorf("key %d field %d written more than %d times", o.key, o.field, maxVer)
					}
					o.val = uint32(len(st.vals) / fieldSize)
					st.vals = append(st.vals, make([]byte, fieldSize)...)
					fillField(st.val(&o), tag(o.key, int(o.field), vers[idx][o.field]))
				default:
					o.kind = opScan
					o.limit = uint8(1 + r.next(maxScan))
				}
				st.ops[i] = o
			}
			return st, nil
		}
		var err error
		if s.warm[c], err = gen(warmOps); err != nil {
			return nil, err
		}
		if s.window[c], err = gen(windowOps); err != nil {
			return nil, err
		}
		s.ops += warmOps + windowOps
	}
	s.genNs = time.Since(t0).Nanoseconds()
	return s, nil
}

// rng is a SplitMix64 stream for uniform choices.
type rng uint64

func (r *rng) next(n uint64) uint64 {
	*r += 0x9e3779b97f4a7c15
	return shard.Mix(uint64(*r)) % n
}
