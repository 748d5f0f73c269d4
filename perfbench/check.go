package main

import (
	"fmt"

	"nvmstore"
	"nvmstore/internal/wire"
	"nvmstore/internal/ycsb"
)

// checker is one client's view of the rows it owns: for each owned key
// and field, the last version it issued and the last one acknowledged.
// Only the owner writes a key, so every read of an owned key must return
// a version between the one acknowledged when the read was issued and
// the last one issued. A key whose write failed is poisoned: its state
// is unknown and it is no longer checked.
type checker struct {
	ks            *keyspace
	client        uint8
	issued, acked [][]uint32 // per owned key index; nil until written
	poisoned      []bool
}

func newChecker(ks *keyspace, client int) *checker {
	n := len(ks.owned[client])
	return &checker{
		ks:       ks,
		client:   uint8(client),
		issued:   make([][]uint32, n),
		acked:    make([][]uint32, n),
		poisoned: make([]bool, n),
	}
}

func (c *checker) owns(key uint64) bool { return c.ks.owner[key] == c.client }

// issue records a write of o's field and returns its version.
func (c *checker) issue(o *op) uint32 {
	i := c.ks.pos[o.key]
	if c.issued[i] == nil {
		c.issued[i] = make([]uint32, ycsb.Fields)
		c.acked[i] = make([]uint32, ycsb.Fields)
	}
	c.issued[i][o.field]++
	return c.issued[i][o.field]
}

// ack records that the write of version v of o's field is durable.
// Writes of one key are acknowledged in issue order.
func (c *checker) ack(o *op, v uint32) {
	c.acked[c.ks.pos[o.key]][o.field] = v
}

func (c *checker) poison(key uint64) { c.poisoned[c.ks.pos[key]] = true }

// floor0 is the acknowledged version of key's field 0, the lower bound
// for a read issued now while later writes of the field may be in flight.
func (c *checker) floor0(key uint64) uint32 {
	if a := c.acked[c.ks.pos[key]]; a != nil {
		return a[0]
	}
	return 0
}

// checkRow checks a row read of an owned key by its tag words. Field 0
// may be at any version from lo0 up to the last issued one; every other
// field must be at its acknowledged version (no client pipelines writes
// of fields other than 0). full additionally compares every byte.
func (c *checker) checkRow(key uint64, row []byte, lo0 uint32, full bool) error {
	i := c.ks.pos[key]
	if c.poisoned[i] {
		return nil
	}
	if len(row) != rowSize {
		return fmt.Errorf("key %d: read %d bytes, want %d", key, len(row), rowSize)
	}
	for f := 0; f < ycsb.Fields; f++ {
		var lo, hi uint32
		if c.issued[i] != nil {
			lo, hi = c.acked[i][f], c.issued[i][f]
			if f == 0 {
				lo = lo0
			}
		}
		t := fieldTag(row, f)
		v := uint32(t & maxVer)
		if t>>32 != key || int(t>>24&0xff) != f || v < lo || v > hi {
			return fmt.Errorf("key %d field %d: read tag %#x, want version %d..%d", key, f, t, lo, hi)
		}
		if full && !checkFieldBytes(row, f, t) {
			return fmt.Errorf("key %d field %d: bytes differ from version %d", key, f, v)
		}
	}
	return nil
}

// checkForeign checks a row of a key another client owns, whose version
// this client cannot know: every field must carry a well-formed tag.
func checkForeign(key uint64, row []byte) error {
	if len(row) != rowSize {
		return fmt.Errorf("key %d: read %d bytes, want %d", key, len(row), rowSize)
	}
	for f := 0; f < ycsb.Fields; f++ {
		t := fieldTag(row, f)
		if t>>32 != key || int(t>>24&0xff) != f || !checkFieldBytes(row, f, t) {
			return fmt.Errorf("key %d field %d: malformed tag %#x", key, f, t)
		}
	}
	return nil
}

// checkScan checks one scan result: at most limit rows, strictly
// ascending keys starting at from, and — since every key below rows
// exists and none is ever deleted — exactly the keys from, from+1, ...
// Owned rows are checked byte for byte against this client's versions
// (no write of this client is in flight during a scan), foreign rows
// for well-formed content.
func (c *checker) checkScan(from uint64, limit, rows int, entries []wire.Entry) error {
	want := rows - int(from)
	if want > limit {
		want = limit
	}
	if len(entries) != want {
		return fmt.Errorf("scan from %d limit %d: %d rows, want %d", from, limit, len(entries), want)
	}
	for j, e := range entries {
		k := e.Key
		if k != from+uint64(j) {
			return fmt.Errorf("scan from %d: row %d has key %d, want %d (ascending from the start key)", from, j, k, from+uint64(j))
		}
		var err error
		if c.owns(k) {
			err = c.checkRow(k, e.Value, c.floor0(k), true)
		} else {
			err = checkForeign(k, e.Value)
		}
		if err != nil {
			return fmt.Errorf("scan from %d: %w", from, err)
		}
	}
	return nil
}

// verifyTable reads every row back through a full scan and checks each
// byte against the version its owner last acknowledged. It runs with no
// client active, so acknowledged and issued versions agree.
func verifyTable(tab *nvmstore.ShardedTable, rows int, chks []*checker) error {
	next := uint64(0)
	var err error
	scanErr := tab.Scan(0, rows+1, 0, rowSize, func(key uint64, row []byte) bool {
		if key != next {
			err = fmt.Errorf("full scan: key %d, want %d", key, next)
			return false
		}
		next++
		c := chks[chks[0].ks.owner[key]]
		err = c.checkRow(key, row, c.floor0(key), true)
		return err == nil
	})
	if scanErr != nil {
		return fmt.Errorf("full scan: %w", scanErr)
	}
	if err != nil {
		return err
	}
	if next != uint64(rows) {
		return fmt.Errorf("full scan: %d rows, want %d", next, rows)
	}
	return nil
}
