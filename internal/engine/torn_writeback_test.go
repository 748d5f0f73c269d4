package engine

import (
	"bytes"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// tornLeafKeys are the rows a torn-write-back test loads: 600 even keys
// spread over several leaves. The test keys below all sit in the first
// leaf.
const tornLeafKeys = 600

var tornLayouts = []struct {
	name   string
	layout btree.LeafLayout
}{{"sorted", btree.LayoutSorted}, {"hash", btree.LayoutHash}}

// tornFixture is an engine whose tree is loaded, checkpointed, and then
// given committed changes on one leaf, with model holding every row's
// committed payload.
type tornFixture struct {
	e     *Engine
	tr    *btree.Tree
	model map[uint64][]byte
}

func newTornFixture(t *testing.T, topo core.Topology, layout btree.LeafLayout) *tornFixture {
	t.Helper()
	e := openEngine(t, topo)
	tr, err := e.CreateTree(1, testPayload, layout)
	if err != nil {
		t.Fatal(err)
	}
	f := &tornFixture{e: e, tr: tr, model: make(map[uint64][]byte)}
	keys := make([]uint64, 0, tornLeafKeys)
	for i := uint64(0); i < tornLeafKeys; i++ {
		keys = append(keys, 2*i)
		f.model[2*i] = pay(2 * i)
	}
	mustInsert(t, e, tr, keys...)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return f
}

// update commits a field update of key, spanning two cache lines of the
// payload, tagged with tag.
func (f *tornFixture) update(t *testing.T, key uint64, tag byte) {
	t.Helper()
	f.e.Begin()
	val := bytes.Repeat([]byte{tag}, 40)
	if _, err := f.tr.UpdateField(key, 20, val); err != nil {
		t.Fatal(err)
	}
	if err := f.e.Commit(); err != nil {
		t.Fatal(err)
	}
	row := append([]byte(nil), f.model[key]...)
	copy(row[20:], val)
	f.model[key] = row
}

// tearCheckpointWriteBack runs the write-back step of a checkpoint round
// (Manager.FlushSome, what CheckpointRound runs) with a torn flush armed
// at the n-th NVM flush, requires the crash, and recovers.
func (f *tornFixture) tearCheckpointWriteBack(t *testing.T, n int64) {
	t.Helper()
	// Flush the log first so the write barrier issues no NVM flush of
	// its own and n counts write-back flushes only.
	f.e.Log().Flush()
	f.e.ArmFaults(&fault.Plan{Seed: 9, Rules: []fault.Rule{
		{Kind: fault.NVMTornFlush, EveryN: n, Limit: 1},
	}}, 0)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("write-back completed; the torn flush never fired")
			}
			if _, ok := fault.AsCrash(r); !ok {
				panic(r)
			}
		}()
		f.e.Manager().FlushSome(0, 1<<20)
	}()
	f.e.ArmFaults(&fault.Plan{}, 0)
	if _, err := f.e.CrashRestart(); err != nil {
		t.Fatalf("CrashRestart: %v", err)
	}
	f.tr = f.e.Tree(1)
}

// check requires every row to read back exactly as the model records.
func (f *tornFixture) check(t *testing.T) {
	t.Helper()
	buf := make([]byte, testPayload)
	for i := uint64(0); i < tornLeafKeys*2; i++ {
		found, err := f.tr.Lookup(i, buf)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", i, err)
		}
		want, exists := f.model[i]
		switch {
		case found != exists:
			t.Fatalf("Lookup(%d) found=%v, want %v", i, found, exists)
		case exists && !bytes.Equal(buf, want):
			t.Fatalf("Lookup(%d) = tag %d, want tag %d", i, buf[20], want[20])
		}
	}
}

// TestTornFieldOnlyWriteBackRepairedByRedo tears the journal-free
// write-back of a leaf that has only field updates since its last
// write-back, with a loser transaction open on the same leaf. WAL redo
// alone must repair the page: committed rows read back at their
// committed versions, the loser is rolled back, and no journal undo
// happens because none was armed.
func TestTornFieldOnlyWriteBackRepairedByRedo(t *testing.T) {
	for _, topo := range []core.Topology{core.DRAMNVM, core.ThreeTier} {
		for _, l := range tornLayouts {
			t.Run(topo.String()+"/"+l.name, func(t *testing.T) {
				f := newTornFixture(t, topo, l.layout)
				for i, key := range []uint64{10, 60, 120, 180} {
					f.update(t, key, byte(0xA0+i))
				}
				f.update(t, 60, 0xB0) // a second version of one row

				// The loser updates a committed row and a fresh one, and
				// is still open when the write-back tears.
				f.e.Begin()
				for _, key := range []uint64{60, 90} {
					if _, err := f.tr.UpdateField(key, 0, bytes.Repeat([]byte{0xEE}, testPayload)); err != nil {
						t.Fatal(err)
					}
				}
				arms := f.e.Manager().Stats().JournalArms
				f.tearCheckpointWriteBack(t, 1)

				st := f.e.Manager().Stats()
				if st.JournalArms != arms {
					t.Fatalf("JournalArms %d -> %d: a field-only write-back armed the journal", arms, st.JournalArms)
				}
				if st.JournalUndos != 0 {
					t.Fatalf("JournalUndos = %d, want 0", st.JournalUndos)
				}
				if st.UnjournaledCrashes != 1 {
					t.Fatalf("UnjournaledCrashes = %d, want 1: the tear missed the journal-free write-back", st.UnjournaledCrashes)
				}
				f.check(t)
			})
		}
	}
}

// TestTornStructuralWriteBackUndoneByJournal is the converse: a leaf
// with an insert or delete since its last write-back (row shifts and
// slot changes that no log record re-applies in place) must arm the
// journal, and a torn write-back of it is rolled back at restart before
// redo rebuilds it.
func TestTornStructuralWriteBackUndoneByJournal(t *testing.T) {
	ops := []struct {
		name  string
		apply func(t *testing.T, f *tornFixture)
	}{
		{"insert", func(t *testing.T, f *tornFixture) {
			mustInsert(t, f.e, f.tr, 31)
			f.model[31] = pay(31)
		}},
		{"delete", func(t *testing.T, f *tornFixture) {
			f.e.Begin()
			if found, err := f.tr.Delete(30); !found || err != nil {
				t.Fatalf("Delete(30) = %v, %v", found, err)
			}
			if err := f.e.Commit(); err != nil {
				t.Fatal(err)
			}
			delete(f.model, 30)
		}},
	}
	for _, l := range tornLayouts {
		for _, op := range ops {
			t.Run(l.name+"/"+op.name, func(t *testing.T) {
				f := newTornFixture(t, core.ThreeTier, l.layout)
				f.update(t, 10, 0xA1)
				op.apply(t, f)
				f.update(t, 120, 0xA2)
				// Journal index, journal data and the arming header are
				// the first three flushes; the fourth writes the page.
				f.tearCheckpointWriteBack(t, 4)

				st := f.e.Manager().Stats()
				if st.JournalArms == 0 {
					t.Fatal("JournalArms = 0: a structural write-back skipped the journal")
				}
				if st.JournalUndos != 1 {
					t.Fatalf("JournalUndos = %d, want 1", st.JournalUndos)
				}
				f.check(t)
			})
		}
	}
}
