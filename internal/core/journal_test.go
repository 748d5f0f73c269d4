package core

import (
	"testing"

	"nvmstore/internal/fault"
)

// TestJournalUndoesInterruptedWriteBack pins the undo journal's crash
// contract: an in-place write-back torn mid-flush must not leave the
// NVM slot with lines from two page generations. The journal restores
// the pre-write-back image at restart, so the page reads back as the
// last completed version.
func TestJournalUndoesInterruptedWriteBack(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false),
		func(c *Config) { c.StrictPersistence = true })
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 1)
	m.ForceWrite(h) // stages version 1 on an NVM slot
	if h.f.nvmSlot < 0 {
		t.Fatal("page not staged on NVM")
	}

	// Dirty the whole page and tear the in-place write-back. The forced
	// write performs five flushes: journal index, journal data, journal
	// header (arm), the page lines, and the journal disarm — the fourth
	// is the one that must be interruptible.
	fillPattern(h, 2)
	plan := &fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Kind: fault.NVMTornFlush, EveryN: 4, Limit: 1},
	}}
	m.NVM().SetFaults(plan.Injector(0))
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("write-back completed; the fault never fired")
			}
			if _, ok := fault.AsCrash(r); !ok {
				panic(r)
			}
		}()
		m.ForceWrite(h)
	}()

	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().JournalUndos; got != 1 {
		t.Fatalf("JournalUndos = %d, want 1", got)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 1) // version 2 gone wholesale, version 1 intact
	m.Unfix(h2)
}

// TestJournalDisarmedAfterCompleteWriteBack pins that a write-back that
// runs to completion leaves nothing to undo: the next restart must not
// roll the slot back.
func TestJournalDisarmedAfterCompleteWriteBack(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false),
		func(c *Config) { c.StrictPersistence = true })
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 1)
	m.ForceWrite(h)
	fillPattern(h, 2)
	m.ForceWrite(h)
	m.Unfix(h)
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().JournalUndos; got != 0 {
		t.Fatalf("JournalUndos = %d, want 0", got)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 2)
	m.Unfix(h2)
}

// stagedPage allocates a page filled with fillPattern(1), stages it on
// an NVM slot, and returns it still fixed with no dirty state.
func stagedPage(t *testing.T, m *Manager) Handle {
	t.Helper()
	h := mustAlloc(t, m)
	fillPattern(h, 1)
	m.ForceWrite(h)
	if h.f.nvmSlot < 0 {
		t.Fatal("page not staged on NVM")
	}
	return h
}

// tornForceWrite force-writes h with a torn flush armed at the n-th NVM
// flush and requires the crash it causes.
func tornForceWrite(t *testing.T, m *Manager, h Handle, n int64) {
	t.Helper()
	plan := &fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Kind: fault.NVMTornFlush, EveryN: n, Limit: 1},
	}}
	m.NVM().SetFaults(plan.Injector(0))
	defer m.NVM().SetFaults(nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("write-back completed; the fault never fired")
		}
		if _, ok := fault.AsCrash(r); !ok {
			panic(r)
		}
	}()
	m.ForceWrite(h)
}

// TestFieldOnlyWriteBackSkipsJournal pins the exemption: a page changed
// only through WriteInPlace is written back without arming the journal,
// so a torn write-back is not undone at restart. Each flushed line holds
// one generation or the other, and every line the field did not cover
// is untouched — the state WAL redo repairs by key.
func TestFieldOnlyWriteBackSkipsJournal(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false),
		func(c *Config) { c.StrictPersistence = true })
	h := stagedPage(t, m)
	pid := h.PID()
	oldImg := append([]byte(nil), h.ReadAll()...)
	newImg := append([]byte(nil), oldImg...)

	// A field spanning lines 10..13; the write-back is one flush.
	const off, n = 10*LineSize + 8, 3 * LineSize
	dst := h.WriteInPlace(off, n)
	for i := range dst {
		dst[i] = 0xEE
		newImg[off+i] = 0xEE
	}
	tornForceWrite(t, m, h, 1)
	if got := m.Stats().JournalArms; got != 0 {
		t.Fatalf("JournalArms = %d, want 0", got)
	}

	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.JournalUndos != 0 {
		t.Fatalf("JournalUndos = %d, want 0", st.JournalUndos)
	}
	if st.UnjournaledCrashes != 1 {
		t.Fatalf("UnjournaledCrashes = %d, want 1", st.UnjournaledCrashes)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	data := h2.ReadAll()
	first, last := lineSpan(off, n)
	for ln := 0; ln < LinesPerPage; ln++ {
		got := data[ln*LineSize : (ln+1)*LineSize]
		old := oldImg[ln*LineSize : (ln+1)*LineSize]
		isOld := string(got) == string(old)
		if ln < first || ln > last {
			if !isOld {
				t.Fatalf("line %d outside the field changed", ln)
			}
			continue
		}
		if !isOld && string(got) != string(newImg[ln*LineSize:(ln+1)*LineSize]) {
			t.Fatalf("field line %d is neither generation", ln)
		}
		if ln == last && !isOld {
			t.Fatalf("last field line %d persisted; the flush was not torn", ln)
		}
	}
	m.Unfix(h2)
}

// TestStructuralWriteArmsJournal pins that one Write among in-place
// field updates still makes the write-back journaled, and a tear of it
// is rolled back wholesale.
func TestStructuralWriteArmsJournal(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false),
		func(c *Config) { c.StrictPersistence = true })
	h := stagedPage(t, m)
	pid := h.PID()
	copy(h.WriteInPlace(5*LineSize, 8), "in-place")
	copy(h.Write(20*LineSize, 8), "moved-up")
	// Journal index, data and header persist first; the fourth flush
	// writes the page's first dirty run.
	tornForceWrite(t, m, h, 4)
	if got := m.Stats().JournalArms; got != 1 {
		t.Fatalf("JournalArms = %d, want 1", got)
	}
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().JournalUndos; got != 1 {
		t.Fatalf("JournalUndos = %d, want 1", got)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 1)
	m.Unfix(h2)
}

// TestStructuralMarkSurvivesPromotion pins that promoting a mini page
// carries its structural mark to the full frame: the promoted page arms
// the journal exactly when the mini page was changed structurally.
func TestStructuralMarkSurvivesPromotion(t *testing.T) {
	for _, structural := range []bool{true, false} {
		m := newTestManager(t, DRAMNVM, 8, withFeatures(true, true, false))
		h := mustAlloc(t, m)
		pid := h.PID()
		fillPattern(h, 1)
		m.Unfix(h)
		if err := m.CleanShutdown(); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()

		h2 := mustFix(t, m, pid, ModeCacheLine)
		if structural {
			copy(h2.Write(2*LineSize, 4), "STRC")
		} else {
			copy(h2.WriteInPlace(2*LineSize, 4), "FLD!")
		}
		for line := 0; line < MiniLines+1; line++ { // overflows the mini page
			h2.Read(line*LineSize, 1)
		}
		if got := m.Stats().MiniPromotions; got != 1 {
			t.Fatalf("MiniPromotions = %d, want 1", got)
		}
		m.ForceWrite(h2)
		m.Unfix(h2)
		want := int64(0)
		if structural {
			want = 1
		}
		if got := m.Stats().JournalArms; got != want {
			t.Fatalf("structural=%v: JournalArms = %d after promotion, want %d", structural, got, want)
		}
	}
}

// TestWriteBackClearsStructuralMark pins that a completed write-back
// clears the mark: the next write-back, with only field updates since,
// needs no journal.
func TestWriteBackClearsStructuralMark(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false))
	h := stagedPage(t, m)
	copy(h.Write(3*LineSize, 8), "inserted")
	m.ForceWrite(h)
	if got := m.Stats().JournalArms; got != 1 {
		t.Fatalf("JournalArms = %d after a structural write-back, want 1", got)
	}
	copy(h.WriteInPlace(3*LineSize, 8), "updated!")
	m.ForceWrite(h)
	if got := m.Stats().JournalArms; got != 1 {
		t.Fatalf("JournalArms = %d after a field-only write-back, want still 1", got)
	}
	m.Unfix(h)
}
