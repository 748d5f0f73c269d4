package core

import (
	"encoding/binary"
	"fmt"

	"nvmstore/internal/obs"
)

// frameKind distinguishes the three in-memory representations of a page.
type frameKind uint8

const (
	// kindFull is a full 16 kB page (§3.1). When NVM-backed and accessed
	// in cache-line-grained mode, its resident bitmask tracks which lines
	// have been loaded.
	kindFull frameKind = iota
	// kindMini is a mini page (§3.2): up to 16 cache lines behind a slot
	// indirection, promoted to a full page on overflow.
	kindMini
	// kindDirect is not a DRAM copy at all but a window onto the NVM
	// device, used by the NVM Direct architecture: reads charge NVM
	// latency, writes are flushed in place on unfix.
	kindDirect
)

// Frame is the in-DRAM state of a fixed page: the page data (or a view of
// it) plus the header fields the paper keeps in the first one or two cache
// lines of the page (residency and dirty masks, the NVM backing pointer,
// the swizzling back-pointer) and the buffer-management bookkeeping.
type Frame struct {
	kind frameKind
	pid  PageID
	idx  int32 // frame-table index; -1 for direct frames

	// data holds PageSize bytes for full frames, MiniDataSize bytes for
	// mini frames, and an NVM device view for direct frames.
	data []byte

	// Cache-line residency and dirtiness (full frames). fullyResident
	// and anyDirty are the paper's r and d header bits.
	resident      bitmask
	dirty         bitmask
	fullyResident bool
	anyDirty      bool
	// structural records a change since the last write-back that WAL
	// redo cannot repair in place (anything but a WriteInPlace), so the
	// next in-place write-back must arm the undo journal.
	structural bool

	// Mini-page state: slots[i] is the physical cache-line id stored in
	// the i-th data slot; the slots are kept sorted by physical id so
	// that physically consecutive lines are contiguous in data.
	slots     [MiniLines]uint8
	count     uint8
	miniDirty uint16
	// promoted forwards all access to the full page this mini page was
	// promoted into ("partially promoted", §3.2).
	promoted *Frame

	// nvmSlot is the NVM page slot backing this frame, or -1.
	nvmSlot int64

	// Swizzling back-pointers (§3.3): at most one of parent/rootHolder
	// is set while this page is swizzled. parentOff is the byte offset
	// of the reference word inside the parent page.
	parent           *Frame
	parentOff        int32
	rootHolder       *Ref
	swizzledChildren int32

	pins       int32
	referenced bool
}

// PID returns the identifier of the page held by the frame.
func (f *Frame) PID() PageID { return f.pid }

func (f *Frame) swizzled() bool { return f.parent != nil || f.rootHolder != nil }

// getRef reads the page reference word at byte offset off of data.
func getRef(data []byte, off int) Ref {
	return Ref(binary.LittleEndian.Uint64(data[off:]))
}

// putRef writes a page reference word at byte offset off of data. Swizzle
// and unswizzle use it directly, bypassing dirty tracking: a swizzled word
// is a transient in-memory representation, never persisted, and restoring
// the page id on unswizzle returns the bytes to their persistent value.
func putRef(data []byte, off int, r Ref) {
	binary.LittleEndian.PutUint64(data[off:], uint64(r))
}

// lineSpan returns the first and last cache line covered by [off, off+n).
func lineSpan(off, n int) (first, last int) {
	return off / LineSize, (off + n - 1) / LineSize
}

func (f *Frame) checkSpan(off, n int) {
	if off < 0 || n <= 0 || off+n > PageSize {
		panic(fmt.Sprintf("core: page access [%d, %d) outside page of %d bytes", off, off+n, PageSize))
	}
}

// read returns a slice covering [off, off+n) of the page, loading missing
// cache lines from NVM first (MakeResident, §3.2). The returned slice is
// valid until the next access to the same page: a later load into a mini
// page may shift its data array.
func (f *Frame) read(m *Manager, off, n int) []byte {
	f.checkSpan(off, n)
	switch f.kind {
	case kindDirect:
		base := m.slotDataOff(f.nvmSlot)
		m.nvm.Touch(base+int64(off), n)
		return f.data[off : off+n]
	case kindMini:
		return f.miniAccess(m, off, n, false, false)
	default:
		if !f.fullyResident {
			a, b := lineSpan(off, n)
			f.ensureLines(m, a, b)
		}
		return f.data[off : off+n]
	}
}

// write returns a writable slice covering [off, off+n), loading missing
// cache lines first (a partially overwritten line needs its old content)
// and marking the covered lines dirty, and the frame structurally
// changed unless the caller writes in place (see Handle.WriteInPlace).
// The same validity rule as read applies.
func (f *Frame) write(m *Manager, off, n int, structural bool) []byte {
	f.checkSpan(off, n)
	switch f.kind {
	case kindDirect:
		a, b := lineSpan(off, n)
		f.dirty.setRange(a, b)
		f.markDirty(structural)
		return f.data[off : off+n]
	case kindMini:
		return f.miniAccess(m, off, n, true, structural)
	default:
		a, b := lineSpan(off, n)
		if !f.fullyResident {
			f.ensureLines(m, a, b)
		}
		f.dirty.setRange(a, b)
		f.markDirty(structural)
		return f.data[off : off+n]
	}
}

// markDirty sets the frame's d bit and, for a structural change, the
// mark that makes its next write-back journaled.
func (f *Frame) markDirty(structural bool) {
	f.anyDirty = true
	f.structural = f.structural || structural
}

// clearDirty resets all dirty state once the frame's content is durable.
func (f *Frame) clearDirty() {
	f.dirty.reset()
	f.miniDirty = 0
	f.anyDirty = false
	f.structural = false
}

// readAll returns the entire page, loading whatever is missing. This is
// the full-page path the paper uses for restructuring operations, which
// avoids per-access residency checks.
func (f *Frame) readAll(m *Manager) []byte {
	switch f.kind {
	case kindDirect:
		base := m.slotDataOff(f.nvmSlot)
		m.nvm.Touch(base, PageSize)
		return f.data
	case kindMini:
		full := f.forward(m)
		return full.readAll(m)
	default:
		if !f.fullyResident {
			f.ensureLines(m, 0, LinesPerPage-1)
		}
		return f.data
	}
}

// writeAll returns the entire page for writing, marking every line dirty.
func (f *Frame) writeAll(m *Manager) []byte {
	switch f.kind {
	case kindDirect:
		f.dirty.setRange(0, LinesPerPage-1)
		f.markDirty(true)
		return f.data
	case kindMini:
		full := f.forward(m)
		return full.writeAll(m)
	default:
		if !f.fullyResident {
			f.ensureLines(m, 0, LinesPerPage-1)
		}
		f.dirty.setRange(0, LinesPerPage-1)
		f.markDirty(true)
		return f.data
	}
}

// ensureLines loads the missing cache lines in [a, b] from the frame's NVM
// backing, coalescing contiguous runs into single device reads.
func (f *Frame) ensureLines(m *Manager, a, b int) {
	if f.nvmSlot < 0 {
		// Pages without NVM backing are created fully resident; reaching
		// this point means frame state is corrupt.
		panic("core: partial page without NVM backing")
	}
	base := m.slotDataOff(f.nvmSlot)
	var t0 int64
	if m.rec != nil {
		t0 = m.clk.Ns()
	}
	loaded := 0
	f.resident.clearRuns(a, b, func(from, to int) {
		off := from * LineSize
		end := (to + 1) * LineSize
		m.nvm.ReadAt(f.data[off:end], base+int64(off))
		f.resident.setRange(from, to)
		m.stats.LinesLoaded += int64(to - from + 1)
		loaded += to - from + 1
	})
	if m.rec != nil && loaded > 0 {
		m.rec.Latency(obs.OpNVMLineLoad, m.clk.Ns()-t0)
		m.trace(f.pid, f.idx, obs.EvLineLoad, obs.TierNVM, uint32(loaded))
	}
	if f.resident.full() {
		f.fullyResident = true
	}
}

// forward promotes a mini page if necessary and returns the full page all
// further access goes to.
func (f *Frame) forward(m *Manager) *Frame {
	if f.promoted == nil {
		m.promoteMini(f)
	}
	return f.promoted
}

// miniHas returns the slot index holding physical line id, or -1.
func (f *Frame) miniHas(line uint8) int {
	for i := 0; i < int(f.count); i++ {
		if f.slots[i] == line {
			return i
		}
		if f.slots[i] > line {
			return -1
		}
	}
	return -1
}

// miniAccess is MakeResident for mini pages: it resolves the slot
// indirection, loading and inserting missing lines in sorted order, and
// promotes to a full page when the request does not fit. structural is
// write's flag and only matters for writes.
func (f *Frame) miniAccess(m *Manager, off, n int, forWrite, structural bool) []byte {
	if f.promoted != nil {
		if forWrite {
			return f.promoted.write(m, off, n, structural)
		}
		return f.promoted.read(m, off, n)
	}
	a, b := lineSpan(off, n)
	missing := 0
	for l := a; l <= b; l++ {
		if f.miniHas(uint8(l)) < 0 {
			missing++
		}
	}
	if int(f.count)+missing > MiniLines {
		full := f.forward(m)
		if forWrite {
			return full.write(m, off, n, structural)
		}
		return full.read(m, off, n)
	}
	for l := a; l <= b; l++ {
		f.miniEnsure(m, uint8(l))
	}
	pos := f.miniHas(uint8(a))
	if forWrite {
		for l := a; l <= b; l++ {
			f.miniDirty |= 1 << uint(f.miniHas(uint8(l)))
		}
		f.markDirty(structural)
	}
	start := pos*LineSize + off%LineSize
	return f.data[start : start+n]
}

// miniEnsure loads physical line into the mini page if absent, keeping
// slots sorted by physical id. Sorted order guarantees that physically
// consecutive lines are consecutive in the data array, which is what makes
// multi-line requests return contiguous memory (§3.2).
func (f *Frame) miniEnsure(m *Manager, line uint8) {
	if f.miniHas(line) >= 0 {
		return
	}
	if int(f.count) >= MiniLines {
		panic("core: mini page overflow not promoted")
	}
	// Find the insertion position.
	pos := int(f.count)
	for i := 0; i < int(f.count); i++ {
		if f.slots[i] > line {
			pos = i
			break
		}
	}
	// Shift slots, data, and the dirty mask up by one.
	copy(f.slots[pos+1:f.count+1], f.slots[pos:f.count])
	copy(f.data[(pos+1)*LineSize:(int(f.count)+1)*LineSize], f.data[pos*LineSize:int(f.count)*LineSize])
	low := uint16(1)<<uint(pos) - 1
	f.miniDirty = (f.miniDirty & low) | (f.miniDirty&^low)<<1
	f.slots[pos] = line
	f.count++
	// Load the line from the NVM backing.
	base := m.slotDataOff(f.nvmSlot)
	dst := f.data[pos*LineSize : (pos+1)*LineSize]
	var t0 int64
	if m.rec != nil {
		t0 = m.clk.Ns()
	}
	m.nvm.ReadAt(dst, base+int64(line)*LineSize)
	m.stats.LinesLoaded++
	if m.rec != nil {
		m.rec.Latency(obs.OpNVMLineLoad, m.clk.Ns()-t0)
		m.trace(f.pid, f.idx, obs.EvLineLoad, obs.TierNVM, 1)
	}
}
