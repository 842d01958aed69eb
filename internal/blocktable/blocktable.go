// Package blocktable implements the driver's block table (Section 4.1.2
// of "Adaptive Block Rearrangement Under UNIX").
//
// When a block is copied into the reserved region, its old and new
// physical addresses are entered into the block table. The strategy
// routine consults the table on every request to decide whether to
// redirect the request to the reserved region. Each entry carries a
// dirty bit recording whether the reserved copy has been written since
// it was installed; a dirty block must be copied back to its original
// location when it is cleaned out.
//
// A copy of the table is stored at the beginning of the reserved region
// for use at start-up and for recovery. The on-disk copy always
// correctly lists the rearranged blocks and their positions, but the
// dirty bits may be stale; after a crash, recovery conservatively marks
// every entry dirty so that no update to a repositioned block can be
// lost (RecoverDecode).
package blocktable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"

	"repro/internal/geom"
)

// Magic identifies an encoded block table ("BTBL").
const Magic uint32 = 0x4254424C

// Version is the current encoding version. Version 2 added the
// generation stamp that crash-safe dual-slot table writes order
// themselves by.
const Version uint16 = 2

// Errors returned by Decode.
var (
	ErrBadMagic    = errors.New("blocktable: bad magic")
	ErrBadChecksum = errors.New("blocktable: bad checksum")
)

// Entry maps one rearranged block. Addresses are the first physical
// sector of the block at its original location and in the reserved
// region.
type Entry struct {
	Orig  int64
	New   int64
	Dirty bool
}

// Table is the in-memory block table. It is not safe for concurrent use;
// the driver serializes access as the kernel would.
type Table struct {
	blockSectors int
	byOrig       map[int64]*Entry
	byNew        map[int64]*Entry

	// order holds the entries sorted by original address, maintained
	// incrementally by Add/Remove. The driver serializes (and the
	// arranger diffs) the table once per block movement, so keeping the
	// order sorted at mutation time turns every Entries/Encode call from
	// an O(n log n) reflection sort into a straight copy.
	order []*Entry

	// Gen is the table's generation stamp. The driver increments it on
	// every committed table write; recovery picks the on-disk slot with
	// the highest generation among those that decode. It rides through
	// Encode/Decode and has no meaning to the table itself.
	Gen uint64
}

// New returns an empty table for blocks of the given size.
func New(bs geom.BlockSize) *Table {
	return &Table{
		blockSectors: bs.Sectors(),
		byOrig:       make(map[int64]*Entry),
		byNew:        make(map[int64]*Entry),
	}
}

// BlockSectors returns the number of sectors per block.
func (t *Table) BlockSectors() int { return t.blockSectors }

// Len returns the number of rearranged blocks.
func (t *Table) Len() int { return len(t.byOrig) }

// Add installs a mapping from the block at orig to the reserved-region
// position new. Both addresses must be block-aligned and not already in
// use.
func (t *Table) Add(orig, new int64) error {
	if orig%int64(t.blockSectors) != 0 || new%int64(t.blockSectors) != 0 {
		return fmt.Errorf("blocktable: addresses %d -> %d not aligned to %d-sector blocks",
			orig, new, t.blockSectors)
	}
	if _, ok := t.byOrig[orig]; ok {
		return fmt.Errorf("blocktable: block at %d is already rearranged", orig)
	}
	if _, ok := t.byNew[new]; ok {
		return fmt.Errorf("blocktable: reserved slot %d is already occupied", new)
	}
	e := &Entry{Orig: orig, New: new}
	t.byOrig[orig] = e
	t.byNew[new] = e
	// Insert into the sorted order: binary search for the position.
	lo, hi := 0, len(t.order)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.order[mid].Orig < orig {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.order = append(t.order, nil)
	copy(t.order[lo+1:], t.order[lo:])
	t.order[lo] = e
	return nil
}

// Remove deletes the mapping for the block at orig. It returns the
// removed entry and whether it existed.
func (t *Table) Remove(orig int64) (Entry, bool) {
	e, ok := t.byOrig[orig]
	if !ok {
		return Entry{}, false
	}
	delete(t.byOrig, orig)
	delete(t.byNew, e.New)
	lo, hi := 0, len(t.order)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.order[mid].Orig < orig {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(t.order[lo:], t.order[lo+1:])
	t.order[len(t.order)-1] = nil
	t.order = t.order[:len(t.order)-1]
	return *e, true
}

// Lookup returns the reserved-region address of the block at orig, if it
// has been rearranged.
func (t *Table) Lookup(orig int64) (int64, bool) {
	e, ok := t.byOrig[orig]
	if !ok {
		return 0, false
	}
	return e.New, true
}

// ReverseLookup returns the original address of the block occupying the
// reserved slot new, if any.
func (t *Table) ReverseLookup(new int64) (int64, bool) {
	e, ok := t.byNew[new]
	if !ok {
		return 0, false
	}
	return e.Orig, true
}

// MarkDirty sets the dirty bit of the block at orig. It reports whether
// the block is in the table.
func (t *Table) MarkDirty(orig int64) bool {
	e, ok := t.byOrig[orig]
	if ok {
		e.Dirty = true
	}
	return ok
}

// IsDirty reports the dirty bit of the block at orig.
func (t *Table) IsDirty(orig int64) bool {
	e, ok := t.byOrig[orig]
	return ok && e.Dirty
}

// MarkAllDirty sets every entry's dirty bit. Recovery uses this so that
// updates to repositioned blocks survive a crash even if the on-disk
// dirty bits were stale.
func (t *Table) MarkAllDirty() {
	for _, e := range t.byOrig {
		e.Dirty = true
	}
}

// Entries returns the table contents sorted by original address.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.order))
	for i, e := range t.order {
		out[i] = *e
	}
	return out
}

// Encoding layout: a header followed by fixed-size entries, padded to a
// whole number of sectors.
//
//	header:  magic u32 | version u16 | blockSectors u16 | count u32 |
//	         checksum u32 (Adler-32 over generation + entries) | generation u64
//	entry:   orig u64 | new u64 | flags u16
//
// The checksum covers the generation stamp and the entry bytes, so a
// torn write that mixes a fresh header with stale entries (or tears
// the generation field itself) cannot decode as valid.
const (
	headerSize    = 24
	entrySize     = 18
	flagDirty     = 1 << 0
	offHdrMagic   = 0
	offHdrVersion = 4
	offHdrBlkSec  = 6
	offHdrCount   = 8
	offHdrCksum   = 12
	offHdrGen     = 16
)

// EncodedSectors returns the number of sectors needed to store a table
// of n entries.
func EncodedSectors(n int) int {
	bytes := headerSize + n*entrySize
	return (bytes + geom.SectorSize - 1) / geom.SectorSize
}

// MaxEntriesIn returns the largest entry count that fits in the given
// number of sectors.
func MaxEntriesIn(sectors int) int {
	bytes := sectors*geom.SectorSize - headerSize
	if bytes < 0 {
		return 0
	}
	return bytes / entrySize
}

// Encode serializes the table into a sector-aligned image.
func (t *Table) Encode() []byte { return t.EncodeTo(nil) }

// EncodeTo serializes the table into dst's storage when it is large
// enough (allocating otherwise) and returns the sector-aligned image.
// dst may hold bytes from a previous encoding; every byte of the
// returned image is written, including the sector padding. The driver
// reuses one scratch buffer across its block-table writes, which would
// otherwise allocate and zero tens of KB per block movement.
func (t *Table) EncodeTo(dst []byte) []byte {
	entries := t.order
	used := headerSize + len(entries)*entrySize
	n := EncodedSectors(len(entries)) * geom.SectorSize
	var buf []byte
	if cap(dst) >= n {
		buf = dst[:n]
		// Zero the padding tail; the header and entries overwrite the
		// rest below.
		clear(buf[used:])
	} else {
		buf = make([]byte, n)
	}
	be := binary.BigEndian
	be.PutUint32(buf[offHdrMagic:], Magic)
	be.PutUint16(buf[offHdrVersion:], Version)
	be.PutUint16(buf[offHdrBlkSec:], uint16(t.blockSectors))
	be.PutUint32(buf[offHdrCount:], uint32(len(entries)))
	be.PutUint64(buf[offHdrGen:], t.Gen)
	for i, e := range entries {
		o := headerSize + i*entrySize
		be.PutUint64(buf[o:], uint64(e.Orig))
		be.PutUint64(buf[o+8:], uint64(e.New))
		var flags uint16
		if e.Dirty {
			flags |= flagDirty
		}
		be.PutUint16(buf[o+16:], flags)
	}
	be.PutUint32(buf[offHdrCksum:], adler32.Checksum(buf[offHdrGen:used]))
	return buf
}

// Decode parses an encoded table image. The image may be longer than the
// encoded table (e.g. a whole reserved-area prefix read off disk).
func Decode(buf []byte) (*Table, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("blocktable: image of %d bytes is too small", len(buf))
	}
	be := binary.BigEndian
	if be.Uint32(buf[offHdrMagic:]) != Magic {
		return nil, ErrBadMagic
	}
	if v := be.Uint16(buf[offHdrVersion:]); v != Version {
		return nil, fmt.Errorf("blocktable: unsupported version %d", v)
	}
	blkSec := int(be.Uint16(buf[offHdrBlkSec:]))
	if blkSec <= 0 {
		return nil, fmt.Errorf("blocktable: invalid block size %d sectors", blkSec)
	}
	count := int(be.Uint32(buf[offHdrCount:]))
	// Validate the count against the image length in 64-bit arithmetic
	// so a hostile count cannot overflow the size computation.
	if int64(count)*entrySize > int64(len(buf))-headerSize {
		return nil, fmt.Errorf("blocktable: image of %d bytes holds fewer than %d entries", len(buf), count)
	}
	need := headerSize + count*entrySize
	if adler32.Checksum(buf[offHdrGen:need]) != be.Uint32(buf[offHdrCksum:]) {
		return nil, ErrBadChecksum
	}
	t := New(geom.BlockSize(blkSec * geom.SectorSize))
	t.Gen = be.Uint64(buf[offHdrGen:])
	for i := 0; i < count; i++ {
		o := headerSize + i*entrySize
		orig := int64(be.Uint64(buf[o:]))
		new := int64(be.Uint64(buf[o+8:]))
		if err := t.Add(orig, new); err != nil {
			return nil, err
		}
		if be.Uint16(buf[o+16:])&flagDirty != 0 {
			t.MarkDirty(orig)
		}
	}
	return t, nil
}

// RecoverDecode decodes a table image as Decode does, then marks every
// entry dirty. This is the conservative start-up path used after an
// unclean shutdown (Section 4.1.2).
func RecoverDecode(buf []byte) (*Table, error) {
	t, err := Decode(buf)
	if err != nil {
		return nil, err
	}
	t.MarkAllDirty()
	return t, nil
}
