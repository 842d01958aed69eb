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
	"slices"

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
	byOrig       map[int64]int64 // original address -> reserved slot
	byNew        map[int64]int64 // reserved slot -> original address

	// enc is the entry section of the on-disk image: every entry
	// encoded in entrySize bytes, sorted by original address. The driver
	// writes the table once per block movement (Section 4.1.3), so each
	// mutation updates the image and its checksum in place and EncodeTo
	// only copies it, instead of re-encoding and re-checksumming every
	// entry per movement.
	enc []byte
	// sums holds each encoded entry's byte sum and total their sum; the
	// checksum updates weight the bytes in front of the changed entry
	// by their sum.
	sums  []uint16
	total uint64
	// asum and wsum are the two Adler-32 running sums of enc alone,
	// mod adlerMod: asum = Σ b_i and wsum = Σ (len(enc)−i)·b_i. The
	// entries are the tail of the checksummed region, so their weights
	// do not depend on the generation bytes EncodeTo folds in.
	asum, wsum uint32

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
		byOrig:       make(map[int64]int64),
		byNew:        make(map[int64]int64),
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
	t.byOrig[orig] = new
	t.byNew[new] = orig

	p := t.index(orig)
	var x [entrySize]byte
	binary.BigEndian.PutUint64(x[0:], uint64(orig))
	binary.BigEndian.PutUint64(x[8:], uint64(new))
	sum, wsum := entrySums(x[:], len(t.sums)+1-p)
	t.wsum = addMod(t.wsum, entrySize*t.prefix(p)+wsum)
	t.asum = addMod(t.asum, sum)
	t.enc = slices.Insert(t.enc, p*entrySize, x[:]...)
	t.sums = slices.Insert(t.sums, p, uint16(sum))
	t.total += sum
	return nil
}

// Remove deletes the mapping for the block at orig. It returns the
// removed entry and whether it existed.
func (t *Table) Remove(orig int64) (Entry, bool) {
	new, ok := t.byOrig[orig]
	if !ok {
		return Entry{}, false
	}
	delete(t.byOrig, orig)
	delete(t.byNew, new)

	p := t.index(orig)
	e := t.entry(p)
	x := t.enc[p*entrySize : (p+1)*entrySize]
	sum, wsum := entrySums(x, len(t.sums)-p)
	t.wsum = subMod(t.wsum, entrySize*t.prefix(p)+wsum)
	t.asum = subMod(t.asum, sum)
	t.enc = slices.Delete(t.enc, p*entrySize, (p+1)*entrySize)
	t.sums = slices.Delete(t.sums, p, p+1)
	t.total -= sum
	return e, true
}

// Lookup returns the reserved-region address of the block at orig, if it
// has been rearranged.
func (t *Table) Lookup(orig int64) (int64, bool) {
	new, ok := t.byOrig[orig]
	return new, ok
}

// ReverseLookup returns the original address of the block occupying the
// reserved slot new, if any.
func (t *Table) ReverseLookup(new int64) (int64, bool) {
	orig, ok := t.byNew[new]
	return orig, ok
}

// MarkDirty sets the dirty bit of the block at orig. It reports whether
// the block is in the table.
func (t *Table) MarkDirty(orig int64) bool {
	if _, ok := t.byOrig[orig]; !ok {
		return false
	}
	if p := t.index(orig); !t.dirty(p) {
		t.setDirty(p)
	}
	return true
}

// IsDirty reports the dirty bit of the block at orig.
func (t *Table) IsDirty(orig int64) bool {
	_, ok := t.byOrig[orig]
	return ok && t.dirty(t.index(orig))
}

// MarkAllDirty sets every entry's dirty bit. Recovery uses this so that
// updates to repositioned blocks survive a crash even if the on-disk
// dirty bits were stale.
func (t *Table) MarkAllDirty() {
	for p := range t.sums {
		if !t.dirty(p) {
			t.setDirty(p)
		}
	}
}

// Entries returns the table contents sorted by original address.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.sums))
	for i := range out {
		out[i] = t.entry(i)
	}
	return out
}

// entry decodes the entry at position p of the entry section.
func (t *Table) entry(p int) Entry {
	x := t.enc[p*entrySize : (p+1)*entrySize]
	be := binary.BigEndian
	return Entry{
		Orig:  int64(be.Uint64(x[0:])),
		New:   int64(be.Uint64(x[8:])),
		Dirty: be.Uint16(x[16:])&flagDirty != 0,
	}
}

// dirty reports the dirty flag of the entry at position p: bit 0 of
// its last byte.
func (t *Table) dirty(p int) bool {
	return t.enc[p*entrySize+entrySize-1]&flagDirty != 0
}

// index returns the position of orig in the sorted entry section: the
// entry's index when present, its insertion point otherwise.
func (t *Table) index(orig int64) int {
	lo, hi := 0, len(t.sums)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int64(binary.BigEndian.Uint64(t.enc[mid*entrySize:])) < orig {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefix returns the byte sum of the entries before position p,
// summing whichever side of p is shorter.
func (t *Table) prefix(p int) uint64 {
	var s uint64
	if p <= len(t.sums)/2 {
		for _, v := range t.sums[:p] {
			s += uint64(v)
		}
		return s
	}
	for _, v := range t.sums[p:] {
		s += uint64(v)
	}
	return t.total - s
}

// setDirty sets the dirty flag of the clean entry at position p. The
// flag byte's checksum weight is its distance from the end of the entry
// section.
func (t *Table) setDirty(p int) {
	t.enc[p*entrySize+entrySize-1] |= flagDirty
	t.sums[p]++
	t.total++
	t.asum = addMod(t.asum, 1)
	t.wsum = addMod(t.wsum, uint64(entrySize*(len(t.sums)-p)-(entrySize-1)))
}

// adlerMod is the Adler-32 modulus.
const adlerMod = 65521

// entrySums returns the byte sum of one encoded entry and its Adler-32
// weighted sum when the entry starts k entries from the end of the
// entry section: Σ_j (entrySize·k − j)·x_j.
func entrySums(x []byte, k int) (sum, wsum uint64) {
	var jx uint64
	for j, b := range x {
		sum += uint64(b)
		jx += uint64(j) * uint64(b)
	}
	return sum, uint64(entrySize*k)*sum - jx
}

func addMod(a uint32, v uint64) uint32 {
	return uint32((uint64(a) + v%adlerMod) % adlerMod)
}

func subMod(a uint32, v uint64) uint32 {
	return uint32((uint64(a) + adlerMod - v%adlerMod) % adlerMod)
}

// checksum returns the Adler-32 of the checksummed region, the
// generation bytes gen followed by the entry section, from the entry
// section's running sums. It equals adler32.Checksum over the same
// bytes.
func (t *Table) checksum(gen []byte) uint32 {
	n := uint64(len(gen) + len(t.enc))
	a := 1 + uint64(t.asum)
	b := n%adlerMod + uint64(t.wsum)
	for i, g := range gen {
		a += uint64(g)
		b += (n - uint64(i)) % adlerMod * uint64(g)
	}
	return uint32(b%adlerMod)<<16 | uint32(a%adlerMod)
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
	used := headerSize + len(t.enc)
	n := EncodedSectors(len(t.sums)) * geom.SectorSize
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
	be.PutUint32(buf[offHdrCount:], uint32(len(t.sums)))
	be.PutUint64(buf[offHdrGen:], t.Gen)
	copy(buf[headerSize:], t.enc)
	be.PutUint32(buf[offHdrCksum:], t.checksum(buf[offHdrGen:headerSize]))
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
