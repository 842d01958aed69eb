package blocktable

import (
	"bytes"
	"encoding/binary"
	"hash/adler32"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/geom"
)

// refEncode is the straightforward encoder the maintained image must
// match byte for byte: header, entries sorted by original address, and
// a stdlib Adler-32 over the generation and the entries, padded to
// whole sectors.
func refEncode(blockSectors int, gen uint64, entries []Entry) []byte {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Orig < sorted[j].Orig })
	used := headerSize + len(sorted)*entrySize
	buf := make([]byte, EncodedSectors(len(sorted))*geom.SectorSize)
	be := binary.BigEndian
	be.PutUint32(buf[offHdrMagic:], Magic)
	be.PutUint16(buf[offHdrVersion:], Version)
	be.PutUint16(buf[offHdrBlkSec:], uint16(blockSectors))
	be.PutUint32(buf[offHdrCount:], uint32(len(sorted)))
	be.PutUint64(buf[offHdrGen:], gen)
	for i, e := range sorted {
		o := headerSize + i*entrySize
		be.PutUint64(buf[o:], uint64(e.Orig))
		be.PutUint64(buf[o+8:], uint64(e.New))
		if e.Dirty {
			be.PutUint16(buf[o+16:], flagDirty)
		}
	}
	be.PutUint32(buf[offHdrCksum:], adler32.Checksum(buf[offHdrGen:used]))
	return buf
}

// TestImageMatchesReferenceUnderChurn runs a seeded random program of
// Add, Remove, MarkDirty, MarkAllDirty and generation changes against a
// plain map model. After every operation the maintained image must equal
// the reference encoding of the model, EncodeTo into a poisoned scratch
// buffer must equal it too, and the image must decode back to the model.
// The table grows past 600 entries, so the checksummed region straddles
// Adler-32's 5552-byte deferred-modulo window, and addresses span the
// whole int64 range so every entry byte takes varied values.
func TestImageMatchesReferenceUnderChurn(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	bsec := int64(geom.Block4K.Sectors())
	tab := New(geom.Block4K)
	model := map[int64]Entry{}
	var origs []int64 // live keys, for uniform picks
	slots := map[int64]bool{}
	var gen uint64
	scratch := bytes.Repeat([]byte{0xAA}, 64*1024)
	addr := func() int64 {
		if rnd.Intn(4) == 0 {
			return rnd.Int63n(1<<62) / bsec * bsec * int64(1-2*rnd.Intn(2))
		}
		return rnd.Int63n(4000) * bsec
	}
	removeAt := func(i int) {
		orig := origs[i]
		e, ok := tab.Remove(orig)
		if !ok || e != model[orig] {
			t.Fatalf("Remove(%d) = %+v, %v; want %+v", orig, e, ok, model[orig])
		}
		delete(model, orig)
		delete(slots, e.New)
		origs[i] = origs[len(origs)-1]
		origs = origs[:len(origs)-1]
	}
	for op := 0; op < 6000; op++ {
		// Grow towards ~700 entries, then churn around that size.
		grow := len(origs) < 700 && rnd.Intn(3) != 0
		switch r := rnd.Intn(100); {
		case grow || r < 40:
			orig, new := addr(), addr()
			if _, ok := model[orig]; ok || slots[new] {
				if tab.Add(orig, new) == nil {
					t.Fatalf("op %d: Add(%d, %d) accepted a duplicate", op, orig, new)
				}
				continue
			}
			if err := tab.Add(orig, new); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			model[orig] = Entry{Orig: orig, New: new}
			slots[new] = true
			origs = append(origs, orig)
		case r < 70 && len(origs) > 0:
			removeAt(rnd.Intn(len(origs)))
		case r < 90 && len(origs) > 0:
			orig := origs[rnd.Intn(len(origs))]
			tab.MarkDirty(orig)
			e := model[orig]
			e.Dirty = true
			model[orig] = e
		case r < 91:
			tab.MarkAllDirty()
			for o, e := range model {
				e.Dirty = true
				model[o] = e
			}
		default:
			gen = rnd.Uint64()
			tab.Gen = gen
		}

		entries := make([]Entry, 0, len(model))
		for _, e := range model {
			entries = append(entries, e)
		}
		want := refEncode(int(bsec), gen, entries)
		got := tab.Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d (%d entries): image differs from the reference encoding", op, len(model))
		}
		if !bytes.Equal(tab.EncodeTo(scratch[:0]), want) {
			t.Fatalf("op %d: EncodeTo into a reused buffer differs from the reference", op)
		}
		dec, err := Decode(got)
		if err != nil {
			t.Fatalf("op %d: decoding the image: %v", op, err)
		}
		if dec.Gen != gen || dec.Len() != len(model) {
			t.Fatalf("op %d: decoded gen %d, %d entries; want %d, %d", op, dec.Gen, dec.Len(), gen, len(model))
		}
		for _, e := range dec.Entries() {
			if e != model[e.Orig] {
				t.Fatalf("op %d: decoded %+v, want %+v", op, e, model[e.Orig])
			}
		}
	}
	// Drain to empty: the running sums must come back to an empty image.
	for len(origs) > 0 {
		removeAt(len(origs) - 1)
	}
	if !bytes.Equal(tab.Encode(), refEncode(int(bsec), gen, nil)) {
		t.Fatal("drained table differs from an empty reference image")
	}
}

// BenchmarkEncodeTo measures one block-table serialization at the sizes
// the driver sees: empty, the paper's nightly users-disk rearrangement
// (1750 blocks), and a full dual-write slot (8190).
func BenchmarkEncodeTo(b *testing.B) {
	for _, n := range []int{0, 1750, 8190} {
		b.Run("entries="+strconv.Itoa(n), func(b *testing.B) {
			tab := New(geom.Block8K)
			bsec := int64(geom.Block8K.Sectors())
			for i := int64(0); i < int64(n); i++ {
				if err := tab.Add(i*3*bsec, (1<<20+i)*bsec); err != nil {
					b.Fatal(err)
				}
				if i%2 == 0 {
					tab.MarkDirty(i * 3 * bsec)
				}
			}
			buf := make([]byte, 0, EncodedSectors(n)*geom.SectorSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Gen++
				buf = tab.EncodeTo(buf[:0])
			}
		})
	}
}
