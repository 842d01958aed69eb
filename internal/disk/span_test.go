package disk

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/blocktable"
	"repro/internal/geom"
)

// TestPageSpansMatchSectorReference writes random sector runs — unaligned
// starts, runs that cross page boundaries, zero and non-zero sectors
// mixed — and checks the page-span store against a per-sector reference
// after every write: the written range and a random range read back as
// the reference says, and a page is materialized exactly when some
// non-zero sector has been written to it.
func TestPageSpansMatchSectorReference(t *testing.T) {
	const window = 40 * pageSectors // sectors the writes land in
	rnd := rand.New(rand.NewSource(5))
	d := MustNew(Fujitsu())
	ref := map[int64][]byte{} // sector -> last written contents
	refPages := map[int64]bool{}
	want := func(at int64, count int) []byte {
		out := make([]byte, count*geom.SectorSize)
		for i := 0; i < count; i++ {
			if s, ok := ref[at+int64(i)]; ok {
				copy(out[i*geom.SectorSize:], s)
			}
		}
		return out
	}
	now := 0.0
	for op := 0; op < 2000; op++ {
		at := 1000 + rnd.Int63n(window)
		count := 1 + rnd.Intn(3*pageSectors)
		if op%4 == 0 {
			count = 1 + rnd.Intn(4) // short runs inside one page
		}
		data := make([]byte, count*geom.SectorSize)
		for i := 0; i < count; i++ {
			sec := data[i*geom.SectorSize : (i+1)*geom.SectorSize]
			switch rnd.Intn(4) {
			case 0, 1: // zero sector
			case 2: // one non-zero byte anywhere
				sec[rnd.Intn(geom.SectorSize)] = byte(1 + rnd.Intn(255))
			default:
				rnd.Read(sec)
			}
			s := at + int64(i)
			ref[s] = sec
			if !bytes.Equal(sec, zeroPage[:geom.SectorSize]) {
				refPages[s/pageSectors] = true
			}
		}
		if op%2 == 0 {
			tm, err := d.Write(now, at, count, data)
			if err != nil {
				t.Fatal(err)
			}
			now += tm.TotalMS()
		} else if err := d.PokeData(at, data); err != nil {
			t.Fatal(err)
		}
		if len(d.pages) != len(refPages) {
			t.Fatalf("op %d: %d pages materialized, reference has %d", op, len(d.pages), len(refPages))
		}
		if !bytes.Equal(d.PeekData(at, count), data) {
			t.Fatalf("op %d: [%d,+%d) does not read back as written", op, at, count)
		}
		rat, rn := 990+rnd.Int63n(window), 1+rnd.Intn(3*pageSectors)
		got, tm, err := d.Read(now, rat, rn)
		if err != nil {
			t.Fatal(err)
		}
		now += tm.TotalMS()
		if !bytes.Equal(got, want(rat, rn)) {
			t.Fatalf("op %d: read [%d,+%d) differs from the reference", op, rat, rn)
		}
	}
	if !bytes.Equal(d.PeekData(990, window+4*pageSectors), want(990, window+4*pageSectors)) {
		t.Fatal("final contents differ from the reference")
	}
}

// BenchmarkWriteTableSlot measures the disk write behind every block
// movement: the driver's whole block-table allocation (577 sectors for
// 16384 entries), of which a 1750-entry table fills the first 62 sectors
// and the rest is zero padding. A first write materializes the pages the
// image touches, as the first table write does; the padding's pages
// stay absent.
func BenchmarkWriteTableSlot(b *testing.B) {
	sectors := blocktable.EncodedSectors(16384)
	tab := blocktable.New(geom.Block8K)
	for i := int64(0); i < 1750; i++ {
		if err := tab.Add(i*32, (1<<20+i)*16); err != nil {
			b.Fatal(err)
		}
	}
	data := make([]byte, sectors*geom.SectorSize)
	copy(data, tab.Encode())
	d := MustNew(Fujitsu())
	const at = 900000
	if _, err := d.Write(0, at, sectors, data); err != nil {
		b.Fatal(err)
	}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := d.Write(now, at, sectors, data)
		if err != nil {
			b.Fatal(err)
		}
		now += tm.TotalMS()
	}
}
