package disk

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/seek"
)

func TestModelsMatchTable1(t *testing.T) {
	tosh := Toshiba()
	if tosh.Geom.Cylinders != 815 || tosh.Geom.TracksPerCyl != 10 ||
		tosh.Geom.SectorsPerTrack != 34 || tosh.Geom.RPM != 3600 {
		t.Errorf("Toshiba geometry = %+v", tosh.Geom)
	}
	if tosh.TrackBufferKB != 0 {
		t.Error("Toshiba should have no track buffer")
	}
	fuji := Fujitsu()
	if fuji.Geom.Cylinders != 1658 || fuji.Geom.TracksPerCyl != 15 ||
		fuji.Geom.SectorsPerTrack != 85 || fuji.Geom.RPM != 3600 {
		t.Errorf("Fujitsu geometry = %+v", fuji.Geom)
	}
	if fuji.TrackBufferKB != 256 {
		t.Errorf("Fujitsu track buffer = %d KB, want 256", fuji.TrackBufferKB)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Model{Name: "bad"}); err == nil {
		t.Error("model without geometry accepted")
	}
	m := Toshiba()
	m.Seek = nil
	if _, err := New(m); err == nil {
		t.Error("model without seek curve accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := MustNew(Toshiba())
	data := make([]byte, 16*geom.SectorSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := d.Write(0, 1000, 16, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(100, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read data differs from written data")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	d := MustNew(Toshiba())
	got, _, err := d.Read(0, 5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector returned non-zero data")
		}
	}
}

func TestPartialOverwrite(t *testing.T) {
	d := MustNew(Toshiba())
	a := bytes.Repeat([]byte{0xAA}, 4*geom.SectorSize)
	b := bytes.Repeat([]byte{0xBB}, 2*geom.SectorSize)
	if _, err := d.Write(0, 100, 4, a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(10, 101, 2, b); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(20, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA || got[geom.SectorSize] != 0xBB ||
		got[2*geom.SectorSize] != 0xBB || got[3*geom.SectorSize] != 0xAA {
		t.Error("partial overwrite corrupted neighbouring sectors")
	}
}

// TestSparseZeroWrites pins the sparse store: an all-zero sector
// written to a page that was never materialized leaves it absent, one
// non-zero byte anywhere in the sector materializes it, and zeros
// written to a materialized page overwrite what is there.
func TestSparseZeroWrites(t *testing.T) {
	sector := func(off int, b byte) []byte {
		s := make([]byte, geom.SectorSize)
		s[off] = b
		return s
	}
	const at = 5 * pageSectors // first sector of page 5
	cases := []struct {
		name    string
		prior   []byte // written first, at sector at+priorAt, when set
		priorAt int64
		data    []byte // then written at sector at
		pages   int
	}{
		{"zero sector, fresh page", nil, 0, sector(0, 0), 0},
		{"non-zero byte at offset 0", nil, 0, sector(0, 0x01), 1},
		{"non-zero byte at offset 511", nil, 0, sector(geom.SectorSize-1, 0x80), 1},
		{"zero sector, materialized page", sector(7, 0xEE), 1, sector(0, 0), 1},
		{"zero sector over data", sector(3, 0x42), 0, sector(0, 0), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := MustNew(Toshiba())
			if c.prior != nil {
				if _, err := d.Write(0, at+c.priorAt, 1, c.prior); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.Write(0, at, 1, c.data); err != nil {
				t.Fatal(err)
			}
			if len(d.pages) != c.pages {
				t.Errorf("%d pages materialized, want %d", len(d.pages), c.pages)
			}
			if got := d.PeekData(at, 1); !bytes.Equal(got, c.data) {
				t.Error("sector does not read back as written")
			}
			if c.priorAt != 0 && !bytes.Equal(d.PeekData(at+c.priorAt, 1), c.prior) {
				t.Error("neighbouring sector changed")
			}
		})
	}
}

func TestRangeValidation(t *testing.T) {
	d := MustNew(Toshiba())
	total := d.Geom().TotalSectors()
	if _, _, err := d.Read(0, total-1, 2); err == nil {
		t.Error("read past end accepted")
	}
	if _, _, err := d.Read(0, -1, 1); err == nil {
		t.Error("negative sector accepted")
	}
	if _, _, err := d.Read(0, 0, 0); err == nil {
		t.Error("zero-length read accepted")
	}
	if _, err := d.Write(0, 0, 2, make([]byte, geom.SectorSize)); err == nil {
		t.Error("write with short data accepted")
	}
}

func TestSeekTimingMatchesCurve(t *testing.T) {
	d := MustNew(Toshiba())
	d.ParkHead(0)
	targetCyl := 400
	sector := d.Geom().FirstSectorOfCyl(targetCyl)
	_, tm, err := d.Read(0, sector, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tm.SeekDist != 400 {
		t.Errorf("SeekDist = %d, want 400", tm.SeekDist)
	}
	want := seek.ToshibaMK156F.SeekMS(400)
	if math.Abs(tm.SeekMS-want) > 1e-9 {
		t.Errorf("SeekMS = %v, want %v", tm.SeekMS, want)
	}
	if d.HeadCylinder() != 400 {
		t.Errorf("head at %d after read", d.HeadCylinder())
	}
}

func TestZeroSeekOnSameCylinder(t *testing.T) {
	d := MustNew(Toshiba())
	sector := d.Geom().FirstSectorOfCyl(100)
	if _, _, err := d.Read(0, sector, 16); err != nil {
		t.Fatal(err)
	}
	_, tm, err := d.Read(50, sector+32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tm.SeekDist != 0 || tm.SeekMS != 0 {
		t.Errorf("same-cylinder read: dist=%d seek=%v", tm.SeekDist, tm.SeekMS)
	}
}

func TestRotationalDelayBounded(t *testing.T) {
	d := MustNew(Toshiba())
	rev := d.Geom().RevolutionMS()
	for i := 0; i < 50; i++ {
		_, tm, err := d.Read(float64(i)*7.3, int64(i)*1111, 16)
		if err != nil {
			t.Fatal(err)
		}
		if tm.RotMS < 0 || tm.RotMS >= rev {
			t.Errorf("rotational delay %v outside [0, %v)", tm.RotMS, rev)
		}
	}
}

func TestRotationalPositionDeterministic(t *testing.T) {
	// Reading the same sector exactly one revolution apart must see the
	// same rotational delay.
	d1 := MustNew(Toshiba())
	d2 := MustNew(Toshiba())
	rev := d1.Geom().RevolutionMS()
	_, t1, err := d1.Read(5, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := d2.Read(5+rev, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1.RotMS-t2.RotMS) > 1e-6 {
		t.Errorf("rotational delays differ across one revolution: %v vs %v", t1.RotMS, t2.RotMS)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	d := MustNew(Toshiba())
	_, t1, err := d.Read(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := MustNew(Toshiba())
	_, t16, err := d2.Read(0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t16.TransferMS <= t1.TransferMS {
		t.Errorf("16-sector transfer (%v) not longer than 1-sector (%v)", t16.TransferMS, t1.TransferMS)
	}
	// One 8K block at 34 sectors/track: 16/34 of a revolution ≈ 7.8 ms,
	// possibly plus a head switch.
	want := 16.0 / 34.0 * d.Geom().RevolutionMS()
	if t16.TransferMS < want-1e-9 || t16.TransferMS > want+Toshiba().HeadSwitchMS+1e-9 {
		t.Errorf("8K transfer = %v ms, want about %v", t16.TransferMS, want)
	}
}

func TestServiceTimePlausible(t *testing.T) {
	// Mean service for random 8K requests should land in the ballpark
	// of the paper's no-rearrangement numbers (Toshiba: ~38 ms).
	d := MustNew(Toshiba())
	now := 0.0
	var sum float64
	n := 2000
	st := uint64(12345)
	for i := 0; i < n; i++ {
		st = st*6364136223846793005 + 1442695040888963407
		blk := int64(st>>33) % (d.Geom().TotalSectors() / 16)
		_, tm, err := d.Read(now, blk*16, 16)
		if err != nil {
			t.Fatal(err)
		}
		now += tm.TotalMS()
		sum += tm.TotalMS()
	}
	mean := sum / float64(n)
	if mean < 25 || mean > 50 {
		t.Errorf("random 8K read mean service = %v ms, want ~38", mean)
	}
}

func TestTrackBufferHit(t *testing.T) {
	d := MustNew(Fujitsu())
	// Sequential read: second block should be satisfied by read-ahead.
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t1.BufferHit {
		t.Fatal("first read cannot hit the buffer")
	}
	end := t1.TotalMS()
	_, t2, err := d.Read(end+20, 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !t2.BufferHit {
		t.Fatal("sequential read after idle gap did not hit the read-ahead buffer")
	}
	if t2.SeekMS != 0 || t2.RotMS != 0 || t2.SeekDist != 0 {
		t.Errorf("buffer hit has mechanical delays: %+v", t2)
	}
	if t2.TotalMS() >= t1.TotalMS() {
		t.Errorf("buffer hit (%v) not faster than media read (%v)", t2.TotalMS(), t1.TotalMS())
	}
}

func TestTrackBufferNeedsIdleTime(t *testing.T) {
	d := MustNew(Fujitsu())
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately after completion, read-ahead has had no time to fetch
	// a whole extra block.
	_, t2, err := d.Read(t1.TotalMS(), 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("buffer hit with zero idle time")
	}
}

func TestTrackBufferInvalidatedByWrite(t *testing.T) {
	d := MustNew(Fujitsu())
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	end := t1.TotalMS() + 50
	if _, err := d.Write(end, 1716, 16, make([]byte, 16*geom.SectorSize)); err != nil {
		t.Fatal(err)
	}
	_, t2, err := d.Read(end+100, 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("read hit a buffer that a write should have invalidated")
	}
}

func TestTrackBufferStopsAtCylinderEnd(t *testing.T) {
	d := MustNew(Fujitsu())
	g := d.Geom()
	// Read the last block of cylinder 10.
	cylEnd := g.FirstSectorOfCyl(11)
	start := cylEnd - 16
	_, t1, err := d.Read(0, start, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Even after a long idle period, the first block of cylinder 11 is
	// not buffered (read-ahead stops at the cylinder boundary).
	_, t2, err := d.Read(t1.TotalMS()+10000, cylEnd, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("read-ahead crossed a cylinder boundary")
	}
}

func TestToshibaHasNoBuffer(t *testing.T) {
	d := MustNew(Toshiba())
	_, t1, err := d.Read(0, 1700, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := d.Read(t1.TotalMS()+1000, 1716, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t2.BufferHit {
		t.Error("Toshiba model reported a buffer hit")
	}
}

func TestCounters(t *testing.T) {
	d := MustNew(Fujitsu())
	if _, _, err := d.Read(0, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(50, 160, 16, make([]byte, 16*geom.SectorSize)); err != nil {
		t.Fatal(err)
	}
	r, w, _ := d.Counters()
	if r != 1 || w != 1 {
		t.Errorf("counters = (%d, %d)", r, w)
	}
}

func TestPokePeek(t *testing.T) {
	d := MustNew(Toshiba())
	data := bytes.Repeat([]byte{0x5A}, geom.SectorSize)
	if err := d.PokeData(77, data); err != nil {
		t.Fatal(err)
	}
	if got := d.PeekData(77, 1); !bytes.Equal(got, data) {
		t.Error("PeekData differs from PokeData")
	}
	if err := d.PokeData(0, make([]byte, 100)); err == nil {
		t.Error("unaligned poke accepted")
	}
	if d.HeadCylinder() != 0 {
		t.Error("PokeData moved the head")
	}
}

func TestParkHeadClamps(t *testing.T) {
	d := MustNew(Toshiba())
	d.ParkHead(-5)
	if d.HeadCylinder() != 0 {
		t.Errorf("ParkHead(-5) -> %d", d.HeadCylinder())
	}
	d.ParkHead(100000)
	if d.HeadCylinder() != 814 {
		t.Errorf("ParkHead(huge) -> %d", d.HeadCylinder())
	}
}

func TestDataIntegrityProperty(t *testing.T) {
	d := MustNew(Toshiba())
	now := 0.0
	f := func(sRaw uint32, val byte, count8 uint8) bool {
		count := int(count8)%16 + 1
		s := int64(sRaw) % (d.Geom().TotalSectors() - int64(count))
		data := bytes.Repeat([]byte{val}, count*geom.SectorSize)
		tm, err := d.Write(now, s, count, data)
		if err != nil {
			return false
		}
		now += tm.TotalMS()
		got, tm2, err := d.Read(now, s, count)
		if err != nil {
			return false
		}
		now += tm2.TotalMS()
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimingAlwaysNonNegative(t *testing.T) {
	d := MustNew(Fujitsu())
	now := 0.0
	f := func(sRaw uint32, gap uint16) bool {
		s := int64(sRaw) % (d.Geom().TotalSectors() - 16)
		s -= s % 16
		now += float64(gap) / 100
		got, tm, err := d.Read(now, s, 16)
		if err != nil || got == nil {
			return false
		}
		now += tm.TotalMS()
		return tm.SeekMS >= 0 && tm.RotMS >= 0 && tm.TransferMS > 0 && tm.OverheadMS > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
