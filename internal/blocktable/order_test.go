package blocktable

import (
	"bytes"
	"hash/adler32"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// TestEntriesSortedUnderChurn drives a random Add/Remove/MarkDirty
// sequence and checks the incrementally maintained order against a
// from-scratch sort after every mutation — the invariant Encode and the
// arranger's diffing rely on.
func TestEntriesSortedUnderChurn(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	tab := New(geom.Block8K)
	bsec := int64(geom.Block8K.Sectors())
	live := map[int64]int64{}
	check := func() {
		t.Helper()
		got := tab.Entries()
		want := make([]Entry, 0, len(live))
		for o, n := range live {
			want = append(want, Entry{Orig: o, New: n, Dirty: tab.IsDirty(o)})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Orig < want[j].Orig })
		if len(got) != len(want) {
			t.Fatalf("Entries() has %d entries, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Entries()[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	for i := 0; i < 2000; i++ {
		switch rnd.Intn(3) {
		case 0, 1:
			orig := int64(rnd.Intn(500)) * bsec
			new := (1000 + int64(rnd.Intn(500))) * bsec
			if _, ok := live[orig]; ok {
				break
			}
			if _, ok := tab.ReverseLookup(new); ok {
				break
			}
			if err := tab.Add(orig, new); err != nil {
				t.Fatal(err)
			}
			live[orig] = new
			if rnd.Intn(2) == 0 {
				tab.MarkDirty(orig)
			}
		case 2:
			for o := range live {
				tab.Remove(o)
				delete(live, o)
				break
			}
		}
		check()
	}
}

// TestEncodeToReusesAndMatchesEncode checks that EncodeTo into a dirty,
// oversized scratch buffer produces byte-identical images to a fresh
// Encode as the table grows and shrinks — including the zeroed padding
// a shrinking table leaves behind.
func TestEncodeToReusesAndMatchesEncode(t *testing.T) {
	tab := New(geom.Block8K)
	bsec := int64(geom.Block8K.Sectors())
	scratch := make([]byte, 0, 64*1024)
	for i := range scratch[:cap(scratch)] {
		scratch[:cap(scratch)][i] = 0xAA // poison: stale bytes must not leak
	}
	sizes := []int{0, 1, 7, 300, 50, 3, 0, 120}
	present := map[int64]bool{}
	n := int64(0)
	for _, size := range sizes {
		for int(n) < size {
			if err := tab.Add(n*bsec, (10000+n)*bsec); err != nil {
				t.Fatal(err)
			}
			present[n] = true
			n++
		}
		for int(n) > size {
			n--
			tab.Remove(n * bsec)
		}
		got := tab.EncodeTo(scratch[:0])
		want := tab.Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: EncodeTo differs from Encode", size)
		}
		if dec, err := Decode(got); err != nil || dec.Len() != size {
			t.Fatalf("size %d: reused image does not decode cleanly: %v", size, err)
		}
	}
}

// TestCrcMatchesPerByteReference pins the table checksum (Adler-32 from
// hash/adler32) to the per-byte Fletcher-style definition the table
// format was written with, across sizes that straddle Adler-32's
// deferred modulo window, so existing images keep verifying.
func TestCrcMatchesPerByteReference(t *testing.T) {
	ref := func(data []byte) uint32 {
		var a, b uint32 = 1, 0
		for _, c := range data {
			a = (a + uint32(c)) % 65521
			b = (b + a) % 65521
		}
		return b<<16 | a
	}
	rnd := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 1, 100, 5551, 5552, 5553, 11104, 70000} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rnd.Intn(256))
		}
		if got, want := adler32.Checksum(data), ref(data); got != want {
			t.Errorf("crc over %d bytes = %#x, reference gives %#x", size, got, want)
		}
	}
}
