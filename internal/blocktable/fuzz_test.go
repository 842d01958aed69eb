package blocktable

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/geom"
)

// fuzzSeeds builds the seed corpus both fuzz targets share: valid
// encodings of several table shapes plus truncated and bit-flipped
// variants — the images a torn table write or a failing sector could
// hand to recovery.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	empty := New(geom.Block8K)
	f.Add(empty.Encode())

	small := New(geom.Block8K)
	for i := int64(0); i < 5; i++ {
		if err := small.Add(i*160, 640000+i*16); err != nil {
			f.Fatal(err)
		}
	}
	small.MarkDirty(0)
	small.Gen = 3
	img := small.Encode()
	f.Add(img)

	big := New(geom.Block4K)
	for i := int64(0); i < 100; i++ {
		if err := big.Add(i*80, 800000+i*8); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(big.Encode())

	// Truncations: inside the header, at the header boundary, and
	// mid-entry — what a torn write leaves behind.
	for _, n := range []int{0, 4, headerSize - 1, headerSize, headerSize + entrySize/2, len(img) - 1} {
		if n <= len(img) {
			f.Add(append([]byte(nil), img[:n]...))
		}
	}
	// Bit flips in every header field and in an entry.
	for _, off := range []int{offHdrMagic, offHdrVersion, offHdrBlkSec, offHdrCount, offHdrCksum, offHdrGen, headerSize + 3} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x80
		f.Add(bad)
	}
	// A hostile count with everything else intact.
	huge := append([]byte(nil), img...)
	huge[offHdrCount] = 0xFF
	huge[offHdrCount+1] = 0xFF
	f.Add(huge)
}

// FuzzDecode asserts Decode never panics: any input either decodes to
// a consistent table, or returns an error. A table that decodes must
// re-encode to exactly the reference encoding of its entries, and that
// image must decode to the same entries and generation.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must be internally consistent and
		// re-encodable.
		entries := tbl.Entries()
		if len(entries) != tbl.Len() {
			t.Fatalf("Entries() returned %d of %d", len(entries), tbl.Len())
		}
		img := tbl.Encode()
		if !bytes.Equal(img, refEncode(tbl.BlockSectors(), tbl.Gen, entries)) {
			t.Fatal("re-encoded image differs from the reference encoding")
		}
		again, err := Decode(img)
		if err != nil {
			t.Fatalf("re-decoding a valid table: %v", err)
		}
		if again.Gen != tbl.Gen {
			t.Fatalf("re-decoded gen %d, want %d", again.Gen, tbl.Gen)
		}
		if !slices.Equal(again.Entries(), entries) {
			t.Fatal("re-decoded entries differ")
		}
		if !bytes.Equal(again.Encode(), img) {
			t.Fatal("encode/decode/encode not stable")
		}
	})
}

// FuzzRecoverDecode asserts the conservative recovery path never
// panics and that every entry of a recovered table is dirty.
func FuzzRecoverDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := RecoverDecode(data)
		if err != nil {
			return
		}
		for _, e := range tbl.Entries() {
			if !e.Dirty {
				t.Fatalf("entry %d not dirty after recovery", e.Orig)
			}
		}
	})
}
