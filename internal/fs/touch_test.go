package fs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/rig"
	"repro/internal/sim"
)

// staleInodeBlocks counts the inode-table blocks resident in the
// metadata cache whose bytes differ from a fresh encode of the in-memory
// inodes, and returns the first such block.
func staleInodeBlocks(f *FS) (stale int, first int64) {
	for _, g := range f.groups {
		for k := int64(0); k < int64(f.prm.InodeBlocksPerGroup); k++ {
			ib := g.base + 1 + k
			data, ok := f.meta.Peek(ib)
			if ok && !bytes.Equal(data, f.encodeInodeBlock(ib)) {
				if stale == 0 {
					first = ib
				}
				stale++
			}
		}
	}
	return stale, first
}

// checkInodeBlocks asserts the invariant access-time touches rest on:
// every inode-table block resident in the metadata cache holds exactly
// the bytes a fresh encode of the in-memory inodes produces.
func checkInodeBlocks(t *testing.T, f *FS, stage string) {
	t.Helper()
	if n, ib := staleInodeBlocks(f); n > 0 {
		t.Fatalf("%s: cached inode block %d (and %d more) differs from a fresh encode", stage, ib, n-1)
	}
}

// TestResidentInodeBlocksMatchEncode drives a seeded random sequence of
// creates, writes, grows, removes, mkdirs, reads and lookups on an
// atime mount whose metadata cache is small enough to evict, and checks
// after every operation that no resident inode block has drifted from
// its encoding. Touches of both resident and evicted inode blocks must
// occur, so both paths of touchInodeBlock are exercised. Operations run
// one at a time here; TestResidentInodeBlocksMatchEncodeUnderOverlap
// overlaps them.
func TestResidentInodeBlocksMatchEncode(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{MetaCache: cache.Config{CapacityBlocks: 6}})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()

	rnd := sim.NewRand(20261017)
	files := map[string]Ino{}
	var paths []string // creation order, for deterministic picks
	dirs := []string{""}
	pick := func() (string, Ino) {
		for len(paths) > 0 {
			i := rnd.Intn(len(paths))
			if ino, ok := files[paths[i]]; ok {
				return paths[i], ino
			}
			paths = append(paths[:i], paths[i+1:]...)
		}
		return "", 0
	}
	var touchedResident, touchedEvicted int
	for op := 0; op < 600; op++ {
		stage := fmt.Sprintf("op %d", op)
		switch p := rnd.Float64(); {
		case p < 0.05 && len(dirs) < 12: // mkdir
			path := fmt.Sprintf("%s/d%03d", dirs[rnd.Intn(len(dirs))], op)
			mustMkdir(t, r, f, path)
			dirs = append(dirs, path)
		case p < 0.25: // create with initial content
			path := fmt.Sprintf("%s/f%03d", dirs[rnd.Intn(len(dirs))], op)
			ino := mustCreate(t, r, f, path)
			h, _ := f.OpenIno(ino)
			mustWrite(t, r, h, 0, int64(rnd.Intn(4))+1)
			files[path] = ino
			paths = append(paths, path)
		case p < 0.40: // overwrite in place, or grow past the end
			_, ino := pick()
			if ino == 0 {
				continue
			}
			h, _ := f.OpenIno(ino)
			at := rnd.Int63n(h.SizeBlocks() + 1)
			n := int64(rnd.Intn(6)) + 1
			if at+n > f.MaxFileBlocks() {
				continue
			}
			mustWrite(t, r, h, at, n)
		case p < 0.50: // remove
			path, _ := pick()
			if path == "" {
				continue
			}
			var rerr error
			f.Remove(path, func(err error) { rerr = err })
			r.Eng.Run()
			if rerr != nil {
				t.Fatalf("%s: remove %s: %v", stage, path, rerr)
			}
			delete(files, path)
		case p < 0.85: // read: touches the file's inode block
			_, ino := pick()
			if ino == 0 {
				continue
			}
			if _, ok := f.meta.Peek(f.inodeBlockOf(ino)); ok {
				touchedResident++
			} else {
				touchedEvicted++
			}
			h, _ := f.OpenIno(ino)
			at := rnd.Int63n(h.SizeBlocks())
			mustRead(t, r, h, at, rnd.Int63n(h.SizeBlocks()-at)+1)
		case p < 0.95: // lookup: touches every directory on the path
			path, _ := pick()
			if path == "" {
				continue
			}
			mustOpen(t, r, f, path)
		default: // update daemon
			f.Sync(nil)
			r.Eng.Run()
		}
		checkInodeBlocks(t, f, stage)
	}
	if touchedResident == 0 || touchedEvicted == 0 {
		t.Errorf("reads touched %d resident and %d evicted inode blocks; want both paths", touchedResident, touchedEvicted)
	}
	t.Logf("%d reads touched a resident inode block, %d an evicted one", touchedResident, touchedEvicted)
}

// TestResidentInodeBlocksMatchEncodeUnderOverlap runs 300 rounds of four
// overlapping operations — appends and reads of files whose inodes share
// inode-table blocks — and checks after each round that no resident
// inode block is stale. Two overlapping appends rewrite one inode block
// and can complete in the opposite order to the one they started in; a
// write step encoded when its operation started would then leave the
// older image cached (and, after the next sync, on disk).
func TestResidentInodeBlocksMatchEncodeUnderOverlap(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()

	const nfiles, maxBlocks = 6, 40
	rnd := sim.NewRand(5)
	handles := make([]*Handle, nfiles)
	paths := make([]string, nfiles)
	next := 0
	fresh := func(i int) {
		paths[i] = fmt.Sprintf("/f%04d", next)
		next++
		handles[i], _ = f.OpenIno(mustCreate(t, r, f, paths[i]))
		mustWrite(t, r, handles[i], 0, 1)
	}
	for i := range handles {
		fresh(i)
	}
	staleRounds := 0
	for round := 0; round < 300; round++ {
		// Recycle full files between rounds so appends stay appends.
		for i, h := range handles {
			if h.SizeBlocks() >= maxBlocks {
				var rerr error
				f.Remove(paths[i], func(err error) { rerr = err })
				r.Eng.Run()
				if rerr != nil {
					t.Fatal(rerr)
				}
				fresh(i)
			}
		}
		errs := make([]error, 4)
		for k := range errs {
			h := handles[rnd.Intn(nfiles)]
			if rnd.Intn(3) == 0 {
				at := rnd.Int63n(h.SizeBlocks())
				h.ReadAt(at, h.SizeBlocks()-at, func(_ [][]byte, err error) { errs[k] = err })
				continue
			}
			h.Append(int64(rnd.Intn(4))+1, func(err error) { errs[k] = err })
		}
		r.Eng.Run()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if n, _ := staleInodeBlocks(f); n > 0 {
			staleRounds++
		}
		if round%50 == 49 {
			f.Sync(nil)
			r.Eng.Run()
		}
	}
	if staleRounds > 0 {
		t.Errorf("%d of 300 rounds left a stale inode block in the metadata cache", staleRounds)
	}
}
