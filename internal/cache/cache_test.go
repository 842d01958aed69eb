package cache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rig"
)

func newRig(t *testing.T) (*rig.Rig, *Cache) {
	t.Helper()
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{CapacityBlocks: 8, SyncPeriodMS: 1000})
	return r, c
}

func block(r *rig.Rig, b byte) []byte {
	return bytes.Repeat([]byte{b}, r.Driver.BlockSize().Bytes())
}

func TestReadMissThenHit(t *testing.T) {
	r, c := newRig(t)
	var first, second []byte
	c.Read(10, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		first = data
	})
	r.Eng.Run()
	c.Read(10, func(data []byte, err error) { second = data })
	r.Eng.Run()
	if first == nil || second == nil {
		t.Fatal("reads did not complete")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestHitIsFasterThanMiss(t *testing.T) {
	r, c := newRig(t)
	start := r.Eng.Now()
	var missTime float64
	c.Read(10, func(_ []byte, _ error) { missTime = r.Eng.Now() - start })
	r.Eng.Run()
	start2 := r.Eng.Now()
	var hitTime float64
	c.Read(10, func(_ []byte, _ error) { hitTime = r.Eng.Now() - start2 })
	r.Eng.Run()
	if missTime <= 0 {
		t.Error("miss took no time")
	}
	if hitTime != 0 {
		t.Errorf("hit took %v ms, want 0 (no disk I/O)", hitTime)
	}
}

func TestWriteIsDeferred(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0xAB)
	c.Write(5, data, nil)
	r.Eng.Run()
	// Nothing on disk yet.
	st := r.Driver.PeekStats()
	if n := st.WriteSide.Count(); n != 0 {
		t.Errorf("%d disk writes before sync", n)
	}
	if c.DirtyLen() != 1 {
		t.Errorf("DirtyLen = %d", c.DirtyLen())
	}
	var serr error
	c.Sync(func(err error) { serr = err })
	r.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 1 {
		t.Errorf("%d disk writes after sync, want 1", n)
	}
	if c.DirtyLen() != 0 {
		t.Error("block still dirty after sync")
	}
	// The data actually reached the disk: a fresh read after
	// invalidation returns it.
	c.Invalidate(5)
	var got []byte
	c.Read(5, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("synced data not on disk")
	}
}

func TestWriteThenReadFromCache(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0x31)
	c.Write(7, data, nil)
	var got []byte
	c.Read(7, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("read did not see cached write")
	}
}

func TestWriteSizeValidation(t *testing.T) {
	r, c := newRig(t)
	var got error
	c.Write(1, []byte{1, 2, 3}, func(err error) { got = err })
	r.Eng.Run()
	if got == nil {
		t.Error("short write accepted")
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	r, c := newRig(t) // capacity 8
	data := block(r, 0x66)
	c.Write(0, data, nil)
	r.Eng.Run()
	// Fill the cache well past capacity with reads.
	for i := int64(100); i < 120; i++ {
		c.Read(i, nil)
		r.Eng.Run()
	}
	if c.Len() > 8 {
		t.Errorf("cache grew to %d blocks", c.Len())
	}
	_, _, wb := c.Stats()
	if wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	r.Eng.Run()
	// Evicted dirty block must be readable from disk.
	var got []byte
	c.Read(0, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("evicted dirty block lost")
	}
}

func TestConcurrentMissesShareOneDiskRead(t *testing.T) {
	r, c := newRig(t)
	var done int
	for i := 0; i < 5; i++ {
		c.Read(42, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		})
	}
	r.Eng.Run()
	if done != 5 {
		t.Fatalf("%d of 5 reads completed", done)
	}
	if n := r.Driver.PeekStats().ReadSide.Count(); n != 1 {
		t.Errorf("%d disk reads for 5 concurrent misses", n)
	}
}

func TestSyncDaemonFlushesPeriodically(t *testing.T) {
	r, c := newRig(t) // sync period 1000 ms
	c.StartSyncDaemon()
	c.Write(3, block(r, 1), nil)
	r.Eng.RunUntil(500)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 0 {
		t.Errorf("flushed before the period elapsed (%d writes)", n)
	}
	r.Eng.RunUntil(1500)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 1 {
		t.Errorf("daemon flushed %d writes, want 1", n)
	}
	// Dirty again; daemon keeps running.
	c.Write(4, block(r, 2), nil)
	r.Eng.RunUntil(2500)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 2 {
		t.Errorf("second flush: %d writes", n)
	}
	c.StopSyncDaemon()
	c.Write(5, block(r, 3), nil)
	r.Eng.RunUntil(10000)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 2 {
		t.Errorf("daemon still flushing after stop (%d writes)", n)
	}
}

func TestSyncProducesWriteBurst(t *testing.T) {
	// Many dirty blocks flushed together arrive at the driver as one
	// burst — the arrival pattern the paper attributes write queueing to.
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{CapacityBlocks: 64, SyncPeriodMS: 60000})
	for i := int64(0); i < 40; i++ {
		c.Write(i*50, block(r, byte(i)), nil)
	}
	r.Eng.Run()
	c.Sync(nil)
	r.Eng.Run()
	st := r.Driver.ReadStats()
	if st.WriteSide.Count() != 40 {
		t.Fatalf("%d writes", st.WriteSide.Count())
	}
	if st.WriteSide.MeanQueueingMS() <= 0 {
		t.Error("burst produced no write queueing")
	}
}

func TestSyncEmptyCache(t *testing.T) {
	r, c := newRig(t)
	var called bool
	c.Sync(func(err error) {
		if err != nil {
			t.Errorf("sync: %v", err)
		}
		called = true
	})
	r.Eng.Run()
	if !called {
		t.Error("sync of empty cache never completed")
	}
}

func TestInvalidate(t *testing.T) {
	r, c := newRig(t)
	c.Read(9, nil)
	r.Eng.Run()
	c.Invalidate(9)
	c.Read(9, nil)
	r.Eng.Run()
	_, misses, _ := c.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 after invalidation", misses)
	}
}

func TestWriteThrough(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0x77)
	var werr error
	c.WriteThrough(9, data, func(err error) { werr = err })
	r.Eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	// The write reached the disk immediately.
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 1 {
		t.Errorf("%d disk writes after write-through, want 1", n)
	}
	// The block is cached clean: sync produces nothing further.
	if c.DirtyLen() != 0 {
		t.Error("write-through left the block dirty")
	}
	var got []byte
	c.Read(9, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("write-through data not visible in cache")
	}
}

func TestWriteThroughSizeValidation(t *testing.T) {
	r, c := newRig(t)
	var werr error
	c.WriteThrough(1, []byte{1}, func(err error) { werr = err })
	r.Eng.Run()
	if werr == nil {
		t.Error("short write-through accepted")
	}
}

func TestPressureDropsCleanBlocks(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{
		CapacityBlocks:   64,
		SyncPeriodMS:     1000,
		PressurePeriodMS: 1000,
		PressureFrac:     1.0, // drop everything each period
		Seed:             7,
	})
	for i := int64(0); i < 20; i++ {
		c.Read(i*10, nil)
	}
	r.Eng.Run()
	if c.Len() != 20 {
		t.Fatalf("cache holds %d blocks", c.Len())
	}
	c.StartSyncDaemon()
	r.Eng.RunUntil(r.Eng.Now() + 1500)
	if c.Len() != 0 {
		t.Errorf("pressure left %d blocks cached", c.Len())
	}
	c.StopSyncDaemon()
}

func TestPressureSparesDirtyBlocks(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{
		CapacityBlocks:   64,
		SyncPeriodMS:     1e9, // effectively never sync
		PressurePeriodMS: 1000,
		PressureFrac:     1.0,
		Seed:             7,
	})
	blockData := make([]byte, r.Driver.BlockSize().Bytes())
	c.Write(5, blockData, nil)
	r.Eng.Run()
	c.StartSyncDaemon()
	r.Eng.RunUntil(r.Eng.Now() + 2500)
	if c.DirtyLen() != 1 {
		t.Errorf("pressure evicted a dirty block (dirty=%d)", c.DirtyLen())
	}
	c.StopSyncDaemon()
}

// The hit and deferred-write paths are the hottest events in the whole
// stack — one zero-delay delivery each — and their completion records
// are pooled (see delivery). Steady state must stay allocation-free;
// a regression here multiplies across every simulated file operation.

func TestReadHitZeroAllocs(t *testing.T) {
	r, c := newRig(t)
	c.Read(10, nil) // prime: miss brings the block in
	r.Eng.Run()
	op := func() {
		c.Read(10, func([]byte, error) {})
		r.Eng.Run()
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("cached read round trip: %v allocs, want 0", n)
	}
}

func TestDeferredWriteZeroAllocs(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0xCD)
	op := func() {
		c.WriteOwned(5, data, func(error) {})
		r.Eng.Run()
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("deferred write round trip: %v allocs, want 0", n)
	}
}

// lruBlocks lists the cached blocks, most recently used first, with
// their dirty bits.
func lruBlocks(c *Cache) []entry {
	var out []entry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, entry{block: e.block, dirty: e.dirty})
	}
	return out
}

// TestTouchMatchesWriteOwned runs the same history on two caches, then
// touches a resident clean block in one and rewrites it with its own
// contents through WriteOwned in the other. Dirty state, LRU order,
// write-backs, the completion time and the engine's event count must
// agree, now and after an eviction and a sync; Touch keeps the buffer.
func TestTouchMatchesWriteOwned(t *testing.T) {
	type side struct {
		r     *rig.Rig
		c     *Cache
		doneT float64
	}
	setup := func() *side {
		r, c := newRig(t)
		for b := int64(1); b <= 4; b++ {
			c.WriteOwned(b, block(r, byte(b)), nil)
		}
		c.Sync(nil)
		r.Eng.Run()
		c.Read(3, nil)
		c.Read(1, nil)
		r.Eng.Run()
		return &side{r: r, c: c, doneT: -1}
	}
	touched, written := setup(), setup()
	before, _ := touched.c.Peek(2)
	if !touched.c.Touch(2, func(err error) {
		if err != nil {
			t.Errorf("touch: %v", err)
		}
		touched.doneT = touched.r.Eng.Now()
	}) {
		t.Fatal("Touch of a resident block returned false")
	}
	written.c.WriteOwned(2, block(written.r, 2), func(error) { written.doneT = written.r.Eng.Now() })

	compare := func(stage string) {
		t.Helper()
		if got, want := touched.r.Eng.Pending(), written.r.Eng.Pending(); got != want {
			t.Errorf("%s: %d events pending after Touch, %d after WriteOwned", stage, got, want)
		}
		touched.r.Eng.Run()
		written.r.Eng.Run()
		if got, want := touched.r.Eng.Dispatched(), written.r.Eng.Dispatched(); got != want {
			t.Errorf("%s: %d events dispatched after Touch, %d after WriteOwned", stage, got, want)
		}
		if got, want := fmt.Sprint(lruBlocks(touched.c)), fmt.Sprint(lruBlocks(written.c)); got != want {
			t.Errorf("%s: LRU after Touch %s, after WriteOwned %s", stage, got, want)
		}
		_, _, wbT := touched.c.Stats()
		_, _, wbW := written.c.Stats()
		if wbT != wbW {
			t.Errorf("%s: %d write-backs after Touch, %d after WriteOwned", stage, wbT, wbW)
		}
	}
	compare("touch")
	if touched.doneT < 0 || touched.doneT != written.doneT {
		t.Errorf("Touch completed at %v ms, WriteOwned at %v ms", touched.doneT, written.doneT)
	}
	if after, _ := touched.c.Peek(2); &after[0] != &before[0] {
		t.Error("Touch replaced the cached buffer")
	}
	if touched.c.DirtyLen() != 1 {
		t.Errorf("%d dirty blocks after Touch, want 1", touched.c.DirtyLen())
	}
	for _, s := range []*side{touched, written} {
		for b := int64(10); b < 18; b++ { // capacity 8: evicts all four, the touched block last
			s.c.WriteOwned(b, block(s.r, byte(b)), nil)
		}
	}
	compare("evict")
	touched.c.Sync(nil)
	written.c.Sync(nil)
	compare("sync")
}

// TestTouchNonResident checks that touching a block the cache does not
// hold reports false and changes nothing: no entry, no event, no
// statistics, no completion.
func TestTouchNonResident(t *testing.T) {
	r, c := newRig(t)
	c.WriteOwned(1, block(r, 1), nil)
	r.Eng.Run()
	lru := fmt.Sprint(lruBlocks(c))
	h, m, wb := c.Stats()
	dispatched := r.Eng.Dispatched()
	fired := false
	if c.Touch(99, func(error) { fired = true }) {
		t.Fatal("Touch of a non-resident block returned true")
	}
	if r.Eng.Pending() != 0 {
		t.Errorf("Touch scheduled %d events", r.Eng.Pending())
	}
	r.Eng.Run()
	if fired || r.Eng.Dispatched() != dispatched {
		t.Error("Touch of a non-resident block fired a completion")
	}
	if got := fmt.Sprint(lruBlocks(c)); got != lru {
		t.Errorf("LRU changed: %s, was %s", got, lru)
	}
	if h2, m2, wb2 := c.Stats(); h2 != h || m2 != m || wb2 != wb {
		t.Errorf("stats changed: (%d, %d, %d), were (%d, %d, %d)", h2, m2, wb2, h, m, wb)
	}
	if _, ok := c.Peek(99); ok {
		t.Error("Touch made the block resident")
	}
}
