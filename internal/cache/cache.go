// Package cache implements the main-memory buffer cache that sits
// between the file system and the disk driver (Section 3.1 of "Adaptive
// Block Rearrangement Under UNIX").
//
// All file I/O goes through the buffer cache. Read requests reach the
// disk only on a miss. Updated blocks are not written back immediately:
// they stay dirty in the cache and are flushed in bulk by the periodic
// update (sync) policy — the mechanism that makes UNIX write traffic
// arrive at the disk in bursts, which in turn is what makes the paper's
// waiting-time reductions large. The cache is an LRU over whole file
// system blocks; evicting a dirty block writes it back first.
package cache

import (
	"container/list"
	"fmt"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// pressure defaults.
const defaultPressureFrac = 0.1

// DefaultSyncPeriodMS is the update daemon's period: the traditional
// UNIX 30 seconds.
const DefaultSyncPeriodMS = 30 * 1000

// Config carries cache tunables.
type Config struct {
	// CapacityBlocks is the cache size in blocks; zero selects 1024
	// (8 MB of 8 KB blocks — a modest slice of Sakarya's 32 MB).
	CapacityBlocks int
	// SyncPeriodMS is the update policy period; zero selects 30 s.
	SyncPeriodMS float64
	// PressurePeriodMS, when positive, models external memory pressure:
	// every period the cache drops PressureFrac of its clean blocks at
	// random (the VM system stealing pages for other processes), so
	// even very hot blocks periodically re-miss — which is why real
	// disks still see skewed read streams under a large cache. The
	// pressure daemon runs with the sync daemon.
	PressurePeriodMS float64
	// PressureFrac is the fraction dropped per period; zero with
	// pressure enabled selects 0.1.
	PressureFrac float64
	// Seed seeds the pressure daemon's random choices.
	Seed uint64
}

// Cache is a buffer cache bound to one partition of one block device —
// a single driver or a multi-disk volume. Like the rest of the stack it
// is event-driven and single-threaded.
type Cache struct {
	eng  *sim.Engine
	drv  driver.BlockDevice
	part int
	cfg  Config

	entries map[int64]*list.Element // block number -> *entry element
	lru     *list.List              // front = most recently used

	// In-flight block reads, so concurrent misses on one block issue a
	// single disk request.
	inflight map[int64][]func([]byte, error)

	syncing bool
	syncSeq int
	rnd     *sim.Rand

	// free heads the pool of zero-delay completion records (see
	// delivery). Single-threaded like the rest of the cache.
	free *delivery

	hits, misses, writebacks int64
}

// delivery is a pooled zero-delay completion event. Cache hits and
// write acknowledgements outnumber every other event in the stack, and
// each used to allocate a fresh closure for its After(0); finished
// records go back on the cache's free list and are rescheduled through
// sim.AfterCall instead. At most one of read and write is set.
type delivery struct {
	c     *Cache
	next  *delivery
	data  []byte
	read  func([]byte, error)
	write func(error)
}

// Call fires the deferred completion. The record returns to the pool
// before the callback runs, so the callback can issue new cache
// operations that reuse it.
func (d *delivery) Call() {
	c, data, read, write := d.c, d.data, d.read, d.write
	d.data, d.read, d.write = nil, nil, nil
	d.next, c.free = c.free, d
	switch {
	case read != nil:
		read(data, nil)
	case write != nil:
		write(nil)
	}
}

// deliverRead schedules done(data, nil) as a zero-delay event without
// allocating. A nil done still fires an (empty) event, keeping the
// engine's event and sequence streams identical either way.
func (c *Cache) deliverRead(data []byte, done func([]byte, error)) {
	d := c.free
	if d == nil {
		d = &delivery{c: c}
	} else {
		c.free = d.next
	}
	d.data, d.read = data, done
	c.eng.AfterCall(0, d)
}

// deliverWrite schedules done(nil) as a zero-delay event without
// allocating.
func (c *Cache) deliverWrite(done func(error)) {
	d := c.free
	if d == nil {
		d = &delivery{c: c}
	} else {
		c.free = d.next
	}
	d.write = done
	c.eng.AfterCall(0, d)
}

type entry struct {
	block int64
	data  []byte
	dirty bool
}

// New returns a cache over the given partition.
func New(eng *sim.Engine, drv driver.BlockDevice, part int, cfg Config) *Cache {
	if cfg.CapacityBlocks <= 0 {
		cfg.CapacityBlocks = 1024
	}
	if cfg.SyncPeriodMS <= 0 {
		cfg.SyncPeriodMS = DefaultSyncPeriodMS
	}
	if cfg.PressurePeriodMS > 0 && cfg.PressureFrac <= 0 {
		cfg.PressureFrac = defaultPressureFrac
	}
	return &Cache{
		eng:      eng,
		drv:      drv,
		part:     part,
		cfg:      cfg,
		rnd:      sim.NewRand(cfg.Seed ^ 0xCAC4E),
		entries:  make(map[int64]*list.Element),
		lru:      list.New(),
		inflight: make(map[int64][]func([]byte, error)),
	}
}

// applyPressure drops a random fraction of the clean cached blocks.
func (c *Cache) applyPressure() {
	var victims []int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if !e.dirty && c.rnd.Bool(c.cfg.PressureFrac) {
			victims = append(victims, e.block)
		}
	}
	for _, b := range victims {
		c.Invalidate(b)
	}
}

// Stats returns cumulative hit, miss and write-back counts.
func (c *Cache) Stats() (hits, misses, writebacks int64) {
	return c.hits, c.misses, c.writebacks
}

// BindMetrics registers the cache's lifetime counters in reg under a
// cache="name" label, as func-backed metrics resolved at snapshot time
// — the hot path is untouched.
func (c *Cache) BindMetrics(reg *metrics.Registry, name string) {
	lbl := metrics.Label{Key: "cache", Value: name}
	reg.CounterFunc("cache_hits", func() int64 { return c.hits }, lbl)
	reg.CounterFunc("cache_misses", func() int64 { return c.misses }, lbl)
	reg.CounterFunc("cache_writebacks", func() int64 { return c.writebacks }, lbl)
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.lru.Len() }

// DirtyLen returns the number of dirty cached blocks.
func (c *Cache) DirtyLen() int {
	var n int
	for e := c.lru.Front(); e != nil; e = e.Next() {
		if e.Value.(*entry).dirty {
			n++
		}
	}
	return n
}

// Read returns the block's contents, from the cache if present,
// otherwise from disk. The returned slice is the cache's copy; callers
// must not modify it (use Write).
func (c *Cache) Read(block int64, done func(data []byte, err error)) {
	if el, ok := c.entries[block]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		c.deliverRead(el.Value.(*entry).data, done)
		return
	}
	if waiters, ok := c.inflight[block]; ok {
		c.misses++
		c.inflight[block] = append(waiters, done)
		return
	}
	c.misses++
	c.inflight[block] = append([]func([]byte, error){}, done)
	c.drv.ReadBlock(c.part, block, func(data []byte, err error) {
		waiters := c.inflight[block]
		delete(c.inflight, block)
		if err == nil {
			c.insert(block, data, false)
		}
		for _, w := range waiters {
			if w != nil {
				w(data, err)
			}
		}
	})
}

// Write updates the block in the cache and marks it dirty; the disk
// write is deferred to the update policy (or eviction). done fires once
// the block is in the cache — not when it reaches disk. The cache takes
// a private copy of data; callers that can hand their buffer over
// should use WriteOwned instead.
func (c *Cache) Write(block int64, data []byte, done func(err error)) {
	if len(data) != c.drv.BlockSize().Bytes() {
		c.eng.After(0, func() {
			if done != nil {
				done(fmt.Errorf("cache: write of %d bytes, block size is %d",
					len(data), c.drv.BlockSize().Bytes()))
			}
		})
		return
	}
	c.WriteOwned(block, append([]byte(nil), data...), done)
}

// WriteOwned is Write with ownership transfer: the cache installs data
// directly as its copy of the block, so the caller must not read or
// modify the buffer after the call. The file system's serialization
// paths encode every block into a fresh buffer; handing that buffer
// over skips Write's defensive copy of every written block.
func (c *Cache) WriteOwned(block int64, data []byte, done func(err error)) {
	if len(data) != c.drv.BlockSize().Bytes() {
		c.eng.After(0, func() {
			if done != nil {
				done(fmt.Errorf("cache: write of %d bytes, block size is %d",
					len(data), c.drv.BlockSize().Bytes()))
			}
		})
		return
	}
	if el, ok := c.entries[block]; ok {
		e := el.Value.(*entry)
		e.data = data
		e.dirty = true
		c.lru.MoveToFront(el)
	} else {
		c.insert(block, data, true)
	}
	c.deliverWrite(done)
}

// Touch marks a resident block dirty exactly as WriteOwned of its
// current contents would: same dirty state, LRU order, write-back and
// completion event, but without a new buffer. It returns false, doing
// nothing, when the block is not resident; the caller then has to
// supply the contents through WriteOwned. The file system uses it for
// access-time updates, which change no byte of the inode encoding.
func (c *Cache) Touch(block int64, done func(err error)) bool {
	el, ok := c.entries[block]
	if !ok {
		return false
	}
	el.Value.(*entry).dirty = true
	c.lru.MoveToFront(el)
	c.deliverWrite(done)
	return true
}

// Peek returns the cached contents of a resident block without counting
// a hit or changing the LRU order, for invariant checks. The slice is
// the cache's copy and must not be modified.
func (c *Cache) Peek(block int64) ([]byte, bool) {
	el, ok := c.entries[block]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).data, true
}

// WriteThrough updates the block in the cache (kept clean) and writes it
// to disk immediately; done fires when the disk write completes. NFS2
// servers wrote client data synchronously, so the users-workload
// experiments use this path for file data. The cache takes a private
// copy of data; see WriteThroughOwned for the ownership-transfer
// variant.
func (c *Cache) WriteThrough(block int64, data []byte, done func(err error)) {
	if len(data) != c.drv.BlockSize().Bytes() {
		c.eng.After(0, func() {
			if done != nil {
				done(fmt.Errorf("cache: write of %d bytes, block size is %d",
					len(data), c.drv.BlockSize().Bytes()))
			}
		})
		return
	}
	c.WriteThroughOwned(block, append([]byte(nil), data...), done)
}

// WriteThroughOwned is WriteThrough with ownership transfer: data
// becomes the cache's copy of the block (and is handed to the driver
// for the synchronous disk write), so the caller must not read or
// modify the buffer after the call.
func (c *Cache) WriteThroughOwned(block int64, data []byte, done func(err error)) {
	if len(data) != c.drv.BlockSize().Bytes() {
		c.eng.After(0, func() {
			if done != nil {
				done(fmt.Errorf("cache: write of %d bytes, block size is %d",
					len(data), c.drv.BlockSize().Bytes()))
			}
		})
		return
	}
	if el, ok := c.entries[block]; ok {
		e := el.Value.(*entry)
		e.data = data
		e.dirty = false
		c.lru.MoveToFront(el)
	} else {
		c.insert(block, data, false)
	}
	c.writebacks++
	c.drv.WriteBlock(c.part, block, data, func(_ []byte, err error) {
		if done != nil {
			done(err)
		}
	})
}

// insert adds a block to the cache, evicting (and writing back) as
// needed.
func (c *Cache) insert(block int64, data []byte, dirty bool) {
	if el, ok := c.entries[block]; ok {
		e := el.Value.(*entry)
		e.data = data
		e.dirty = e.dirty || dirty
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cfg.CapacityBlocks {
		c.evictOne()
	}
	el := c.lru.PushFront(&entry{block: block, data: data, dirty: dirty})
	c.entries[block] = el
}

// evictOne removes the least recently used block, writing it back first
// if dirty. The write-back is asynchronous; the cache slot is released
// immediately (the data lives on in the driver's request).
func (c *Cache) evictOne() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.block)
	if e.dirty {
		c.writebacks++
		c.drv.WriteBlock(c.part, e.block, e.data, nil)
	}
}

// Sync writes every dirty block to disk, as the update daemon does. done
// fires when all write-backs have completed.
func (c *Cache) Sync(done func(err error)) {
	var dirty []*entry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); e.dirty {
			dirty = append(dirty, e)
		}
	}
	if len(dirty) == 0 {
		c.deliverWrite(done)
		return
	}
	remaining := len(dirty)
	var firstErr error
	for _, e := range dirty {
		e := e
		e.dirty = false
		c.writebacks++
		c.drv.WriteBlock(c.part, e.block, e.data, func(_ []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(firstErr)
			}
		})
	}
}

// StartSyncDaemon begins the periodic update policy.
func (c *Cache) StartSyncDaemon() {
	if c.syncing {
		return
	}
	c.syncing = true
	c.syncSeq++
	seq := c.syncSeq
	var tick func()
	tick = func() {
		if !c.syncing || seq != c.syncSeq {
			return
		}
		c.Sync(nil)
		c.eng.After(c.cfg.SyncPeriodMS, tick)
	}
	c.eng.After(c.cfg.SyncPeriodMS, tick)
	if c.cfg.PressurePeriodMS > 0 {
		var ptick func()
		ptick = func() {
			if !c.syncing || seq != c.syncSeq {
				return
			}
			c.applyPressure()
			c.eng.After(c.cfg.PressurePeriodMS, ptick)
		}
		c.eng.After(c.cfg.PressurePeriodMS, ptick)
	}
}

// StopSyncDaemon stops the periodic update policy (dirty blocks remain
// cached until Sync or eviction).
func (c *Cache) StopSyncDaemon() {
	c.syncing = false
	c.syncSeq++
}

// Invalidate drops a block from the cache without writing it back. The
// file system uses it when freeing blocks.
func (c *Cache) Invalidate(block int64) {
	if el, ok := c.entries[block]; ok {
		c.lru.Remove(el)
		delete(c.entries, block)
	}
}
