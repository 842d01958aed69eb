package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/driver"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/seek"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file is the traced run's instrumentation, measured from outside
// each layer: wrappers at the public interfaces between layers
// (driver.BlockDevice under fs and cache, sched.Scheduler in the rig
// and volume options, workload.BlockServer between tenants and the
// server) and around the benchmark's own calls to Populate, RunDay and
// Rearrange/CleanOnly. Each records a count, the host nanoseconds spent
// inside the call, and the simulated milliseconds from the call to its
// done callback. After the run the layers' public stats accessors are
// read. Nothing here changes what the simulation does: the traced
// run's digest must equal the untraced one's.

// maxSpans caps the spans kept per boundary, so a traced run's memory
// stays bounded; counts and timings cover every call regardless.
const maxSpans = 20_000

// span is one call across a layer boundary. Per-call spans name the
// phase span (populate, day, rearrangement) that was running as their
// parent.
type span struct {
	ID         int64   `json:"id"`
	Parent     int64   `json:"parent,omitempty"`
	Name       string  `json:"name"`
	HostStart  int64   `json:"host_start_ns"`
	HostEnd    int64   `json:"host_end_ns"`
	SimStartMS float64 `json:"sim_start_ms"`
	SimEndMS   float64 `json:"sim_end_ms"`
}

// boundary accumulates the calls across one interface.
type boundary struct {
	calls  int64
	hostNS int64
	simMS  *metrics.Histogram
	spans  int
}

func newBoundary() *boundary {
	return &boundary{simMS: metrics.NewHistogram(metrics.HistogramOpts{SubBits: 8})}
}

// tracer instruments every simulation of one traced run and
// accumulates across them.
type tracer struct {
	origin time.Time
	spans  []span
	phase0 int64 // the running phase span, parent of per-call spans
	dev    *boundary
	srv    *boundary
	// Scheduler picks, pending requests seen, host ns inside Pick.
	picks, pending, pickNS int64
	// sum holds raw per-layer sums; the histograms and seek
	// distribution merge every simulation's.
	sum             map[string]float64
	fsRead, volResp *metrics.Histogram
	seekDist        *stats.DistHist
	curve           seek.Curve
}

func newTracer() *tracer {
	fine := metrics.HistogramOpts{SubBits: 8}
	return &tracer{
		origin:   time.Now(),
		dev:      newBoundary(),
		srv:      newBoundary(),
		sum:      map[string]float64{},
		fsRead:   metrics.NewHistogram(fine),
		volResp:  metrics.NewHistogram(fine),
		seekDist: stats.NewDistHist(),
	}
}

func (t *tracer) hostNS() int64 { return time.Since(t.origin).Nanoseconds() }

// open starts a span and returns its index, or -1 once the boundary's
// span budget is spent.
func (t *tracer) open(b *boundary, name string, simMS float64) int {
	if b != nil {
		if b.spans >= maxSpans {
			return -1
		}
		b.spans++
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: t.phase0, Name: name,
		HostStart: t.hostNS(), SimStartMS: simMS,
	})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, simMS float64) {
	if i < 0 {
		return
	}
	t.spans[i].HostEnd = t.hostNS()
	t.spans[i].SimEndMS = simMS
}

// phase runs one of the benchmark's own calls into a layer as a span,
// accumulating its host seconds and simulated milliseconds under
// name. A nil tracer just runs fn.
func (t *tracer) phase(c clock, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	i := t.open(nil, name, c.Now())
	t.phase0 = t.spans[i].ID
	start, sim0 := time.Now(), c.Now()
	err := fn()
	t.sum[name+".host_s"] += time.Since(start).Seconds()
	t.sum[name+".sim_ms"] += c.Now() - sim0
	t.close(i, c.Now())
	t.phase0 = 0
	return err
}

// timed wraps one asynchronous call across boundary b: host time
// inside the call, simulated time from the call to done.
func (t *tracer) timed(b *boundary, name string, eng *sim.Engine, done driver.DoneFunc, call func(driver.DoneFunc)) {
	start, issued := time.Now(), eng.Now()
	i := t.open(b, name, issued)
	call(func(data []byte, err error) {
		b.simMS.Record(eng.Now() - issued)
		t.close(i, eng.Now())
		if done != nil {
			done(data, err)
		}
	})
	b.calls++
	b.hostNS += time.Since(start).Nanoseconds()
}

// wrapDevice returns dev wrapped at the driver.BlockDevice boundary
// the file system and its caches call through; with a nil tracer it
// returns dev itself.
func (t *tracer) wrapDevice(eng *sim.Engine, dev driver.BlockDevice) driver.BlockDevice {
	if t == nil {
		return dev
	}
	return &tracedDevice{BlockDevice: dev, eng: eng, t: t}
}

type tracedDevice struct {
	driver.BlockDevice
	eng *sim.Engine
	t   *tracer
}

func (d *tracedDevice) ReadBlock(part int, blk int64, done driver.DoneFunc) {
	d.t.timed(d.t.dev, "fs.dev.read", d.eng, done, func(cb driver.DoneFunc) {
		d.BlockDevice.ReadBlock(part, blk, cb)
	})
}

func (d *tracedDevice) WriteBlock(part int, blk int64, data []byte, done driver.DoneFunc) {
	d.t.timed(d.t.dev, "fs.dev.write", d.eng, done, func(cb driver.DoneFunc) {
		d.BlockDevice.WriteBlock(part, blk, data, cb)
	})
}

// wrapServer wraps the workload.BlockServer boundary tenants call.
func (t *tracer) wrapServer(eng *sim.Engine, srv workload.BlockServer) workload.BlockServer {
	return &tracedServer{srv: srv, eng: eng, t: t}
}

type tracedServer struct {
	srv workload.BlockServer
	eng *sim.Engine
	t   *tracer
}

func (s *tracedServer) Read(tenant, class int, blk int64, done driver.DoneFunc) {
	s.t.timed(s.t.srv, "server.read", s.eng, done, func(cb driver.DoneFunc) {
		s.srv.Read(tenant, class, blk, cb)
	})
}

func (s *tracedServer) Write(tenant, class int, blk int64, done driver.DoneFunc) {
	s.t.timed(s.t.srv, "server.write", s.eng, done, func(cb driver.DoneFunc) {
		s.srv.Write(tenant, class, blk, cb)
	})
}

// wrapSched returns the scheduler to pass in rig or volume options.
// With inner set it wraps that one policy (a rig has one queue). With
// inner nil it serves a volume: volume.Options.Sched hands one
// instance to every member driver, but SCAN keeps its sweep direction
// per queue, so the tap keeps a private SCAN per member — exactly what
// each member gets when the option is left nil — and routes each pick
// by the driver that owns the pending requests.
func (t *tracer) wrapSched(inner sched.Scheduler) sched.Scheduler {
	return &schedTap{t: t, single: inner, per: map[uintptr]sched.Scheduler{}}
}

type schedTap struct {
	t       *tracer
	single  sched.Scheduler
	per     map[uintptr]sched.Scheduler
	ownerIx []int // field path of a request's owning driver
}

func (s *schedTap) Name() string { return "scan" }

func (s *schedTap) Pick(headCyl int, pending []sched.Cylindered) int {
	inner := s.single
	if inner == nil {
		inner = s.member(pending[0])
	}
	start := time.Now()
	i := inner.Pick(headCyl, pending)
	s.t.pickNS += time.Since(start).Nanoseconds()
	s.t.picks++
	s.t.pending += int64(len(pending))
	return i
}

// member returns the SCAN instance of the driver that queued r. The
// driver's queued requests carry no exported owner, so the owner
// pointer is read by reflection; a driver refactor that renames the
// field fails here loudly rather than mixing queues.
func (s *schedTap) member(r sched.Cylindered) sched.Scheduler {
	v := reflect.ValueOf(r).Elem()
	if s.ownerIx == nil {
		f, ok := v.Type().FieldByName("d")
		if !ok || f.Type != reflect.TypeOf((*driver.Driver)(nil)) {
			panic(fmt.Sprintf("perfbench: %s has no owning-driver field", v.Type()))
		}
		s.ownerIx = f.Index
	}
	owner := v.FieldByIndex(s.ownerIx).Pointer()
	sc, ok := s.per[owner]
	if !ok {
		sc = sched.NewSCAN()
		s.per[owner] = sc
	}
	return sc
}

// The read functions below run after each simulation and add that
// simulation's raw sums to t.sum (and its latency histograms to the
// tracer's); layers derives the reported means, ratios and
// percentiles over every simulation of the run.

// readDisk reads the driver, file-system, cache and workload layers.
// dstats are the driver statistics of the measured span (one per
// member and day); fsys is nil on a stack without a file system.
func (t *tracer) readDisk(o *outcome, reg *metrics.Registry, drivers []*driver.Driver, dstats []*driver.Stats, fsys *fs.FS, errors int64) {
	add := func(name string, v float64) { t.sum[name] += v }
	for _, st := range dstats {
		all := st.All()
		add("driver.requests", float64(all.Count()))
		add("driver.reads", float64(st.ReadSide.Count()))
		add("driver.queue_ms", all.Queueing.SumMS())
		add("driver.service_ms", all.Service.SumMS())
		add("driver.redirected", float64(all.Redirected))
		add("driver.buffer_hits", float64(all.BufferHits))
	}
	for _, d := range drivers {
		add("driver.internal_io", float64(d.Counters().InternalIO))
	}
	t.seekDist.Merge(o.schedDist)
	t.curve = o.curve
	if fsys != nil {
		t.merge(t.fsRead, reg.Histogram("fs_read_ms", metrics.HistogramOpts{}))
		h, m, wb := fsys.Cache().Stats()
		mh, mm, mwb := fsys.MetaCache().Stats()
		add("cache.data.hits", float64(h))
		add("cache.data.lookups", float64(h+m))
		add("cache.meta.hits", float64(mh))
		add("cache.meta.lookups", float64(mh+mm))
		add("cache.writebacks", float64(wb+mwb))
	}
	add("workload.jobs", float64(o.attempted))
	add("workload.errors", float64(errors))
}

// readVolume reads the volume layer: acc is its request statistics
// over the measured span, disks its data-member count.
func (t *tracer) readVolume(reg *metrics.Registry, v *volume.Volume, acc volume.Stats, disks int) {
	t.sum["volume.requests"] += float64(acc.Requests)
	t.merge(t.volResp, reg.Histogram("volume_resp_ms", metrics.HistogramOpts{}))
	// Skew over the data members: the busiest one's operations against
	// the mean. Spares idle until a rebuild and would dilute the mean.
	var sum, peak float64
	for _, n := range acc.PerDisk[:disks] {
		sum += float64(n)
		peak = max(peak, float64(n))
	}
	t.sum["volume.skew_sum"] += ratio(peak, sum/float64(disks))
	t.sum["volume.stacks"]++
	ra := v.RAID()
	t.sum["volume.degraded_reads"] += float64(ra.DegradedReads)
	t.sum["volume.parity_recomputes"] += float64(ra.ParityRecomputes)
	t.sum["volume.rebuilt_blocks"] += float64(ra.RebuiltBlocks)
}

// readServer reads the server front end's counters.
func (t *tracer) readServer(c server.Counters, b server.BreakerCounts) {
	t.sum["server.throttled"] += float64(c.Throttled)
	t.sum["server.overloaded"] += float64(c.Overloaded)
	t.sum["server.deadline_miss"] += float64(c.DeadlineMiss)
	t.sum["server.retries"] += float64(c.Retries)
	t.sum["server.breaker_opened"] += float64(b.Opened)
}

func (t *tracer) merge(dst, src *metrics.Histogram) {
	if err := dst.Merge(src); err != nil {
		panic(err) // both are registered by newRegistry with one layout
	}
}

// layers derives the per-layer metrics from the run's sums. Counts and
// host seconds are totals over the run's simulations; means, ratios
// and percentiles are over all of their requests.
func (t *tracer) layers() map[string]float64 {
	s := t.sum
	l := map[string]float64{
		"sim.events":               s["sim.events"],
		"fs.dev_calls":             float64(t.dev.calls),
		"fs.dev_call_ns":           ratio(float64(t.dev.hostNS), float64(t.dev.calls)),
		"fs.dev_sim_ms_p99":        t.dev.simMS.Quantile(0.99),
		"fs.read_ms_p99":           t.fsRead.Quantile(0.99),
		"cache.data.hit_ratio":     ratio(s["cache.data.hits"], s["cache.data.lookups"]),
		"cache.meta.hit_ratio":     ratio(s["cache.meta.hits"], s["cache.meta.lookups"]),
		"cache.writebacks":         s["cache.writebacks"],
		"driver.requests":          s["driver.requests"],
		"driver.queue_ms_mean":     ratio(s["driver.queue_ms"], s["driver.requests"]),
		"driver.service_ms_mean":   ratio(s["driver.service_ms"], s["driver.requests"]),
		"driver.seek_ms_mean":      t.seekDist.MeanSeekMS(t.curve),
		"driver.redirected_frac":   ratio(s["driver.redirected"], s["driver.requests"]),
		"driver.buffer_hit_frac":   ratio(s["driver.buffer_hits"], s["driver.reads"]),
		"driver.internal_io":       s["driver.internal_io"],
		"sched.picks":              float64(t.picks),
		"sched.pick_ns":            ratio(float64(t.pickNS), float64(t.picks)),
		"sched.pending_mean":       ratio(float64(t.pending), float64(t.picks)),
		"core.rearrange_host_s":    s["core.rearrange.host_s"],
		"core.rearrange_sim_ms":    s["core.rearrange.sim_ms"],
		"core.installed":           s["core.installed"],
		"workload.jobs":            s["workload.jobs"],
		"workload.errors":          s["workload.errors"],
		"workload.populate.host_s": s["workload.populate.host_s"],
		"workload.populate.sim_ms": s["workload.populate.sim_ms"],
		"volume.requests":          s["volume.requests"],
		"volume.resp_ms_p99":       t.volResp.Quantile(0.99),
		"volume.member_skew":       ratio(s["volume.skew_sum"], s["volume.stacks"]),
		"volume.degraded_reads":    s["volume.degraded_reads"],
		"volume.parity_recomputes": s["volume.parity_recomputes"],
		"volume.rebuilt_blocks":    s["volume.rebuilt_blocks"],
		"server.calls":             float64(t.srv.calls),
		"server.call_ns":           ratio(float64(t.srv.hostNS), float64(t.srv.calls)),
		"server.sim_ms_p99":        t.srv.simMS.Quantile(0.99),
		"server.throttled":         s["server.throttled"],
		"server.overloaded":        s["server.overloaded"],
		"server.deadline_miss":     s["server.deadline_miss"],
		"server.retries":           s["server.retries"],
		"server.breaker_opened":    s["server.breaker_opened"],
	}
	return l
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
