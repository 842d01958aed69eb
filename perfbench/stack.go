package main

import (
	"fmt"
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/seek"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/volume"
	"repro/internal/workload"
)

// This file builds each workload's stack from the layers' public
// constructors and runs it: set-up (stack build, mkfs, populate), then
// the measured span. The wiring mirrors experiment.Execute and
// experiment.ExecuteVolume line for line, so the simulated results are
// the ones those harness entry points produce (bench_test.go checks
// it); owning the wiring is what lets the benchmark time set-up on its
// own and put tracing wrappers at the interfaces between layers.

// spec is one benchmark workload. A run simulates instances
// independent deployments of it, each seeded from the run's seed (see
// instanceSeed): one deployment's results hinge on a few random draws
// (which files are hottest, and their sizes), and summing over many
// keeps a run's totals and percentiles steady from seed to seed.
type spec struct {
	name      string
	instances int
	run       func(seed uint64, tr *tracer, ph *phases) (*outcome, error)
}

// Simulated spans. They are fixed, so the simulated metrics of a seed
// repeat exactly.
const (
	// diskDays alternates an off day (day 0, no counts exist yet) with
	// an on day rearranged overnight from day 0's counts.
	diskDays = 2
	// systemWindowMS and usersWindowMS are the measured windows per
	// day of the two single-disk workloads.
	systemWindowMS = 20 * 60 * 1000
	usersWindowMS  = 60 * 60 * 1000
	// poolDays and poolWindowMS size the 48-client stripe.
	poolDays     = 2
	poolWindowMS = 2 * 60 * 1000
	// Tenant traffic: rate, duration, the member-1 death point (in
	// member operations, early in the traffic), and the rebuild rate.
	tenantRate      = 40
	tenantSpanMS    = 6 * 60 * 1000
	tenantCrashOps  = 3000
	tenantRebuildPS = 2000
)

var specs = []spec{
	// The paper's Table 2 setup: read-mostly, its host cost in the fs
	// inode-block encode on every atime touch.
	{
		name:      "system-atime",
		instances: 24,
		run: func(seed uint64, tr *tracer, ph *phases) (*outcome, error) {
			return runDisk(diskParams{model: disk.Toshiba(), reserved: 48, blocks: 1018, windowMS: systemWindowMS}, seed, tr, ph)
		},
	},
	// The paper's Table 5 setup: writes beside system-atime's reads, its
	// host cost in the disk's zero-write scan.
	{
		name:      "users-write",
		instances: 16,
		run: func(seed uint64, tr *tracer, ph *phases) (*outcome, error) {
			return runDisk(diskParams{model: disk.Fujitsu(), reserved: 80, blocks: 3500, users: true, windowMS: usersWindowMS}, seed, tr, ph)
		},
	},
	// volume-scale's disks-4-rearr row: saturated spindles, noatime, the
	// largest engine share; it bypasses the atime encode.
	{
		name:      "pool-stripe4",
		instances: 32,
		run:       runPool,
	},
	// The only path through the server front end and the parity and
	// rebuild code; no fs or cache, and an open loop.
	{
		name:      "tenants-raid5",
		instances: 16,
		run:       runTenants,
	},
}

// instanceSeed is the workload seed of instance k of n in a run with
// the given seed: seed 1 covers workload seeds 1..n, seed 2 the next n,
// and so on, so different run seeds never share an instance.
func instanceSeed(seed uint64, n, k int) uint64 {
	return (seed-1)*uint64(n) + uint64(k) + 1
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// outcome is one simulation's simulated results, plus the per-layer
// values a traced run adds.
type outcome struct {
	// attempted and failed count jobs (client operations): failed are
	// those that failed or were refused. jobMS holds the latencies of
	// the completed ones.
	attempted, failed int64
	jobMS             *metrics.Histogram
	simSeconds        float64
	// schedDist and fcfsDist merge every member's seek distances over
	// the measured span; curve turns them into seek times.
	schedDist, fcfsDist *stats.DistHist
	curve               seek.Curve
	// problems lists failed correctness checks.
	problems []string
	// digest fingerprints every simulated statistic of the run.
	digest string
	// runEvents counts the engine events of the measured span.
	runEvents int64
	// The raw results experiment.Execute and ExecuteVolume also
	// report, kept for the self-tests' comparison: driver statistics
	// per day (single disk), the volume's statistics summed over days,
	// blocks installed per rearrangement, and workload errors.
	days      []*driver.Stats
	vol       volume.Stats
	installed []int
	errors    int64
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// clock is what await drives: a rig's engine or a volume.
type clock interface {
	RunUntil(t float64)
	Now() float64
}

// await drives the simulation until an asynchronous operation signals
// completion, extending the horizon in bounded steps as the harness's
// await does.
func await(c clock, what string, horizon float64, op func(done func(error))) error {
	var opErr error
	finished := false
	op(func(err error) {
		opErr = err
		finished = true
	})
	c.RunUntil(horizon)
	for ext := 0; !finished && ext < 200; ext++ {
		c.RunUntil(c.Now() + 10*60*1000)
	}
	if !finished {
		return fmt.Errorf("%s did not complete by t=%.0f ms", what, c.Now())
	}
	return opErr
}

// newRegistry returns the metrics registry a run binds. The latency
// histograms the benchmark reads percentiles from are registered
// first, at the finest sub-bucketing (≤0.4% quantile error): the
// layers' BindMetrics then reuse them instead of creating their
// default 3%-resolution ones. Recording cost is the same.
func newRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	fine := metrics.HistogramOpts{SubBits: 8}
	reg.Histogram("workload_job_ms", fine)
	reg.Histogram("fs_read_ms", fine)
	reg.Histogram("volume_resp_ms", fine)
	for _, c := range server.DefaultClasses() {
		reg.Histogram("server_req_ms", fine, metrics.Label{Key: "class", Value: c.Name})
	}
	return reg
}

type diskParams struct {
	model    disk.Model
	reserved int
	blocks   int
	users    bool // the users workload; else the system workload
	windowMS float64
}

// runDisk is experiment.Execute's stack for one disk, file system and
// workload, with rearrangement on alternate days.
func runDisk(p diskParams, seed uint64, tr *tracer, ph *phases) (*outcome, error) {
	ph.begin()
	var sch sched.Scheduler = sched.NewSCAN()
	if tr != nil {
		sch = tr.wrapSched(sch)
	}
	r, err := rig.New(rig.Options{Disk: p.model, ReservedCyls: p.reserved, Sched: sch})
	if err != nil {
		return nil, err
	}
	dev := tr.wrapDevice(r.Eng, r.Driver)
	fsys, err := fs.Newfs(r.Eng, dev, 0, fs.Params{
		SyncData: p.users,
		Cache: cache.Config{
			CapacityBlocks:   512,
			PressurePeriodMS: 60_000,
			PressureFrac:     0.10,
			Seed:             seed,
		},
		MetaCache: cache.Config{CapacityBlocks: 512, SyncPeriodMS: 5_000},
	})
	if err != nil {
		return nil, err
	}
	r.Eng.Run() // format completes before any daemon exists

	var w interface {
		workload.Workload
		Errors() int64
		BindMetrics(*metrics.Registry)
	}
	if p.users {
		w = workload.NewUsers(r.Eng, fsys, workload.UsersConfig{Users: 20, WindowMS: p.windowMS, Seed: seed})
	} else {
		w = workload.NewSystem(r.Eng, fsys, workload.SystemConfig{WindowMS: p.windowMS, Seed: seed})
	}
	rear, err := core.New(r.Eng, r.Driver, core.Config{Policy: core.OrganPipe{}, MaxBlocks: p.blocks})
	if err != nil {
		return nil, err
	}
	if err := tr.phase(r.Eng, "workload.populate", func() error {
		return await(r.Eng, "populate", workload.DayStartMS, w.Populate)
	}); err != nil {
		return nil, err
	}
	reg := newRegistry()
	r.Driver.BindMetrics(reg)
	fsys.BindMetrics(reg)
	w.BindMetrics(reg)
	ph.setupDone()
	events0 := r.Eng.Dispatched()

	o := &outcome{curve: p.model.Seek, schedDist: stats.NewDistHist(), fcfsDist: stats.NewDistHist()}
	dg := newDigester()
	var dstats []*driver.Stats
	var installed []int
	for day := 0; day < diskDays; day++ {
		dayStart := float64(day)*workload.DayMS + workload.DayStartMS
		r.Eng.RunUntil(dayStart)
		r.Driver.ReadStats() // discard overnight / populate traffic
		rear.StartMonitoring()
		if err := tr.phase(r.Eng, "workload.day", func() error {
			return await(r.Eng, fmt.Sprintf("day %d", day), dayStart+p.windowMS+30*60*1000,
				func(done func(error)) { w.RunDay(day, done) })
		}); err != nil {
			return nil, err
		}
		rear.StopMonitoring()
		st := r.Driver.ReadStats()
		dstats = append(dstats, st)
		// Overnight: rearrange for an on day, clean for an off day.
		if day+1 < diskDays {
			n, err := overnight(tr, r.Eng, rear, (day+1)%2 == 1)
			if err != nil {
				return nil, err
			}
			installed = append(installed, n)
		}
		rear.ResetCounts()
	}
	ph.runDone()
	o.runEvents = r.Eng.Dispatched() - events0

	for _, st := range dstats {
		all := st.All()
		o.schedDist.Merge(all.SchedDist)
		o.fcfsDist.Merge(all.FCFSDist)
		dg.driverStats(st)
	}
	o.jobMS = reg.Histogram("workload_job_ms", metrics.HistogramOpts{})
	o.attempted = o.jobMS.Count()
	o.failed = w.Errors()
	o.simSeconds = float64(diskDays) * p.windowMS / 1000
	o.days, o.installed, o.errors = dstats, installed, w.Errors()
	o.checkf(w.Errors() == 0, "workload errors: %d", w.Errors())
	o.checkf(o.attempted > 0, "no jobs completed")
	dg.add("installed", installed)
	dg.add("errors", w.Errors())
	dg.add("counters", r.Driver.Counters())
	dg.add("events", r.Eng.Dispatched())
	dg.add("now", r.Eng.Now())
	dg.hist("workload_job_ms", o.jobMS)
	o.digest = dg.sum()
	if tr != nil {
		tr.readDisk(o, reg, []*driver.Driver{r.Driver}, dstats, fsys, w.Errors())
		tr.sum["sim.events"] += float64(r.Eng.Dispatched())
	}
	return o, nil
}

// overnight runs the nightly rearrangement (on) or clean (off) and
// returns the blocks installed.
func overnight(tr *tracer, c clock, rear *core.Rearranger, on bool) (int, error) {
	var installed int
	err := tr.phase(c, "core.rearrange", func() error {
		return await(c, "overnight", c.Now()+2*workload.HourMS, func(done func(error)) {
			if !on {
				rear.CleanOnly(done)
				return
			}
			rear.Rearrange(func(n int, err error) {
				installed = n
				done(err)
			})
		})
	})
	if tr != nil {
		tr.sum["core.installed"] += float64(installed)
	}
	return installed, err
}

// runPool is experiment.ExecuteVolume's disks-4-rearr row: the system
// workload's 48 heavy clients over a 4-disk stripe, each member
// rearranged overnight from its own counts.
func runPool(seed uint64, tr *tracer, ph *phases) (*outcome, error) {
	ph.begin()
	opts := volume.Options{Layout: volume.Stripe, Disks: 4, StripeUnit: 16, ReservedCyls: 48}
	if tr != nil {
		opts.Sched = tr.wrapSched(nil)
	}
	v, err := volume.New(opts)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	dev := tr.wrapDevice(v.Eng, v)
	fsys, err := fs.Newfs(v.Eng, dev, 0, fs.Params{
		NoAtime: true,
		Cache: cache.Config{
			CapacityBlocks:   128,
			PressurePeriodMS: 60_000,
			PressureFrac:     0.10,
			Seed:             seed,
		},
		MetaCache: cache.Config{CapacityBlocks: 256, SyncPeriodMS: 5_000},
	})
	if err != nil {
		return nil, err
	}
	v.Run()
	v.StartScrub()
	w := workload.NewSystem(v.Eng, fsys, workload.SystemConfig{
		Clients: 48, ThinkMeanMS: 250, WindowMS: poolWindowMS, Seed: seed,
	})
	var rears []*core.Rearranger
	for i, m := range v.Members {
		rear, err := core.New(v.Eng, m.Driver, core.Config{MaxBlocks: 1018})
		if err != nil {
			return nil, fmt.Errorf("member %d rearranger: %w", i, err)
		}
		rears = append(rears, rear)
	}
	if err := tr.phase(v, "workload.populate", func() error {
		return await(v, "populate", workload.DayStartMS, w.Populate)
	}); err != nil {
		return nil, err
	}
	reg := newRegistry()
	v.BindMetrics(reg)
	fsys.BindMetrics(reg)
	w.BindMetrics(reg)
	drivers := memberDrivers(v)
	for i, d := range drivers {
		d.BindMetrics(reg, metrics.Label{Key: "disk", Value: strconv.Itoa(i)})
	}
	ph.setupDone()
	events0 := v.Dispatched()

	o := &outcome{curve: disk.Toshiba().Seek, schedDist: stats.NewDistHist(), fcfsDist: stats.NewDistHist()}
	dg := newDigester()
	var dstats []*driver.Stats
	var vst volume.Stats
	var installed []int
	for day := 0; day < poolDays; day++ {
		dayStart := float64(day)*workload.DayMS + workload.DayStartMS
		v.RunUntil(dayStart)
		v.ResetStats()
		for _, d := range drivers {
			d.ReadStats()
		}
		for _, rear := range rears {
			rear.StartMonitoring()
		}
		if err := tr.phase(v, "workload.day", func() error {
			return await(v, fmt.Sprintf("day %d", day), dayStart+poolWindowMS+30*60*1000,
				func(done func(error)) { w.RunDay(day, done) })
		}); err != nil {
			return nil, err
		}
		for _, rear := range rears {
			rear.StopMonitoring()
		}
		for _, d := range drivers {
			dstats = append(dstats, d.ReadStats())
		}
		st := v.Stats()
		addVolumeStats(&vst, st)
		dg.add("volume", st)
		if day+1 < poolDays {
			for _, rear := range rears {
				n, err := overnight(tr, v, rear, true)
				if err != nil {
					return nil, err
				}
				installed = append(installed, n)
			}
		}
		for _, rear := range rears {
			rear.ResetCounts()
		}
	}
	ph.runDone()
	o.runEvents = v.Dispatched() - events0

	for _, st := range dstats {
		all := st.All()
		o.schedDist.Merge(all.SchedDist)
		o.fcfsDist.Merge(all.FCFSDist)
		dg.driverStats(st)
	}
	o.jobMS = reg.Histogram("workload_job_ms", metrics.HistogramOpts{})
	o.attempted = o.jobMS.Count()
	o.failed = w.Errors()
	o.simSeconds = float64(poolDays) * poolWindowMS / 1000
	o.vol, o.installed, o.errors = vst, installed, w.Errors()
	o.checkf(w.Errors() == 0, "workload errors: %d", w.Errors())
	o.checkf(o.attempted > 0, "no jobs completed")
	dg.add("installed", installed)
	dg.add("errors", w.Errors())
	dg.add("events", v.Dispatched())
	dg.add("now", v.Now())
	dg.hist("workload_job_ms", o.jobMS)
	o.digest = dg.sum()
	if tr != nil {
		tr.readDisk(o, reg, drivers, dstats, fsys, w.Errors())
		tr.readVolume(reg, v, vst, opts.Disks)
		tr.sum["sim.events"] += float64(v.Dispatched())
	}
	return o, nil
}

// runTenants drives open-loop tenants through the server front end
// into RAID-5 over four Toshiba members plus a hot spare. Member 1
// dies part-way; the array serves degraded reads and rebuilds onto
// the spare while traffic continues.
func runTenants(seed uint64, tr *tracer, ph *phases) (*outcome, error) {
	ph.begin()
	plans := make([]*fault.Plan, 5)
	plans[1] = &fault.Plan{Seed: 7, CrashAfterOps: tenantCrashOps}
	opts := volume.Options{
		Layout: volume.RAID5, Disks: 4, StripeUnit: 16, Spare: 1,
		RebuildRate: tenantRebuildPS, ReservedCyls: 48, Faults: plans,
	}
	if tr != nil {
		opts.Sched = tr.wrapSched(nil)
	}
	v, err := volume.New(opts)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	v.Run()
	srv, err := server.New(v.Eng, v, server.Config{Tenants: 100_000})
	if err != nil {
		return nil, err
	}
	var front workload.BlockServer = srv
	if tr != nil {
		front = tr.wrapServer(v.Eng, srv)
	}
	w, err := workload.NewTenants(v.Eng, front, v.Blocks(), workload.TenantConfig{
		Tenants: 100_000, Classes: 3, RatePerSec: tenantRate, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	reg := newRegistry()
	srv.BindMetrics(reg)
	v.BindMetrics(reg)
	drivers := memberDrivers(v)
	for i, d := range drivers {
		d.BindMetrics(reg, metrics.Label{Key: "disk", Value: strconv.Itoa(i)})
		d.ReadStats() // discard formatting
	}
	ph.setupDone()
	events0 := v.Dispatched()

	start := workload.DayStartMS
	end := start + tenantSpanMS
	if err := tr.phase(v, "workload.run", func() error {
		return await(v, "tenant traffic", end+60_000, func(done func(error)) { w.Run(start, end, done) })
	}); err != nil {
		return nil, err
	}
	ph.runDone()

	o := &outcome{curve: disk.Toshiba().Seek, schedDist: stats.NewDistHist(), fcfsDist: stats.NewDistHist()}
	o.runEvents = v.Dispatched() - events0
	dg := newDigester()
	var dstats []*driver.Stats
	for _, d := range drivers {
		st := d.ReadStats()
		dstats = append(dstats, st)
		all := st.All()
		o.schedDist.Merge(all.SchedDist)
		o.fcfsDist.Merge(all.FCFSDist)
		dg.driverStats(st)
	}
	o.jobMS = metrics.NewHistogram(metrics.HistogramOpts{SubBits: 8})
	for _, c := range server.DefaultClasses() {
		h := reg.Histogram("server_req_ms", metrics.HistogramOpts{}, metrics.Label{Key: "class", Value: c.Name})
		if err := o.jobMS.Merge(h); err != nil {
			return nil, err
		}
	}
	cnt := srv.Counters()
	o.attempted = w.Issued()
	o.failed = w.Failed()
	o.simSeconds = tenantSpanMS / 1000
	o.checkf(w.Responded() == w.Issued(), "tenants: %d issued, %d answered", w.Issued(), w.Responded())
	o.checkf(cnt.Submitted == w.Issued(), "server saw %d submissions, tenants issued %d", cnt.Submitted, w.Issued())
	o.checkf(cnt.Accepted+cnt.Throttled+cnt.Overloaded+cnt.BreakerRejects == cnt.Submitted,
		"server admission does not add up: %+v", cnt)
	o.checkf(cnt.Completed+cnt.Failed+cnt.Expired+cnt.DeadlineMiss == cnt.Accepted,
		"server outcomes do not add up: %+v", cnt)
	o.checkf(cnt.Completed == w.Issued()-w.Failed(), "server completed %d, tenants saw %d succeed",
		cnt.Completed, w.Issued()-w.Failed())
	o.checkf(o.jobMS.Count() == cnt.Accepted, "%d latency samples for %d admitted requests", o.jobMS.Count(), cnt.Accepted)
	o.checkf(v.DeadMembers() >= 1, "member 1 did not die")
	dg.add("server", cnt)
	dg.add("breaker", srv.Breaker().Counts())
	dg.add("tenants", []int64{w.Issued(), w.Responded(), w.Failed()})
	dg.add("volume", v.Stats())
	dg.add("raid", v.RAID())
	dg.add("events", v.Dispatched())
	dg.add("now", v.Now())
	dg.hist("server_req_ms", o.jobMS)
	o.digest = dg.sum()
	if tr != nil {
		tr.readDisk(o, reg, drivers, dstats, nil, 0)
		tr.readVolume(reg, v, v.Stats(), opts.Disks)
		tr.readServer(cnt, srv.Breaker().Counts())
		tr.sum["sim.events"] += float64(v.Dispatched())
	}
	return o, nil
}

func memberDrivers(v *volume.Volume) []*driver.Driver {
	out := make([]*driver.Driver, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.Driver
	}
	return out
}

func addVolumeStats(acc *volume.Stats, st volume.Stats) {
	acc.Requests += st.Requests
	acc.Reads += st.Reads
	acc.Writes += st.Writes
	acc.RespMSSum += st.RespMSSum
	acc.Errors += st.Errors
	acc.Degraded += st.Degraded
	if len(acc.PerDisk) < len(st.PerDisk) {
		acc.PerDisk = append(acc.PerDisk, make([]int64, len(st.PerDisk)-len(acc.PerDisk))...)
	}
	for i, n := range st.PerDisk {
		acc.PerDisk[i] += n
	}
}
