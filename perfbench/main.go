// Command perfbench is the repository's benchmark: it runs one of four
// workloads through the full simulation stack and reports host-clock
// and simulated-clock end-to-end metrics, or, with --trace 1, per-layer
// metrics from a separately traced run. See README.md for the metrics,
// the workloads and how to run it.
//
// Usage:
//
//	perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run, or all: "+strings.Join(specNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed (0 selects 1, the program default)")
	seconds := flag.Float64("seconds", 10, "host seconds to spend measuring")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	out := flag.String("out", defaultOut(), "directory for the traced run's spans and CPU profile")
	flag.Parse()
	if *seed == 0 {
		*seed = defaultSeed
	}
	// One simulation at a time, on at most two threads: results stay
	// comparable between a 2-core sandbox and a larger machine.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var run []spec
	if *name == "all" {
		run = specs
	} else if s, ok := specByName(*name); ok {
		run = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(specNames(), ", "))
		return 2
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range run {
		var r *report
		var err error
		if *trace == 1 {
			r, err = traced(s, *seed, *out)
		} else {
			r, err = endToEnd(s, *seed, *seconds/float64(len(run)))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			return 1
		}
		r.print(os.Stdout)
		final.Correct = final.Correct && len(r.problems) == 0
		final.Attempted += r.attempted
		final.Failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(run) > 1 {
				key = s.name + "/" + m.name
			}
			final.Metrics[key] = metric{Value: m.value, Unit: m.unit}
		}
	}
	if !final.Correct {
		final.Metrics = map[string]metric{} // a failed check reports no metrics
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

func defaultOut() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "perfbench")
	}
	return filepath.Join(".bench_build", "perfbench")
}

// result is the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's measurement.
type report struct {
	workload string
	seed     uint64
	batches  int // batches of instances simulated
	digest   string
	// attempted counts the jobs simulated over every batch; failed
	// counts all of them when any correctness check failed.
	attempted, failed int64
	problems          []string
	metrics           []named
}

type named struct {
	name  string
	value float64
	unit  string
	note  string // sample counts beside a percentile, run counts beside a median
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, named{name, value, unit, note})
}

func (r *report) print(w io.Writer) {
	status := "correct"
	if len(r.problems) > 0 {
		status = "FAILED: " + strings.Join(r.problems, "; ")
	}
	fmt.Fprintf(w, "%s seed=%d batches=%d digest=%s %s\n", r.workload, r.seed, r.batches, r.digest, status)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// sample is one simulation: set-up, then the measured span.
type sample struct {
	setupS, runS    float64
	allocMB, peakMB float64
	o               *outcome
}

// once runs one simulation from a collected heap, so simulations do
// not pay for each other's garbage.
func once(s spec, seed uint64, tr *tracer) (sample, error) {
	runtime.GC()
	var ph phases
	o, err := s.run(seed, tr, &ph)
	if err != nil {
		ph.abort()
		return sample{}, err
	}
	return sample{ph.setupS, ph.runS, ph.allocMB, ph.peakMB, o}, nil
}

// batch simulates every instance of a workload once, one at a time.
func batch(s spec, seed uint64, tr *tracer) ([]sample, error) {
	out := make([]sample, s.instances)
	for k := range out {
		var err error
		if out[k], err = once(s, instanceSeed(seed, s.instances, k), tr); err != nil {
			return nil, fmt.Errorf("instance %d: %w", k, err)
		}
	}
	return out, nil
}

// total merges a batch's simulated results: jobs, latencies and seek
// distances over every instance, and one digest over theirs.
func total(b []sample) *outcome {
	t := &outcome{
		jobMS:     metrics.NewHistogram(metrics.HistogramOpts{SubBits: 8}),
		schedDist: stats.NewDistHist(),
		fcfsDist:  stats.NewDistHist(),
		curve:     b[0].o.curve,
	}
	dg := newDigester()
	for k, smp := range b {
		o := smp.o
		t.attempted += o.attempted
		t.failed += o.failed
		t.simSeconds += o.simSeconds
		t.runEvents += o.runEvents
		if err := t.jobMS.Merge(o.jobMS); err != nil {
			panic(err) // every job histogram is registered with one layout
		}
		t.schedDist.Merge(o.schedDist)
		t.fcfsDist.Merge(o.fcfsDist)
		for _, p := range o.problems {
			t.problems = append(t.problems, fmt.Sprintf("instance %d: %s", k, p))
		}
		dg.add("instance", o.digest)
	}
	t.digest = dg.sum()
	return t
}

// check records a batch's correctness: every instance's own checks,
// and a digest equal to the run's first batch (the simulation is
// deterministic, traced or not).
func (r *report) check(t *outcome) {
	r.batches++
	r.attempted += t.attempted
	r.problems = append(r.problems, t.problems...)
	if r.digest == "" {
		r.digest = t.digest
	} else if t.digest != r.digest {
		r.problems = append(r.problems, fmt.Sprintf("digest %s differs from the first batch's %s", t.digest, r.digest))
	}
}

// finish checks the reference digest at the default seed and counts
// every job of a failed workload as failed.
func (r *report) finish() {
	if want := referenceDigests[r.workload]; r.seed == defaultSeed && r.digest != want {
		r.problems = append(r.problems, fmt.Sprintf("digest %s does not match the reference digest %q", r.digest, want))
	}
	if len(r.problems) > 0 {
		r.failed = r.attempted
	}
}

// endToEnd measures the end-to-end metrics. Batches repeat until the
// budget is spent (at least one); an instance's host figures are its
// medians over batches. The simulated figures are the first batch's:
// later batches must repeat them exactly.
func endToEnd(s spec, seed uint64, seconds float64) (*report, error) {
	r := &report{workload: s.name, seed: seed}
	var batches [][]sample
	var t *outcome // the first batch's totals
	start := time.Now()
	for len(batches) == 0 || time.Since(start).Seconds() < seconds {
		b, err := batch(s, seed, nil)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
		bt := total(b)
		r.check(bt)
		if t == nil {
			t = bt
		}
	}
	r.finish()
	host := func(f func(sample) float64) []float64 {
		v := make([]float64, s.instances)
		for k := range v {
			per := make([]float64, len(batches))
			for i, b := range batches {
				per[i] = f(b[k])
			}
			v[k] = medianOf(per)
		}
		return v
	}
	note := fmt.Sprintf("%d instances x %d batches", s.instances, len(batches))
	r.add("setup_s", medianOf(host(func(x sample) float64 { return x.setupS })), "s", "median set-up, "+note)
	r.add("run_s", medianOf(host(func(x sample) float64 { return x.runS })), "s", "median span, "+note)
	r.add("alloc_mb", medianOf(host(func(x sample) float64 { return x.allocMB })), "MB", "median span, "+note)
	r.add("peak_heap_mb", medianOf(host(func(x sample) float64 { return x.peakMB })), "MB", "median peak, "+note)
	// Job latency is taken per instance, then the median over
	// instances: how long one deployment's jobs take hinges on its
	// hottest files, and the median deployment is steady where a pool
	// of all jobs is swayed by the few slowest deployments.
	first := batches[0]
	perInstance := func(f func(*outcome) float64) float64 {
		v := make([]float64, len(first))
		for k, x := range first {
			v[k] = f(x.o)
		}
		return medianOf(v)
	}
	fewest, most := first[0].o.jobMS.Count(), first[0].o.jobMS.Count()
	for _, x := range first {
		fewest, most = min(fewest, x.o.jobMS.Count()), max(most, x.o.jobMS.Count())
	}
	per := fmt.Sprintf("median over %d instances of %d-%d jobs each", s.instances, fewest, most)
	r.add("job_ms_mean", perInstance(func(o *outcome) float64 { return o.jobMS.Mean() }), "ms", per)
	r.add("job_ms_p99", perInstance(func(o *outcome) float64 { return o.jobMS.Quantile(0.99) }), "ms",
		fmt.Sprintf("%s, at least %d beyond", per, fewest/100))
	n := t.jobMS.Count()
	r.add("jobs_per_sim_s", float64(n)/t.simSeconds, "1/s", fmt.Sprintf("%d jobs in %.0f simulated s", n, t.simSeconds))
	seekMS, fcfsMS := t.schedDist.MeanSeekMS(t.curve), t.fcfsDist.MeanSeekMS(t.curve)
	r.add("seek_ms_mean", seekMS, "ms", fmt.Sprintf("%d seeks", t.schedDist.Count()))
	r.add("seek_reduction_pct", 100*(1-seekMS/fcfsMS), "%", fmt.Sprintf("against %.4f ms in arrival order", fcfsMS))
	r.add("completed_frac", float64(t.attempted-t.failed)/float64(t.attempted), "ratio",
		fmt.Sprintf("%d of %d jobs", t.attempted-t.failed, t.attempted))
	return r, nil
}

// cpuLayers are the layers the traced run attributes CPU to; other
// internal packages (seek, geom, label, ...) are summed as "other".
var cpuLayers = []string{"sim", "fs", "cache", "disk", "driver", "sched", "core", "hotlist",
	"blocktable", "workload", "volume", "server", "metrics", "stats", "bench", "runtime"}

// perLayer lists the traced run's metrics and units, in report order.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"fs.dev_calls", "count"}, {"fs.dev_call_ns", "ns"}, {"fs.dev_sim_ms_p99", "ms"}, {"fs.read_ms_p99", "ms"},
	{"cache.data.hit_ratio", "ratio"}, {"cache.meta.hit_ratio", "ratio"}, {"cache.writebacks", "count"},
	{"driver.requests", "count"}, {"driver.queue_ms_mean", "ms"}, {"driver.service_ms_mean", "ms"},
	{"driver.seek_ms_mean", "ms"}, {"driver.redirected_frac", "ratio"}, {"driver.buffer_hit_frac", "ratio"},
	{"driver.internal_io", "count"},
	{"sched.picks", "count"}, {"sched.pick_ns", "ns"}, {"sched.pending_mean", "count"},
	{"core.rearrange_host_s", "s"}, {"core.rearrange_sim_ms", "ms"}, {"core.installed", "count"},
	{"workload.jobs", "count"}, {"workload.errors", "count"},
	{"workload.populate.host_s", "s"}, {"workload.populate.sim_ms", "ms"},
	{"volume.requests", "count"}, {"volume.resp_ms_p99", "ms"}, {"volume.member_skew", "ratio"},
	{"volume.degraded_reads", "count"}, {"volume.parity_recomputes", "count"}, {"volume.rebuilt_blocks", "count"},
	{"server.calls", "count"}, {"server.call_ns", "ns"}, {"server.sim_ms_p99", "ms"},
	{"server.throttled", "count"}, {"server.overloaded", "count"}, {"server.deadline_miss", "count"},
	{"server.retries", "count"}, {"server.breaker_opened", "count"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// traced measures the per-layer metrics: one untraced batch, then one
// traced batch under a CPU profile. The traced batch's simulated
// results must equal the untraced one's, which shows the wrappers are
// transparent; end-to-end metrics are never taken from it.
func traced(s spec, seed uint64, out string) (*report, error) {
	r := &report{workload: s.name, seed: seed}
	plain, err := batch(s, seed, nil)
	if err != nil {
		return nil, err
	}
	r.check(total(plain))

	tr := newTracer()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tb, err := batch(s, seed, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	tt := total(tb)
	r.check(tt)
	r.finish()

	cpu, err := layerCPU(prof.Bytes())
	if err != nil {
		return nil, err
	}
	sumRun := func(b []sample) float64 {
		var v float64
		for _, x := range b {
			v += x.runS
		}
		return v
	}
	l := tr.layers()
	l["sim.ns_per_event"] = 1e9 * sumRun(plain) / float64(tt.runEvents)
	l["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	l["trace.overhead_pct"] = 100 * (sumRun(tb)/sumRun(plain) - 1)
	for _, m := range perLayer {
		r.add(m.name, l[m.name], m.unit, "")
	}
	var other float64
	for layer, sec := range cpu {
		if !slices.Contains(cpuLayers, layer) {
			other += sec
		}
	}
	note := fmt.Sprintf("profiled over %d traced instances", s.instances)
	for _, layer := range cpuLayers {
		r.add("cpu_s."+layer, cpu[layer], "s", note)
	}
	r.add("cpu_s.other", other, "s", note)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", s.name, seed))
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return r, nil
}

func medianOf(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
