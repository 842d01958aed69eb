package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime/pprof"
	"testing"

	"repro/internal/experiment"
	"repro/internal/volume"
)

// simulate runs one instance of a workload and fails the test on an
// error or a failed correctness check.
func simulate(t *testing.T, name string, seed uint64, tr *tracer) *outcome {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	smp, err := once(s, seed, tr)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if len(smp.o.problems) > 0 {
		t.Fatalf("%s seed %d failed its checks: %v", name, seed, smp.o.problems)
	}
	return smp.o
}

// The benchmark builds its own stacks; on the file-system workloads
// they must give exactly what the harness's Execute and ExecuteVolume
// give on the same configuration, or the benchmark's wiring has
// drifted from the experiments it claims to measure.
func TestMatchesHarness(t *testing.T) {
	const seed = 3
	for _, c := range []struct {
		workload string
		setup    experiment.Setup
	}{
		{"system-atime", experiment.Setup{DiskName: "toshiba", FSName: "system", Days: diskDays, WindowMS: systemWindowMS, Seed: seed}},
		{"users-write", experiment.Setup{DiskName: "fujitsu", FSName: "users", Days: diskDays, WindowMS: usersWindowMS, Seed: seed}},
	} {
		t.Run(c.workload, func(t *testing.T) {
			o := simulate(t, c.workload, seed, nil)
			run, err := experiment.Execute(context.Background(), c.setup)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Days) != len(o.days) {
				t.Fatalf("harness simulated %d days, benchmark %d", len(run.Days), len(o.days))
			}
			for i, d := range run.Days {
				if !reflect.DeepEqual(d.Stats, o.days[i]) {
					t.Errorf("day %d driver statistics differ from the harness's", i)
				}
			}
			if !reflect.DeepEqual(run.Installed, o.installed) || run.WorkloadErrors != o.errors {
				t.Errorf("installed %v errors %d, harness %v errors %d", o.installed, o.errors, run.Installed, run.WorkloadErrors)
			}
		})
	}
	t.Run("pool-stripe4", func(t *testing.T) {
		o := simulate(t, "pool-stripe4", seed, nil)
		pt, err := experiment.ExecuteVolume(context.Background(), experiment.VolumeSetup{
			Config: "disks-4-rearr", Layout: volume.Stripe, Disks: 4, StripeUnit: 16, Rearrange: true,
			Days: poolDays, WindowMS: poolWindowMS, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var installed int
		for _, n := range o.installed {
			installed += n
		}
		if pt.Requests != o.vol.Requests || pt.MeanRespMS != o.vol.RespMSSum/float64(o.vol.Requests) ||
			!reflect.DeepEqual(pt.PerDisk, o.vol.PerDisk) || pt.Degraded != o.vol.Degraded ||
			pt.Installed != installed || pt.WorkloadErrors != o.errors {
			t.Errorf("benchmark %+v installed %d errors %d; harness %+v", o.vol, installed, o.errors, pt)
		}
	})
}

// The traced run's wrappers must not change what is simulated, and
// each workload must reach the layers the benchmark says it does.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			plain := simulate(t, s.name, 2, nil)
			tr := newTracer()
			traced := simulate(t, s.name, 2, tr)
			if plain.digest != traced.digest {
				t.Fatalf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			l := tr.layers()
			if l["sched.picks"] == 0 || l["driver.requests"] == 0 || l["sim.events"] == 0 {
				t.Errorf("scheduler, driver or engine not reached: %v", l)
			}
			fsStack := s.name != "tenants-raid5"
			if got := l["fs.dev_calls"] > 0; got != fsStack {
				t.Errorf("fs.dev_calls = %v on %s", l["fs.dev_calls"], s.name)
			}
			if got := l["server.calls"] > 0; got == fsStack {
				t.Errorf("server.calls = %v on %s", l["server.calls"], s.name)
			}
			if s.name == "tenants-raid5" && (l["volume.degraded_reads"] == 0 || l["volume.rebuilt_blocks"] == 0) {
				t.Errorf("no degraded reads or rebuild on %s: %v", s.name, l)
			}
			if fsStack && l["core.installed"] == 0 {
				t.Errorf("no blocks rearranged on %s", s.name)
			}
		})
	}
}

// A second seed passes every check and gives a different digest.
func TestSecondSeed(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a := simulate(t, s.name, 1, nil)
			b := simulate(t, s.name, 2, nil)
			if a.digest == b.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
			}
		})
	}
}

// The reference digests hold at the default seed: a full batch of each
// workload, as a run at seed 1 checks it.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every instance of every workload")
	}
	for _, s := range specs {
		b, err := batch(s, defaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := total(b).digest; got != referenceDigests[s.name] {
			t.Errorf("%s: digest %s, reference %s", s.name, got, referenceDigests[s.name])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fs.(*FS).ReadAt":                  "fs",
		"repro/internal/workload.(*clientPool).run.func1": "workload",
		"repro/internal/driver/devtest.Run":               "driver",
		"main.(*tracedDevice).ReadBlock":                  "bench",
		"runtime.mallocgc":                                "",
		"time.Now":                                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A profile of a real simulation decodes, and its time lands in the
// layers that simulation exercises.
func TestLayerCPU(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	simulate(t, "system-atime", 2, nil)
	pprof.StopCPUProfile()
	cpu, err := layerCPU(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range cpu {
		sum += s
	}
	if sum == 0 || cpu["fs"] == 0 {
		t.Errorf("cpu by layer %v: want time in fs", cpu)
	}
}
