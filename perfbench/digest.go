package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/driver"
	"repro/internal/metrics"
)

// referenceDigests are the simulated-statistics digests of every
// workload at the default seed (1). A run at that seed whose digest
// differs has changed what the model computes: a change meant only to
// make the simulator faster must leave these alone. A change that
// alters the model on purpose records the new values printed by a run
// at seed 1.
var referenceDigests = map[string]string{
	"system-atime":  "1498e70513031c04",
	"users-write":   "a3407a10e4a7db9a",
	"pool-stripe4":  "c9b3f5e81816159b",
	"tenants-raid5": "9ba1f9e3fe0bd975",
}

// defaultSeed is the seed the reference digests were recorded at.
const defaultSeed = 1

// digester fingerprints simulated statistics. Values are rendered with
// %v, which prints floats in their shortest exact form and maps in key
// order, so equal statistics give equal digests on every platform.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(name string, v any) { fmt.Fprintf(d.h, "%s=%v\n", name, v) }

func (d *digester) hist(name string, h *metrics.Histogram) {
	d.add(name, []float64{float64(h.Count()), h.Sum(), h.Min(), h.Max(),
		h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Quantile(0.999)})
}

// driverStats adds one driver statistics window, both directions.
func (d *digester) driverStats(st *driver.Stats) {
	for _, s := range []*driver.Side{st.ReadSide, st.WriteSide} {
		d.add("sched", s.SchedDist.Histogram())
		d.add("fcfs", s.FCFSDist.Histogram())
		d.add("service", []float64{float64(s.Service.Count()), s.Service.SumMS()})
		d.add("queueing", []float64{float64(s.Queueing.Count()), s.Queueing.SumMS()})
		d.add("components", []float64{s.SeekMS, s.RotMS, s.TransferMS})
		d.add("hits", []int64{s.BufferHits, s.Redirected})
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
