package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

// phases times one simulation's set-up and measured span on the host
// clock, counts the heap bytes allocated during the span, and samples
// the peak heap over both.
type phases struct {
	start, mark  time.Time
	mem          runtime.MemStats
	setupS, runS float64
	allocMB      float64
	peakMB       float64
	stop         chan struct{}
	peak         chan uint64
}

// heapObjects is live plus not-yet-swept heap objects: the heap in use.
const heapObjects = "/memory/classes/heap/objects:bytes"

func (p *phases) begin() {
	stop, peakc := make(chan struct{}), make(chan uint64, 1)
	p.stop, p.peak = stop, peakc
	go func() {
		s := []rtmetrics.Sample{{Name: heapObjects}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				peakc <- peak
				return
			case <-tick.C:
			}
		}
	}()
	p.start = time.Now()
}

func (p *phases) setupDone() {
	p.setupS = time.Since(p.start).Seconds()
	runtime.ReadMemStats(&p.mem)
	p.mark = time.Now()
}

func (p *phases) runDone() {
	p.runS = time.Since(p.mark).Seconds()
	before := p.mem.TotalAlloc
	runtime.ReadMemStats(&p.mem)
	p.allocMB = float64(p.mem.TotalAlloc-before) / 1e6
	close(p.stop)
	p.peakMB = float64(<-p.peak) / 1e6
	p.stop = nil
}

// abort stops the heap sampler of a simulation that ends early.
func (p *phases) abort() {
	if p.stop != nil {
		close(p.stop)
		<-p.peak
		p.stop = nil
	}
}
