package driver

import "testing"

// BenchmarkBCopyRoundTrip measures one block movement through the
// driver, with a block table of 500 entries already installed: a BCopy
// (read the block, write the reserved copy, write the table) and the
// BClean that undoes it (write the table), each run to completion.
func BenchmarkBCopyRoundTrip(b *testing.B) {
	eng, _, drv := newRig(b)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)
	var slots []int64
	for _, cyl := range drv.ReservedSlots() {
		slots = append(slots, cyl...)
	}
	const installed = 500
	check := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i <= installed; i++ {
		drv.WriteBlock(0, int64(i), blockOf(byte(i)), nil)
	}
	eng.Run()
	for i := 0; i < installed; i++ {
		drv.BCopy(lbl.MapVirtual(p.Start+int64(i)*16), slots[i], check)
	}
	eng.Run()
	orig, dst := lbl.MapVirtual(p.Start+installed*16), slots[installed]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.BCopy(orig, dst, check)
		eng.Run()
		drv.BClean(orig, check)
		eng.Run()
	}
}
