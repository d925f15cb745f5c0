package interp_test

import (
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ycsb"
)

// BenchmarkInterpYCSB times the interpreter's hot loop on its headline
// workload: redis-pmem serving the YCSB A–F operation mix, untraced, as
// the Fig. 4 runs drive it. Each workload gets a machine loaded with
// goldenRecords keys outside the timer; the timed loop then round-robins
// one operation per iteration across the six machines. Besides ns/op it
// reports ns/step, the per-instruction dispatch cost. Profile with
//
//	go test ./internal/interp/ -run '^$' -bench InterpYCSB -cpuprofile cpu.out
func BenchmarkInterpYCSB(b *testing.B) {
	mod := corpus.ByName("redis-pmem").MustCompile()
	wls := ycsb.AllStandard()
	machines := make([]*interp.Machine, len(wls))
	streams := make([][]ycsb.Op, len(wls))
	for i, wl := range wls {
		m, err := interp.New(mod, interp.Options{StepLimit: 1 << 62})
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range ycsb.LoadOps(goldenRecords) {
			if _, err := m.Run("cmd_set", uint64(op.Key), uint64(op.Value)); err != nil {
				b.Fatal(err)
			}
		}
		machines[i] = m
		streams[i] = ycsb.NewGenerator(wl, goldenRecords, goldenSeed+int64(i)).Ops(goldenOps)
	}
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(wls)
		m := machines[w]
		before := m.Steps()
		if _, err := runYCSBOp(m, streams[w][(i/len(wls))%goldenOps]); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps() - before
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}
