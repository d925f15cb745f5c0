package main

import (
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond rank 990
		{999, 0.99, 0, false},   // 9 beyond
		{200, 0.95, 190, true},
		{199, 0.95, 0, false},
		{1, 0.5, 1, true}, // the median needs no tail
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, p%g) = %v, %v; want %v, ok=%v", c.n, 100*c.p, got, err, c.want, c.ok)
		}
	}
}

// A handler that stalls must charge the stall to the requests queued
// behind it: their latency runs from when they were due, not from when
// the generator got around to sending them.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 200 * time.Millisecond
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	lines, peak := openLoop(due, 1, func(i int) {
		if i == 5 {
			time.Sleep(stall)
		}
	})
	if peak != 1 {
		t.Errorf("in flight at most %d, want 1 with one sender", peak)
	}
	if s := lines[5].service(); s < stall {
		t.Errorf("stalled request served in %v, want >= %v", s, stall)
	}
	next := lines[6]
	if next.late() < stall-2*gap {
		t.Errorf("request after the stall sent %v late, want about %v", next.late(), stall-gap)
	}
	if next.latency() < stall-2*gap || next.latency() < next.service()+next.late() {
		t.Errorf("request after the stall: latency %v does not include its %v wait", next.latency(), next.late())
	}
	if lines[0].late() > stall/2 {
		t.Errorf("first request sent %v late with an idle sender", lines[0].late())
	}
}

// Every metric the benchmark can print must be in BENCHMARK.json under
// its section, and every metric there must be printed.
func TestMetricNamesMatchSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}

	m := map[string]float64{"setup_s": 1}
	l := &loopStats{lat: samples(300), attempted: 300, cpu: time.Second, alloc: 1 << 20, peakHeap: 1 << 20}
	if err := l.jobMetrics(m); err != nil {
		t.Fatal(err)
	}
	l.processMetrics(m)
	if err := ycsbMetrics(m, ycsbTotals{ops: 1200, cpuNs: 1e9, simNs: 1e9}, samples(1200)); err != nil {
		t.Fatal(err)
	}
	m["redis_repair_ms"] = 1
	run := &daemonRun{lines: make([]timeline, 1100), replies: make([]reply, 1100), cpu: samples(1100)}
	for i := range run.lines {
		run.lines[i] = timeline{due: time.Duration(i) * time.Millisecond, sent: time.Duration(i) * time.Millisecond, done: time.Duration(i+1) * time.Millisecond}
		run.replies[i].status = http.StatusOK
	}
	if err := run.daemonMetrics(m, true); err != nil {
		t.Fatal(err)
	}
	if _, err := attach(spec.EndToEnd, m); err != nil {
		t.Errorf("end-to-end: %v", err)
	}

	passes := []*pass{
		{jobs: 1, extra: map[string]float64{}, spans: []*span{{Name: "crashsim.validate", Counts: map[string]float64{"crashsim.images_built": 3}}}},
		{jobs: 1, extra: map[string]float64{}, spans: []*span{{Name: "crashsim.validate", Counts: map[string]float64{"crashsim.images_built": 4}}}},
	}
	layers, drift := layerReport(passes)
	for _, k := range []string{"loadgen.late_p99_ms", "loadgen.latency_p50_ms", "loadgen.latency_p99_ms"} {
		layers[k] = 1
	}
	if _, err := attach(spec.PerLayer, layers); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	if len(drift) != 1 || drift[0] != "crashsim.images_built" {
		t.Errorf("drifting counts %v, want [crashsim.images_built]", drift)
	}
}

// Scaling to the reference host multiplies times, divides rates and
// leaves counts, sizes, ratios and simulated throughput alone; every
// end-to-end metric must be in exactly one of those groups.
func TestNormalizeScalesTimesAndRates(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	asIs := map[string]bool{"alloc_mb_per_job": true, "peak_heap_mb": true, "daemon_slo_ok_ratio": true, "sim_kops_per_sim_s": true}
	m := map[string]float64{}
	for _, s := range spec.EndToEnd {
		m[s.Name] = 10
	}
	normalize(m, 2)
	for _, s := range spec.EndToEnd {
		want := 10.0
		switch {
		case asIs[s.Name]:
		case contains(timeMetrics, s.Name):
			want = 20
		case contains(rateMetrics, s.Name):
			want = 5
		default:
			t.Errorf("%s is neither a time, a rate nor reported as measured", s.Name)
			continue
		}
		if m[s.Name] != want {
			t.Errorf("%s scaled to %v, want %v", s.Name, m[s.Name], want)
		}
	}
	g := &gauge{samples: []float64{refCalibMS * 2, refCalibMS * 2, refCalibMS * 4}}
	if got := g.scale(); got != 0.5 {
		t.Errorf("scale with the kernel at twice the reference = %v, want 0.5", got)
	}
}
