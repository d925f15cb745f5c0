package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// conns is how many connections, and goroutines driving load, the
// benchmark uses against a daemon: one per CPU.
func conns() int { return runtime.NumCPU() }

// minTail is how many samples must lie beyond a reported tail percentile:
// with fewer, the figure is one or two unlucky samples, not a percentile.
const minTail = 10

// percentile returns the nearest-rank p-quantile of samples (0 < p < 1).
// A tail percentile (p > 0.5) is refused unless at least minTail samples
// lie strictly beyond its rank; the median needs only one sample.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", 100*p, n)
	}
	rank := int(math.Ceil(p * float64(n)))
	if p > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", 100*p, n, n-rank, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank median (never refused for a non-empty set).
func median(samples []float64) float64 {
	v, err := percentile(samples, 0.5)
	if err != nil {
		return 0
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSnap is the process's cumulative CPU time and allocation volume.
type procSnap struct {
	cpu   time.Duration
	alloc uint64
}

// readMetric reads one runtime/metrics value of kind uint64.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{cpu: cpu, alloc: readMetric("/gc/heap/allocs:bytes")}
}

// threadCPU is the calling thread's CPU time, to the nanosecond; the
// caller keeps its goroutine on one thread around what it times.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID; the call cannot fail for it.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuSince is the process CPU time since p0, in ms.
func cpuSince(p0 procSnap) float64 { return ms(snapProc().cpu - p0.cpu) }

// heapBytes is the live-plus-unswept heap object bytes right now.
func heapBytes() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }

// loopStats accumulates one measured loop: per-job latencies plus the
// process CPU, allocation and peak heap over the jobs alone.
type loopStats struct {
	lat []float64 // CPU ms per job
	// byTarget holds the same times by corpus target, for loops over
	// whole permutations of the targets.
	byTarget  map[string][]float64
	cpu       time.Duration
	alloc     uint64
	peakHeap  uint64
	attempted int
	failed    int
	// untimedProc adds up what untimed ran inside the current job.
	untimedProc procSnap
}

// job times fn as one job: its CPU time (its latency, see calib.go) and
// allocation are charged to the loop; work the caller does between jobs
// (answer checks) is not, nor what fn runs through untimed.
func (l *loopStats) job(fn func() error) error {
	l.untimedProc = procSnap{}
	p0 := snapProc()
	err := fn()
	p1 := snapProc()
	d := p1.cpu - p0.cpu - l.untimedProc.cpu
	l.attempted++
	l.cpu += d
	l.alloc += p1.alloc - p0.alloc - l.untimedProc.alloc
	l.lat = append(l.lat, ms(d))
	return err
}

// untimed runs fn inside a job without charging it to the job: the
// benchmark's own forced GCs. A nil l just runs fn.
func (l *loopStats) untimed(fn func()) {
	if l == nil {
		fn()
		return
	}
	p0 := snapProc()
	fn()
	p1 := snapProc()
	l.untimedProc.cpu += p1.cpu - p0.cpu
	l.untimedProc.alloc += p1.alloc - p0.alloc
}

// heapPeak samples the heap every millisecond while a measured loop
// runs, so a peak inside a job is seen too. Samples are skipped while
// paused (during probe steps).
type heapPeak struct {
	stop, done chan struct{}
	paused     atomic.Bool
	peak       uint64
}

func (h *heapPeak) pause(on bool) {
	if h != nil {
		h.paused.Store(on)
	}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			if b := heapBytes(); b > h.peak && !h.paused.Load() {
				h.peak = b
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak it saw.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// processMetrics fills the per-job process metrics every workload reports.
func (l *loopStats) processMetrics(m map[string]float64) {
	n := float64(l.attempted)
	m["cpu_ms_per_job"] = ms(l.cpu) / n
	m["alloc_mb_per_job"] = float64(l.alloc) / (1 << 20) / n
	m["peak_heap_mb"] = float64(l.peakHeap) / (1 << 20)
}

// jobMetrics fills the repair-job family from a closed loop's latencies.
// Over whole permutations of the corpus targets, every target has as many
// jobs, and the pooled median is the slowest job of the middle target
// whenever the targets' times do not overlap: one outlier of one target
// decides it, and it spread 0.14 over five seeds. So the p50 is the
// median of the targets' own medians instead: the middle target's typical
// job rather than its slowest. The p95 is pooled; it lies inside the
// slowest target's jobs.
func (l *loopStats) jobMetrics(m map[string]float64) error {
	p95, err := percentile(l.lat, 0.95)
	if err != nil {
		return fmt.Errorf("repair_p95_ms: %w", err)
	}
	p50 := median(l.lat)
	if len(l.byTarget) > 0 {
		var mids []float64
		for _, lat := range l.byTarget {
			mids = append(mids, median(lat))
		}
		p50 = median(mids)
	}
	m["repair_jobs_per_s"] = float64(l.attempted) / l.cpu.Seconds()
	m["repair_p50_ms"] = p50
	m["repair_p95_ms"] = p95
	return nil
}
