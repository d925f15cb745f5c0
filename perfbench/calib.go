package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// The host's speed is not constant. On a virtual machine shared with
// other tenants, the CPU time of the same work spread by up to a third
// within a set of ten runs, and more than doubled between sets hours
// apart, while the work itself (allocation volume, interpreter steps) did
// not move. Wall-clock time moves further still, because it also counts the
// time the hypervisor gives to the neighbours.
//
// So every time the benchmark reports is CPU time, scaled to a reference
// host: the run also times a fixed calibration kernel, spread
// across its measurement like a probe, and multiplies every time by
// refCalibMS over the kernel's median CPU time. The kernel is the
// benchmark's own code, none of the repository's, so a change to the
// program under test moves the scaled figures as much as the raw ones; a
// change in the host's speed moves the kernel much as it moves the
// workload, and largely cancels out. A reported millisecond is a millisecond of CPU on a host
// where the kernel takes refCalibMS.
const refCalibMS = 25.0

// calibKernel is a fixed mix of what the program under test spends its
// time on: map lookups, building and sorting string keys, sorting
// integers, hashing, and building small trees on the heap. It allocates
// under three megabytes a run, below what starts a collection after the
// forced one that precedes it, so no collection runs inside it and its
// time does not depend on the heap the workload leaves behind. Its
// working sets fit the L2 cache: a pointer chase over a megabyte moved by
// a fifth from one process to the next, with where its pages happened to
// land, and would have carried that into every scaled figure.
type calibKernel struct {
	m    map[uint64]uint64
	keys []uint64
	src  []uint64
	buf  []uint64
	data []byte
	sink uint64
}

func newCalibKernel() *calibKernel {
	rng := rand.New(rand.NewSource(1))
	k := &calibKernel{m: map[uint64]uint64{}}
	for i := 0; i < 1<<13; i++ {
		key := rng.Uint64()
		k.m[key] = uint64(i)
		k.keys = append(k.keys, key)
	}
	k.src = make([]uint64, 1<<14)
	for i := range k.src {
		k.src[i] = rng.Uint64()
	}
	k.buf = make([]uint64, len(k.src))
	k.data = make([]byte, 1<<14)
	rng.Read(k.data)
	return k
}

// calibNode is a node of the kernel's heap trees.
type calibNode struct {
	l, r *calibNode
	v    uint64
}

func buildTree(depth int) *calibNode {
	if depth == 0 {
		return &calibNode{v: 1}
	}
	return &calibNode{l: buildTree(depth - 1), r: buildTree(depth - 1), v: uint64(depth)}
}

func (n *calibNode) sum() uint64 {
	if n.l == nil {
		return n.v
	}
	return n.v + n.l.sum() + n.r.sum()
}

func (k *calibKernel) run() {
	var acc uint64
	for r := 0; r < 32; r++ {
		for _, key := range k.keys {
			acc += k.m[key^uint64(r&1)]
		}
	}
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts["k"+strconv.Itoa(i%5000)] += i
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	slices.Sort(names)
	acc += uint64(len(names[0]))
	for r := 0; r < 4; r++ {
		copy(k.buf, k.src)
		slices.Sort(k.buf)
		acc += k.buf[len(k.buf)/2]
	}
	for r := 0; r < 256; r++ {
		sum := sha256.Sum256(k.data)
		acc += uint64(sum[0])
	}
	for r := 0; r < 8; r++ {
		acc += buildTree(12).sum()
	}
	k.sink += acc
}

// gauge times the calibration kernel across a run. It is a probe
// (probes.go), so interleave spreads its steps over the measurement, and
// main also steps it once before every set-up.
type gauge struct {
	k       *calibKernel
	samples []float64 // CPU ms per kernel run
	steps   int
}

// newGauge builds the kernel for a run whose measurement takes steps
// gauge steps.
func newGauge(steps int) *gauge {
	g := &gauge{k: newCalibKernel(), steps: steps}
	g.k.run() // warm: page in the working set
	return g
}

func (g *gauge) quota() int { return g.steps }

// step runs the kernel once and records its thread's CPU time. It starts
// from a collected heap, so no background collection overlaps it.
func (g *gauge) step(int) error {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	g.k.run()
	g.samples = append(g.samples, ms(threadCPU()-c0))
	return nil
}

func (g *gauge) fill(map[string]float64) error { return nil }

// scale is the factor that turns this run's CPU times into reference
// times.
func (g *gauge) scale() float64 { return refCalibMS / median(g.samples) }

// gaugeSteps is how many kernel runs a measurement of d carries: two a
// second, with the forced collection before each about a tenth of the
// run.
func gaugeSteps(d time.Duration) int { return max(10, int(2*d.Seconds())) }

// Metrics whose value is a time (scaled by the factor) or a rate per unit
// of time (scaled by its inverse). Every other end-to-end metric is a
// count, a size, a ratio or simulated time, and is reported as measured.
var (
	timeMetrics = []string{
		"setup_s", "repair_p50_ms", "repair_p95_ms", "redis_repair_ms",
		"ycsb_p50_us", "ycsb_p99_us", "daemon_p50_ms", "daemon_p95_ms", "cpu_ms_per_job",
	}
	rateMetrics = []string{"repair_jobs_per_s", "ycsb_kops_per_s"}
)

// normalize scales the measured times in m to the reference host.
func normalize(m map[string]float64, f float64) {
	for _, k := range timeMetrics {
		if v, ok := m[k]; ok {
			m[k] = v * f
		}
	}
	for _, k := range rateMetrics {
		if v, ok := m[k]; ok {
			m[k] = v / f
		}
	}
}
