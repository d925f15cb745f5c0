package main

import (
	"fmt"
	"runtime"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/ycsb"
)

// The YCSB stream of one redis-ycsb iteration: for each core workload
// A–F, a fresh store loaded with ycsbRecords keys, then ycsbOps seeded
// operations. The paper's Fig. 4 uses 10k/10k; this keeps its shape at a
// size where the interpreted stream still outweighs the repair before it.
const (
	ycsbRecords = 200
	ycsbOps     = 300
)

// ycsbStream is the seeded operation stream with the answers the
// developer-persisted redis-pmem gives on it: the reference every
// repaired build must reproduce op for op.
type ycsbStream struct {
	workloads []ycsb.Workload
	ops       [][]ycsb.Op
	want      [][]uint64
}

// newYCSBStream generates ops operations of each workload A–F.
func newYCSBStream(seed int64, ops int) (*ycsbStream, error) {
	s := &ycsbStream{workloads: ycsb.AllStandard()}
	for i, wl := range s.workloads {
		s.ops = append(s.ops, ycsb.NewGenerator(wl, ycsbRecords, seed*7919+int64(i)).Ops(ops))
	}
	base, err := corpus.ByName("redis-pmem").Compile()
	if err != nil {
		return nil, err
	}
	s.want = make([][]uint64, len(s.ops))
	for w := range s.ops {
		_, err := s.driveSegment(w, base, nil, nil, nil, nil, func(_ int, ret uint64) error {
			s.want[w] = append(s.want[w], ret)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("redis-pmem reference: %w", err)
		}
	}
	return s, nil
}

// ycsbTotals sums one drive: ops, their CPU time and simulated time,
// and the interpreter steps they took.
type ycsbTotals struct {
	ops   int
	cpuNs float64
	simNs float64
	steps int64
}

// driveSegment loads a fresh machine for mod and runs YCSB workload w of
// the stream on it, timing every operation into lat (in µs, nil to skip)
// and handing each return to check. Every command ends at a durability
// point, so a build with a missing flush shows up as a durability
// violation. The forced GC before the timed operations is not charged to
// l's current job.
func (s *ycsbStream) driveSegment(w int, mod *ir.Module, l *loopStats, tr *tracer, root *span, lat *[]float64, check func(i int, ret uint64) error) (ycsbTotals, error) {
	var tot ycsbTotals
	mach, err := interp.New(mod, interp.Options{StepLimit: 1 << 62})
	if err != nil {
		return tot, err
	}
	for _, op := range ycsb.LoadOps(ycsbRecords) {
		if _, err := mach.Run("cmd_set", uint64(op.Key), uint64(op.Value)); err != nil {
			return tot, err
		}
	}
	// Start the timed operations without the GC debt of whatever ran
	// before (the repair allocates tens of MB), so op latency is the
	// interpreter's own.
	l.untimed(runtime.GC)
	sp := tr.start(root.job(), root, "interp.ycsb")
	// The interpreter runs on this goroutine alone: each operation is
	// timed by its thread's CPU clock, which a background collection on
	// the other CPU does not advance.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	steps0, sim0 := mach.Steps(), mach.SimTime()
	for i, op := range s.ops[w] {
		c0 := threadCPU()
		ret, err := dispatch(mach, op)
		d := threadCPU() - c0
		tot.cpuNs += float64(d)
		if lat != nil {
			*lat = append(*lat, float64(d)/1e3)
		}
		if err != nil {
			return tot, fmt.Errorf("ycsb %s op %d: %w", s.workloads[w].Name, i, err)
		}
		if err := check(i, ret); err != nil {
			return tot, err
		}
	}
	sp.end()
	tot.ops = len(s.ops[w])
	tot.simNs = mach.SimTime() - sim0
	tot.steps = mach.Steps() - steps0
	sp.add("interp.ycsb_steps", float64(tot.steps))
	sp.add("ycsb.ops", float64(tot.ops))
	if n := len(mach.Violations); n > 0 {
		return tot, fmt.Errorf("ycsb %s: %d durability violations", s.workloads[w].Name, n)
	}
	return tot, nil
}

// drivePart runs workload w on a repaired build, requiring redis-pmem's
// answer for every operation.
func (s *ycsbStream) drivePart(w int, mod *ir.Module, lat *[]float64) (ycsbTotals, error) {
	return s.driveSegment(w, mod, nil, nil, nil, lat, s.checker(w))
}

func (s *ycsbStream) checker(w int) func(i int, ret uint64) error {
	return func(i int, ret uint64) error {
		if ret != s.want[w][i] {
			return fmt.Errorf("ycsb %s op %d: repaired build returned %d, redis-pmem %d", s.workloads[w].Name, i, ret, s.want[w][i])
		}
		return nil
	}
}

// driveChecked runs the whole stream, A to F, on a repaired build.
func (s *ycsbStream) driveChecked(mod *ir.Module, l *loopStats, tr *tracer, root *span, lat *[]float64) (ycsbTotals, error) {
	var tot ycsbTotals
	for w := range s.ops {
		t, err := s.driveSegment(w, mod, l, tr, root, lat, s.checker(w))
		tot = tot.plus(t)
		if err != nil {
			return tot, err
		}
	}
	return tot, nil
}

func dispatch(mach *interp.Machine, op ycsb.Op) (uint64, error) {
	switch op.Kind {
	case ycsb.OpRead:
		return mach.Run("cmd_get", uint64(op.Key))
	case ycsb.OpScan:
		return mach.Run("cmd_scan", uint64(op.Key), uint64(op.ScanLen))
	case ycsb.OpRMW:
		return mach.Run("cmd_rmw", uint64(op.Key))
	default:
		return mach.Run("cmd_set", uint64(op.Key), uint64(op.Value))
	}
}

// redisJob is the §6.3 repair: flush-free Redis (flushes removed, fences
// kept) through cli.Run.
var redisJob = repairJob{prog: corpus.ByName("redis-flushfree")}

// checkRedis requires the repair to insert fixes and leave nothing to
// report; the YCSB stream then checks the repaired build's behaviour.
func checkRedis(resp *cli.Response) error {
	if !resp.Fixed || resp.BugsAfter != 0 || len(resp.Fixes) == 0 {
		return fmt.Errorf("redis-flushfree: not repaired (%d fixes, %d reports left)", len(resp.Fixes), resp.BugsAfter)
	}
	return nil
}

func repairRedis() (*cli.Response, error) {
	resp, err := cli.Run(redisJob.request(), nil)
	if err == nil {
		err = checkRedis(resp)
	}
	return resp, err
}

func (t ycsbTotals) plus(o ycsbTotals) ycsbTotals {
	return ycsbTotals{ops: t.ops + o.ops, cpuNs: t.cpuNs + o.cpuNs, simNs: t.simNs + o.simNs, steps: t.steps + o.steps}
}

// ycsbMetrics fills the YCSB family: CPU-time throughput and per-op
// latency of the interpreted operations, and the simulated throughput of
// the repaired build under the PM cost model.
func ycsbMetrics(m map[string]float64, tot ycsbTotals, lat []float64) error {
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return fmt.Errorf("ycsb_p99_us: %w", err)
	}
	m["ycsb_kops_per_s"] = float64(tot.ops) / (tot.cpuNs / 1e9) / 1e3
	m["ycsb_p50_us"] = median(lat)
	m["ycsb_p99_us"] = p99
	m["sim_kops_per_sim_s"] = float64(tot.ops) / (tot.simNs / 1e9) / 1e3
	return nil
}
