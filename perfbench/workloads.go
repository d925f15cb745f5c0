package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/obs"
	"hippocrates/internal/optimize"
	"hippocrates/internal/static"
)

type workload interface {
	// setup builds the run's inputs from the seed and warms the process
	// up; the run calls it several times and times each call.
	setup(seed int64) error
	// measure runs the workload for about d, with probes (probes.go) for
	// the metric families it does not exercise and the calibration gauge
	// g (calib.go) spread across it, and fills every end-to-end metric
	// but setup_s with raw CPU times.
	measure(seed int64, d time.Duration, m map[string]float64, g *gauge) (attempted, failed int, err error)
	// traced runs traced passes over a fixed job list for about d.
	traced(tr *tracer, d time.Duration) ([]*pass, map[string]float64, error)
}

// teardowner is a workload whose set-up leaves something running, which
// the run stops before it sets up again, outside the timed set-up.
type teardowner interface {
	teardown() error
}

func newWorkload(name string, seconds time.Duration) (workload, error) {
	switch name {
	case "crash-repair":
		return &crashRepair{}, nil
	case "redis-ycsb":
		return &redisYCSB{}, nil
	case "daemon-mixed":
		return &daemonMixed{span: seconds}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want crash-repair, redis-ycsb or daemon-mixed)", name)
}

// tracedPasses repeats pass over the same jobs until d has passed, at
// least twice, so counts can be compared between passes.
func tracedPasses(tr *tracer, d time.Duration, run func(p *pass) error) ([]*pass, error) {
	var out []*pass
	start := time.Now()
	for len(out) < 2 || time.Since(start) < d {
		p := &pass{extra: map[string]float64{}}
		mark := tr.mark()
		if err := run(p); err != nil {
			return nil, err
		}
		p.spans = tr.since(mark)
		out = append(out, p)
	}
	return out, nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// crashRepair is a single client running hippocrates -crashcheck over the
// crashsim-able corpus and the concurrent programs, in seeded order.
type crashRepair struct {
	jobs []repairJob
	rng  *rand.Rand
}

func (w *crashRepair) setup(seed int64) error {
	w.jobs = corpusJobs(true)
	w.rng = rand.New(rand.NewSource(seed))
	l := &loopStats{}
	for _, j := range w.jobs {
		if err := runRepairJob(l, j); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *crashRepair) measure(seed int64, d time.Duration, m map[string]float64, g *gauge) (int, int, error) {
	rp, err := newRedisProbe(seed, 100, 3)
	if err != nil {
		return 0, 0, err
	}
	dp, err := newDaemonProbe(seed)
	if err != nil {
		return 0, 0, err
	}
	l := &loopStats{}
	runtime.GC()
	hp := startHeapPeak()
	err = interleave(windowNative(d, len(w.jobs), 12, w.rng, func(i int) {
		if err := runRepairJob(l, w.jobs[i]); err != nil {
			logf("crash-repair: %v", err)
		}
	}), []probe{rp, dp, g}, hp)
	l.peakHeap = hp.end()
	if err != nil {
		return 0, 0, err
	}
	l.processMetrics(m)
	return l.attempted, l.failed, fill(m, l.jobMetrics, rp.fill, dp.fill)
}

// fill runs every metric filler, stopping at the first error.
func fill(m map[string]float64, fillers ...func(map[string]float64) error) error {
	for _, f := range fillers {
		if err := f(m); err != nil {
			return err
		}
	}
	return nil
}

func (w *crashRepair) traced(tr *tracer, d time.Duration) ([]*pass, map[string]float64, error) {
	order := w.rng.Perm(len(w.jobs))
	passes, err := tracedPasses(tr, d, func(p *pass) error {
		p.jobs = len(order)
		for k, i := range order {
			j := w.jobs[i]
			p.attempted++
			root, _, err := tracedRepairJob(tr, p, k+1, j, func(resp *cli.Response) error { return checkRepair(j, resp) })
			root.end()
			if err != nil {
				p.failed++
				logf("crash-repair traced: %v", err)
			}
		}
		return nil
	})
	return passes, nil, err
}

// redisYCSB is §6.3 as a closed loop: repair flush-free Redis, then run
// the repaired build through the YCSB A–F stream.
type redisYCSB struct {
	stream *ycsbStream
}

func (w *redisYCSB) setup(seed int64) error {
	s, err := newYCSBStream(seed, ycsbOps)
	if err != nil {
		return err
	}
	w.stream = s
	if _, err := repairRedis(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *redisYCSB) measure(seed int64, d time.Duration, m map[string]float64, g *gauge) (int, int, error) {
	jp := newJobsProbe(seed)
	dp, err := newDaemonProbe(seed)
	if err != nil {
		return 0, 0, err
	}
	l := &loopStats{}
	var repairs, opLat []float64
	var tot ycsbTotals
	runtime.GC()
	hp := startHeapPeak()
	err = interleave(windowNative(d, 1, 5, rand.New(rand.NewSource(seed)), func(int) {
		err := l.job(func() error {
			// Every repair starts from a collected heap, as every timed
			// YCSB workload does, so the collector's pace inside it, and
			// with it the heap's peak, do not depend on the garbage of
			// the iteration before (peak_heap_mb spread 0.13 over ten
			// seeds without it).
			l.untimed(runtime.GC)
			p0 := snapProc()
			resp, err := repairRedis()
			repairs = append(repairs, cpuSince(p0))
			if err != nil {
				return err
			}
			t, err := w.stream.driveChecked(resp.Module, l, nil, nil, &opLat)
			tot = tot.plus(t)
			return err
		})
		if err != nil {
			l.failed++
			logf("redis-ycsb: %v", err)
		}
	}), []probe{jp, dp, g}, hp)
	l.peakHeap = hp.end()
	if err != nil {
		return 0, 0, err
	}
	l.processMetrics(m)
	m["redis_repair_ms"] = median(repairs)
	return l.attempted, l.failed, fill(m, func(m map[string]float64) error { return ycsbMetrics(m, tot, opLat) }, jp.fill, dp.fill)
}

func (w *redisYCSB) traced(tr *tracer, d time.Duration) ([]*pass, map[string]float64, error) {
	passes, err := tracedPasses(tr, d, func(p *pass) error {
		p.jobs, p.attempted = 1, 1
		root, resp, err := tracedRepairJob(tr, p, 1, redisJob, checkRedis)
		if err == nil {
			_, err = w.stream.driveChecked(resp.Module, nil, tr, root, nil)
		}
		root.end()
		if err != nil {
			p.failed++
			logf("redis-ycsb traced: %v", err)
		}
		return nil
	})
	return passes, nil, err
}

// daemonMixed is an open loop of mixed requests against an in-process
// hippocratesd over loopback HTTP.
type daemonMixed struct {
	span    time.Duration
	due     []time.Duration
	reqs    []*daemonReq
	primers []*daemonReq
	// d is the daemon the last setup booted and warmed up.
	d *daemon
}

// teardown stops the daemon the last set-up booted.
func (w *daemonMixed) teardown() error {
	if w.d == nil {
		return nil
	}
	d := w.d
	w.d = nil
	return d.stop()
}

// setup generates the request stream and boots and warms up a daemon.
func (w *daemonMixed) setup(seed int64) error {
	due, reqs, err := daemonStream(seed, int(daemonRate*w.span.Seconds()), daemonRate)
	if err != nil {
		return err
	}
	if w.primers, err = daemonPrimers(seed); err != nil {
		return err
	}
	w.due, w.reqs = due, reqs
	w.d = startDaemon()
	return w.d.prime(w.primers)
}

// measure runs the open loop over the whole stream, in segments with the
// redis probe's steps in the pauses between them, then answers the
// stream's distinct requests sequentially for the byte-identity check.
// The probe cannot overlap the open loop without loading the daemon, and
// run after the daemon stopped, it met a process shrinking from the
// daemon's heap and its tail doubled from run to run.
func (w *daemonMixed) measure(seed int64, _ time.Duration, m map[string]float64, g *gauge) (int, int, error) {
	rp, err := newRedisProbe(seed, ycsbOps, 2)
	if err != nil {
		return 0, 0, err
	}
	run, err := driveDaemon(w.d, w.due, w.reqs, nil, []probe{rp, g}, 1)
	w.d = nil
	if err != nil {
		return 0, 0, err
	}
	refs, err := references(w.reqs)
	if err != nil {
		return 0, 0, err
	}
	failed, first := run.verify(w.reqs, refs)
	if first != nil {
		logf("daemon-mixed: %d failed, first: %v", failed, first)
	}
	run.proc.processMetrics(m)
	return len(w.reqs), failed, fill(m, func(m map[string]float64) error { return run.daemonMetrics(m, true) }, rp.fill)
}

// daemonTracedJobs is how many distinct requests each traced pass also
// runs in-process as decomposed public calls.
const daemonTracedJobs = 40

// traced makes two passes, each an open loop over the first half of the
// stream against a fresh daemon followed by the decomposed in-process
// run of its first distinct requests.
func (w *daemonMixed) traced(tr *tracer, d time.Duration) ([]*pass, map[string]float64, error) {
	if err := w.d.stop(); err != nil {
		return nil, nil, err
	}
	n := len(w.due) / 2
	due, reqs := w.due[:n], w.reqs[:n]
	refs, err := references(reqs)
	if err != nil {
		return nil, nil, err
	}
	var distinct []*daemonReq
	seen := map[string]bool{}
	for _, r := range reqs {
		if !seen[r.ref] && len(distinct) < daemonTracedJobs {
			seen[r.ref] = true
			distinct = append(distinct, r)
		}
	}
	var late, lat []float64
	var passes []*pass
	for k := 0; k < 2; k++ {
		p := &pass{extra: map[string]float64{}, jobs: len(distinct)}
		mark := tr.mark()
		dm := startDaemon()
		if err := dm.prime(w.primers); err != nil {
			dm.stop()
			return nil, nil, err
		}
		run, err := driveDaemon(dm, due, reqs, tr, nil, conns())
		if err != nil {
			return nil, nil, err
		}
		failed, first := run.verify(reqs, refs)
		if first != nil {
			logf("daemon-mixed traced: %d failed, first: %v", failed, first)
		}
		p.attempted, p.failed = len(reqs), failed
		hits, ok, rejected := 0, 0, 0
		for i, t := range run.lines {
			late = append(late, ms(t.late()))
			lat = append(lat, ms(t.latency()))
			switch run.replies[i].status {
			case http.StatusOK:
				ok++
				if run.replies[i].hit {
					hits++
				}
			case http.StatusTooManyRequests:
				rejected++
			}
		}
		p.extra["server.queue_wait_ms"] = phaseMeanMS(run.doc, "queue_wait")
		p.extra["server.job_ms"] = phaseMeanMS(run.doc, "job")
		p.extra["server.response_cache_hit_ratio"] = ratio(float64(hits), float64(ok))
		p.extra["server.rejected"] = float64(rejected)
		p.extra["loadgen.inflight_max"] = float64(run.peak)

		store := static.NewStore(0)
		for i, r := range distinct {
			p.attempted++
			if err := tracedRequest(tr, p, len(reqs)+i+1, r, store); err != nil {
				p.failed++
				logf("daemon-mixed traced: %v", err)
			}
		}
		p.spans = tr.since(mark)
		passes = append(passes, p)
	}
	lateP99, err := percentile(late, 0.99)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen.late_p99_ms: %w", err)
	}
	latP99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen.latency_p99_ms: %w", err)
	}
	return passes, map[string]float64{
		"loadgen.late_p99_ms":    lateP99,
		"loadgen.latency_p50_ms": median(lat),
		"loadgen.latency_p99_ms": latP99,
	}, nil
}

// tracedRequest runs one daemon request in-process: cli.Run untraced,
// the decomposed public calls for its kind, cli.Run under a sibling span
// and the response encoding the daemon would send.
func tracedRequest(tr *tracer, p *pass, id int, r *daemonReq, store *static.Store) error {
	run := func() (*cli.Response, error) {
		q := *r.req
		rec := obs.New()
		root := rec.StartSpan("job")
		defer root.End()
		return cli.Run(&q, root)
	}
	t0 := time.Now()
	if _, err := run(); err != nil {
		return err
	}
	p.cliUntraced += ms(time.Since(t0))

	root := tr.start(id, nil, "job")
	defer root.end()
	if err := decomposedRequest(tr, root, id, r, store); err != nil {
		return err
	}
	cs := tr.start(id, root, "cli.run")
	resp, err := run()
	cs.end()
	if err != nil {
		return err
	}
	p.cliTraced += cs.dur()
	es := tr.start(id, root, "cli.encode")
	data, err := resp.EncodeJSON()
	es.end()
	if err != nil {
		return err
	}
	es.add("cli.response_kb", float64(len(data))/1024)
	return r.check(resp)
}

// decomposedRequest is a daemon request's pipeline as public calls.
func decomposedRequest(tr *tracer, root *span, id int, r *daemonReq, store *static.Store) error {
	if r.kind == "corpus-crash" {
		return decomposedRepair(tr, root, id, r.job)
	}
	q := *r.req
	s := tr.start(id, root, "lang.compile")
	mod, err := cli.CompileRequest(&q, nil)
	s.end()
	if err != nil {
		return err
	}
	s.add("lang.instrs", float64(mod.NumInstrs()))
	opts := core.Options{StepLimit: stepLimit, SummaryStore: store}
	if r.kind == "overpersist" {
		trc, err := traceModule(tr, root, id, mod, q.Entry, opts)
		if err != nil {
			return err
		}
		detect(tr, root, id, trc)
		s = tr.start(id, root, "optimize")
		res, err := optimize.Optimize(mod, optimize.Options{Entry: q.Entry, StepLimit: stepLimit})
		s.end()
		if err != nil {
			return err
		}
		s.add("optimize.candidates", float64(res.Candidates))
		s.add("optimize.applied", float64(res.Applied()))
		s.add("optimize.rejected", float64(res.Rejected))
		return nil
	}
	s = tr.start(id, root, "static.analyze")
	res, err := static.AnalyzeWithStore(mod, q.Entry, store)
	s.end()
	if err != nil {
		return err
	}
	s.add("static.summary_hits", float64(res.Incr.SumHits))
	s.add("static.summary_misses", float64(res.Incr.SumMisses))
	s.add("static.constraint_hits", float64(res.Incr.ConsHits))
	s.add("static.constraint_misses", float64(res.Incr.ConsMisses))
	if q.Mode != cli.ModeRepair {
		return nil
	}
	s = tr.start(id, root, "core.repair")
	fix, err := core.StaticRepair(mod, q.Entry, opts)
	s.end()
	if err != nil {
		return err
	}
	if fix.Fix != nil {
		s.add("core.fixes", float64(len(fix.Fix.Fixes)))
		s.add("core.clones", float64(fix.Fix.ClonesCreated))
		s.add("core.interproc_fixes", float64(fix.Fix.InterprocFixes()))
	}
	return nil
}
