package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Every run reports every end-to-end metric, but a workload exercises
// only some metric families itself. A probe measures one family for a
// workload that does not: a fixed quota of small steps, spread evenly
// across the workload's own measurement so both see the same machine. A
// probe's figures compare only with the same probe in the same workload.
type probe interface {
	// quota is how many steps the probe takes in a run.
	quota() int
	// step does step i of the quota.
	step(i int) error
	// fill computes the family's metrics from every step.
	fill(m map[string]float64) error
}

// interleave alternates the workload's own steps with probe steps. native
// does one step and reports the workload's progress through its run, from
// 0 to 1; a probe steps whenever its share of done steps falls behind that
// progress, and any quota left when native finishes runs last. The heap
// sampler hp, if any, is paused during probe steps, and a probe step's
// garbage is collected before the workload goes on, so the workload's
// peak heap is its own.
func interleave(native func() (float64, error), probes []probe, hp *heapPeak) error {
	done := make([]int, len(probes))
	progress := 0.0
	for {
		next := -1
		for i, p := range probes {
			if done[i] < p.quota() && float64(done[i]) < progress*float64(p.quota()) &&
				(next < 0 || float64(done[i])/float64(p.quota()) < float64(done[next])/float64(probes[next].quota())) {
				next = i
			}
		}
		if next < 0 && progress >= 1 {
			break
		}
		if next < 0 {
			var err error
			if progress, err = native(); err != nil {
				return err
			}
			continue
		}
		hp.pause(true)
		runtime.GC() // the step starts without the workload's GC debt
		err := probes[next].step(done[next])
		runtime.GC()
		hp.pause(false)
		if err != nil {
			return err
		}
		done[next]++
	}
	return nil
}

// windowNative turns a job function into interleave's native step for a
// run of length d: whole seeded permutations of n jobs, the last one
// finished even past d, so every target weighs the same, and at least
// minPerms of them, so that a slow host still yields enough samples for
// the tail percentiles rather than a failed run.
func windowNative(d time.Duration, n, minPerms int, rng *rand.Rand, job func(i int)) func() (float64, error) {
	start := time.Now()
	perm, k, perms := rng.Perm(n), 0, 0
	return func() (float64, error) {
		if k == len(perm) {
			perms++
			if time.Since(start) >= d && perms >= minPerms {
				return 1, nil
			}
			perm, k = rng.Perm(n), 0
		}
		job(perm[k])
		k++
		done := float64(perms*n+k) / float64(minPerms*n)
		return min(float64(time.Since(start))/float64(d), done, 0.999), nil
	}
}

// redisProbe repairs flush-free Redis once a step and drives streams of
// perStep YCSB workloads (A–F in turn), ops operations each, through the
// repaired build. Between closed-loop jobs, op latency moved by up to half
// between fresh machines running the same operations, so crash-repair
// spreads 3600 operations (36 beyond the p99) over 36 short-lived
// machines. In daemon-mixed's pauses, next to the daemon's large heap,
// short streams made the p99 move by a third between runs of the same
// code and 300-operation streams did not, so it drives 7200 operations on
// 24 machines.
type redisProbe struct {
	stream  *ycsbStream
	perStep int
	repairs []float64
	lat     []float64
	tot     ycsbTotals
}

func newRedisProbe(seed int64, ops, perStep int) (*redisProbe, error) {
	s, err := newYCSBStream(seed, ops)
	if err != nil {
		return nil, err
	}
	return &redisProbe{stream: s, perStep: perStep}, nil
}

func (p *redisProbe) quota() int { return 12 }

func (p *redisProbe) step(i int) error {
	p0 := snapProc()
	resp, err := repairRedis()
	if err != nil {
		return err
	}
	p.repairs = append(p.repairs, cpuSince(p0))
	for k := 0; k < p.perStep; k++ {
		w := (p.perStep*i + k) % len(p.stream.ops)
		t, err := p.stream.drivePart(w, resp.Module, &p.lat)
		p.tot = p.tot.plus(t)
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *redisProbe) fill(m map[string]float64) error {
	m["redis_repair_ms"] = median(p.repairs)
	return ycsbMetrics(m, p.tot, p.lat)
}

// jobsProbe runs seeded permutations of the corpus repairs without crash
// validation, one permutation a step: enough jobs for a p95, and no
// crashsim work. These jobs take a few milliseconds, and a collection
// that lands on one about doubles it: with the collector running where it
// happened to, the median flipped between the two and spread 0.18 over
// ten seeds. So every job starts right after a forced collection, not
// charged to it, and the probe's times are the repairs' own work.
type jobsProbe struct {
	jobs []repairJob
	rng  *rand.Rand
	l    loopStats
}

func newJobsProbe(seed int64) *jobsProbe {
	return &jobsProbe{jobs: corpusJobs(false), rng: rand.New(rand.NewSource(seed))}
}

func (p *jobsProbe) quota() int { return 12 }

func (p *jobsProbe) step(int) error {
	for _, i := range p.rng.Perm(len(p.jobs)) {
		runtime.GC()
		if err := runRepairJob(&p.l, p.jobs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (p *jobsProbe) fill(m map[string]float64) error { return p.l.jobMetrics(m) }

// The daemon probe sends each burst of Poisson arrivals to a fresh
// in-process daemon, primed with the four over-persisting programs'
// check+optimize requests: byte-identical resubmits of those
// (response-cache hits), and at seeded places in every burst
// daemonProbeFresh requests for the same programs with a deadline of
// their own, which miss the response cache and run trace, check and
// optimize in full. The fresh ones are 8% of the arrivals and alike in
// cost, so the p95 falls inside their CPU times rather than in the tail
// of a mixed population (with one arrival in seven a static repair of one
// of eleven pmdk reproducers, it was that tail). The daemon lives only
// for its burst, so its caches are no part of the workload's heap. Like
// the daemon-mixed proportions, this shape is an assumption, not recorded
// traffic.
const (
	daemonProbeRate  = 400.0
	daemonProbeBurst = 100
	daemonProbeFresh = 8
)

type daemonProbe struct {
	rng   *rand.Rand
	gen   *requestGen
	prime []*daemonReq
	reqs  []*daemonReq
	run   daemonRun
}

func newDaemonProbe(seed int64) (*daemonProbe, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &daemonProbe{rng: rng, gen: newRequestGen(rng)}
	for i := 0; i < 4; i++ {
		r, err := p.gen.next("overpersist", i)
		if err != nil {
			return nil, err
		}
		p.prime = append(p.prime, r)
	}
	return p, nil
}

func (p *daemonProbe) quota() int { return 18 }

func (p *daemonProbe) step(int) error {
	due := make([]time.Duration, daemonProbeBurst)
	reqs := make([]*daemonReq, daemonProbeBurst)
	t := 0.0
	for i := range due {
		t += p.rng.ExpFloat64() / daemonProbeRate
		due[i] = time.Duration(t * float64(time.Second))
		reqs[i] = p.prime[p.rng.Intn(len(p.prime))]
	}
	for _, i := range p.rng.Perm(daemonProbeBurst)[:daemonProbeFresh] {
		r, err := p.gen.next("overpersist", len(p.prime)+len(p.reqs)+i)
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	d := startDaemon()
	if err := d.prime(p.prime); err != nil {
		d.stop()
		return err
	}
	replies := make([]reply, len(reqs))
	cpu := make([]float64, len(reqs))
	lines, _ := openLoop(due, 1, func(i int) {
		c0 := snapProc()
		replies[i] = d.post(reqs[i].body)
		cpu[i] = cpuSince(c0)
	})
	if err := d.stop(); err != nil {
		return err
	}
	p.reqs = append(p.reqs, reqs...)
	p.run.lines = append(p.run.lines, lines...)
	p.run.replies = append(p.run.replies, replies...)
	p.run.cpu = append(p.run.cpu, cpu...)
	return nil
}

func (p *daemonProbe) fill(m map[string]float64) error {
	refs, err := references(p.reqs)
	if err != nil {
		return err
	}
	if failed, first := p.run.verify(p.reqs, refs); failed > 0 {
		return fmt.Errorf("daemon probe: %d failed, first: %w", failed, first)
	}
	return p.run.daemonMetrics(m, false)
}
