package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/progen"
	"hippocrates/internal/server"
)

// The daemon-mixed traffic: Poisson arrivals at daemonRate, and a latency
// limit a request must meet to count as served well. The measured open
// loop sends over one connection, so that the process CPU time from a
// request's send to its reply is that request's alone; at this rate the
// connection is a little over half busy. The rate sets how many requests
// a run of a given length measures, and with them how steady the tail
// percentiles are: at 60 req/s the p95 spread 0.10 over six seeds.
const (
	daemonRate = 90.0
	daemonSLO  = time.Second
	// daemonCrashPoints / daemonCrashImages are the crash-validation
	// budgets of corpus-crash requests.
	daemonCrashPoints = 8
	daemonCrashImages = 2
)

// The request mix: how many of each kind in every block of 20 arrivals.
// Each block is shuffled by the seed, so the mix is exact over a run and
// only the order varies. The proportions are an assumption, not taken
// from recorded daemon traffic (there is none): a quarter crash
// validations, three in ten editor-loop static checks, the rest small
// static repairs, optimizer checks and identical resubmits. Redis and the
// application ports (memcached, pclht, nvtree, pmlog) stay out, so crash
// validation and corpus static repairs cover the small pmdk reproducers:
// a static repair or crash sweep of the others takes several times a
// typical request, so a few of them would set the tail alone. The
// crash-repair workload sweeps those.
var daemonMix = []struct {
	kind  string
	count int
}{
	{"corpus-crash", 5},   // repair + crash validation of a pmdk reproducer
	{"layered-static", 6}, // static check or repair of the next edit of a layered module
	{"small-static", 3},   // static repair of a pmdk reproducer
	{"overpersist", 2},    // check + optimize of an over-persisting program
	{"resubmit", 4},       // a byte-identical copy of an earlier request
}

// daemonReq is one generated request: its wire body, the key its
// reference answer is filed under, and the corpus's known answer.
type daemonReq struct {
	kind string
	req  *cli.Request
	body []byte
	// ref keys the reference answer: the request without its deadline,
	// which only bounds the work and is absent from the response.
	ref   string
	check func(*cli.Response) error
	// job is the corpus target of a corpus-crash request.
	job repairJob
}

// daemonStream generates n seeded Poisson arrivals at rate per second. A
// fixed count rather than a fixed span keeps every seed's p95 backed by
// the same number of samples.
func daemonStream(seed int64, n int, rate float64) ([]time.Duration, []*daemonReq, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := newRequestGen(rng)
	var block []string
	var due []time.Duration
	var reqs []*daemonReq
	t := 0.0
	for len(due) < n {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if len(block) == 0 {
			for _, m := range daemonMix {
				for i := 0; i < m.count; i++ {
					block = append(block, m.kind)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		kind := block[0]
		block = block[1:]
		var r *daemonReq
		if kind == "resubmit" && len(reqs) > 0 {
			r = reqs[rng.Intn(len(reqs))]
		} else {
			var err error
			if r, err = gen.next(kind, len(reqs)); err != nil {
				return nil, nil, err
			}
		}
		due = append(due, at)
		reqs = append(reqs, r)
	}
	return due, reqs, nil
}

// cycler hands out 0..n-1 in back-to-back seeded permutations, so every
// choice comes up equally often.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return i
}

// requestGen builds fresh requests of each kind.
type requestGen struct {
	rng                 *rand.Rand
	crash, small        []repairJob
	over                []*corpus.Program
	layered             *ir.Module
	edited, layeredN    int
	crashC, smallC      *cycler
	overC, edits, leafC *cycler
}

// layeredConfig sizes the edited module: 16 functions, small enough that
// a static repair costs about what a corpus repair does.
var layeredConfig = progen.LayeredConfig{Leaves: 12, Mids: 3, LeafOps: 8, PMCells: 4}

func newRequestGen(rng *rand.Rand) *requestGen {
	g := &requestGen{rng: rng, over: corpus.OverpersistPrograms(), layered: progen.Layered(layeredConfig)}
	for _, j := range corpusJobs(true) {
		if j.threads {
			continue
		}
		if j.prog.Target == "pmdk" {
			g.small = append(g.small, repairJob{prog: j.prog})
			j.points, j.images = daemonCrashPoints, daemonCrashImages
			g.crash = append(g.crash, j)
		}
	}
	g.crashC = &cycler{rng: rng, n: len(g.crash)}
	g.smallC = &cycler{rng: rng, n: len(g.small)}
	g.overC = &cycler{rng: rng, n: len(g.over)}
	g.edits = &cycler{rng: rng, n: 10}
	g.leafC = &cycler{rng: rng, n: layeredConfig.Leaves}
	return g
}

// next builds request number seq of the given kind. Every request
// carries its own deadline, so only resubmits are byte-identical.
func (g *requestGen) next(kind string, seq int) (*daemonReq, error) {
	r := &daemonReq{kind: kind}
	switch kind {
	case "corpus-crash", "resubmit":
		j := g.crash[g.crashC.next()]
		r.kind, r.req, r.job = "corpus-crash", j.request(), j
		r.check = func(resp *cli.Response) error { return checkRepair(j, resp) }
	case "small-static":
		j := g.small[g.smallC.next()]
		r.req = j.request()
		r.req.Static = true
		r.check = func(resp *cli.Response) error {
			if resp.SitesBefore < len(j.prog.Bugs) || !resp.Fixed {
				return fmt.Errorf("%s static repair: %d sites (seeded %d), fixed=%v", j.prog.Name, resp.SitesBefore, len(j.prog.Bugs), resp.Fixed)
			}
			return nil
		}
	case "overpersist":
		p := g.over[g.overC.next()]
		r.req = &cli.Request{Program: p.Name + ".pmc", Source: p.Source(), Mode: cli.ModeCheck, Entry: p.Entry, Optimize: true, StepLimit: stepLimit}
		r.check = func(resp *cli.Response) error {
			if !resp.Fixed || resp.Optimize == nil || resp.Optimize.Applied() == 0 {
				return fmt.Errorf("%s: optimize removed nothing from a clean over-persisting program", p.Name)
			}
			return checkReturn(resp.Module, p)
		}
	case "layered-static":
		if err := g.editLayered(); err != nil {
			return nil, err
		}
		// Checks and repairs alternate, so that every run has as many of
		// each (a repair costs about half again as much).
		mode := cli.ModeCheck
		if g.layeredN%2 == 0 {
			mode = cli.ModeRepair
		}
		g.layeredN++
		r.req = &cli.Request{Program: "layered.pmir", Source: ir.Print(g.layered), Mode: mode, Static: true, StepLimit: stepLimit}
		// main keeps one deliberate unflushed store through every edit.
		r.check = func(resp *cli.Response) error {
			if resp.BugsBefore == 0 || resp.Fixed != (mode == cli.ModeRepair) {
				return fmt.Errorf("layered %s: %d reports, fixed=%v", mode, resp.BugsBefore, resp.Fixed)
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("unknown request kind %q", kind)
	}
	r.req.TimeoutMS = 60_000 + int64(seq)
	body, err := json.Marshal(r.req)
	if err != nil {
		return nil, err
	}
	r.body = body
	ref := *r.req
	ref.TimeoutMS = 0
	r.ref = ref.Key()
	return r, nil
}

// editLayered applies the next seeded edit to the layered module: mostly
// summary-neutral edits to one leaf, now and then one that changes a
// leaf's persistency summary and with it every caller's. Some edits add
// stores, so after one edit per leaf the module starts over from its
// generated form: the work per request stays the same however long a run
// is, and the seeded edits still make each source new.
func (g *requestGen) editLayered() error {
	if g.edited == layeredConfig.Leaves {
		g.layered, g.edited = progen.Layered(layeredConfig), 0
	}
	g.edited++
	kind := progen.EditValue
	switch x := g.edits.next(); {
	case x == 0:
		kind = progen.EditAddPersist
	case x < 4:
		kind = progen.EditDeadLocal
	}
	return progen.ApplyEdit(g.layered, progen.EditStep{Kind: kind, Target: fmt.Sprintf("leaf%d", g.leafC.next())})
}

// daemon is an in-process hippocratesd behind a loopback HTTP listener,
// driven over at most conns keep-alive connections.
type daemon struct {
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
}

func startDaemon() *daemon {
	srv := server.New(server.Config{})
	tr := &http.Transport{MaxConnsPerHost: conns(), MaxIdleConnsPerHost: conns()}
	return &daemon{srv: srv, hs: httptest.NewServer(srv.Handler()), client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// reply is one answered request, reduced to what the checks need: the
// body is kept only as a digest.
type reply struct {
	status int
	hit    bool
	digest [32]byte
	err    error
}

func (d *daemon) post(body []byte) reply {
	resp, err := d.client.Post(d.hs.URL+"/api/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{err: err}
	}
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Hippocrates-Cache") == "hit", digest: digest(data)}
}

// crashStats matches the crash reports' stats sub-objects: cache and
// image accounting that depends on which jobs shared a verdict cache, the
// one part of a response allowed to differ between a loaded daemon and a
// sequential run.
var crashStats = regexp.MustCompile(`"stats": \{[^{}]*\}`)

func digest(body []byte) [32]byte {
	return sha256.Sum256(crashStats.ReplaceAll(body, nil))
}

func (d *daemon) metrics() (*server.MetricsDoc, error) {
	resp, err := d.client.Get(d.hs.URL + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc server.MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &doc, nil
}

// phaseMeanMS is a phase's mean latency over the daemon's 5-minute window.
func phaseMeanMS(doc *server.MetricsDoc, phase string) float64 {
	for _, w := range doc.Windows {
		if w.Phase == phase && w.Window == "5m" {
			return ratio(float64(w.SumNS), float64(w.Count)) / 1e6
		}
	}
	return 0
}

// references answers every distinct request with a sequential in-process
// cli.Run, as a lone hippocrates run would, and holds that answer to the
// corpus's known answers. The daemon must return the same bytes.
func references(reqs []*daemonReq) (map[string][32]byte, error) {
	out := map[string][32]byte{}
	for _, r := range reqs {
		if _, ok := out[r.ref]; ok {
			continue
		}
		q := *r.req
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(&q, root)
		root.End()
		if err != nil {
			return nil, fmt.Errorf("reference %s %s: %w", r.kind, r.req.Program, err)
		}
		if err := r.check(resp); err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.kind, err)
		}
		data, err := resp.EncodeJSON()
		if err != nil {
			return nil, err
		}
		out[r.ref] = digest(data)
	}
	return out, nil
}

// daemonRun is one open loop against a fresh daemon.
type daemonRun struct {
	lines   []timeline
	replies []reply
	cpu     []float64 // CPU ms per request
	peak    int
	proc    loopStats
	doc     *server.MetricsDoc
}

// daemonPrimers are the requests that warm a fresh daemon up before it is
// measured: every corpus target in both pipelines, every over-persisting
// program and a few layered edits, so that compiled artifacts, verdict
// caches and the summary store hold what a long-running daemon's would.
// Their deadlines differ from every measured request's, so none of them
// answers a measured request from the response cache.
func daemonPrimers(seed int64) ([]*daemonReq, error) {
	gen := newRequestGen(rand.New(rand.NewSource(seed + 1)))
	var out []*daemonReq
	for _, k := range []struct {
		kind string
		n    int
	}{{"corpus-crash", len(gen.crash)}, {"small-static", len(gen.small)}, {"overpersist", len(gen.over)}, {"layered-static", 2}} {
		for i := 0; i < k.n; i++ {
			r, err := gen.next(k.kind, -1-len(out))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// prime sends reqs to d one at a time, waiting for each answer.
func (d *daemon) prime(reqs []*daemonReq) error {
	for _, r := range reqs {
		if rep := d.post(r.body); rep.err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("priming %s %s: status %d: %v", r.kind, r.req.Program, rep.status, rep.err)
		}
	}
	return nil
}

// daemonSegments is how many parts the open loop is cut into when probes
// run with it: each part is an open loop of its own, and the probe steps
// fall in the pauses between parts (and after the last), while the daemon
// is idle, so that both are measured across the whole run.
const daemonSegments = 4

// driveDaemon sends the arrivals to d over senders connections, in
// segments with the probes' steps between them if there are probes, then
// stops d. Process CPU, allocation and peak heap cover the open loops
// alone. Each request's CPU time is the process's from send to reply,
// which is that request's own only with a single sender.
func driveDaemon(d *daemon, due []time.Duration, reqs []*daemonReq, tr *tracer, probes []probe, senders int) (*daemonRun, error) {
	run := &daemonRun{replies: make([]reply, len(reqs)), cpu: make([]float64, len(reqs))}
	segs := 1
	if len(probes) > 0 {
		segs = daemonSegments
	}
	runtime.GC()
	hp := startHeapPeak()
	k := 0
	err := interleave(func() (float64, error) {
		a, b := k*len(due)/segs, (k+1)*len(due)/segs
		seg := make([]time.Duration, b-a)
		for i := range seg {
			seg[i] = due[a+i] - due[a]
		}
		p0 := snapProc()
		lines, peak := openLoop(seg, senders, func(i int) {
			s := tr.start(a+i+1, nil, "http.request")
			c0 := snapProc()
			run.replies[a+i] = d.post(reqs[a+i].body)
			run.cpu[a+i] = cpuSince(c0)
			s.end()
		})
		p1 := snapProc()
		run.lines = append(run.lines, lines...)
		run.peak = max(run.peak, peak)
		run.proc.cpu += p1.cpu - p0.cpu
		run.proc.alloc += p1.alloc - p0.alloc
		k++
		return float64(k) / float64(segs), nil
	}, probes, hp)
	run.proc.peakHeap = hp.end()
	run.proc.attempted = len(reqs)
	if err != nil {
		d.stop()
		return nil, err
	}
	doc, err := d.metrics()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	run.doc = doc
	return run, err
}

// verify holds every reply to its reference; it returns how many failed:
// refused, errored, or answered with other bytes than a sequential run.
func (run *daemonRun) verify(reqs []*daemonReq, refs map[string][32]byte) (failed int, first error) {
	for i, rep := range run.replies {
		var err error
		switch {
		case rep.err != nil:
			err = rep.err
		case rep.status != http.StatusOK:
			err = fmt.Errorf("status %d", rep.status)
		case rep.digest != refs[reqs[i].ref]:
			err = fmt.Errorf("body differs from a sequential cli.Run")
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("request %d (%s %s): %w", i, reqs[i].kind, reqs[i].req.Program, err)
			}
		}
	}
	return failed, first
}

// daemonMetrics fills the daemon family (and, for daemon-mixed, the job
// family from the requests that were not response-cache hits) from a
// verified run of one sender: per-request CPU time, and the share of
// requests answered within the SLO from their due time.
func (run *daemonRun) daemonMetrics(m map[string]float64, jobs bool) error {
	var jobCPU []float64
	ok, total := 0, 0.0
	for i, t := range run.lines {
		rep := run.replies[i]
		if rep.status == http.StatusOK && rep.err == nil && t.latency() <= daemonSLO {
			ok++
		}
		if !rep.hit {
			jobCPU = append(jobCPU, run.cpu[i])
			total += run.cpu[i]
		}
	}
	p95, err := percentile(run.cpu, 0.95)
	if err != nil {
		return fmt.Errorf("daemon_p95_ms: %w", err)
	}
	m["daemon_p50_ms"] = median(run.cpu)
	m["daemon_p95_ms"] = p95
	m["daemon_slo_ok_ratio"] = float64(ok) / float64(len(run.lines))
	if !jobs {
		return nil
	}
	jobP95, err := percentile(jobCPU, 0.95)
	if err != nil {
		return fmt.Errorf("repair_p95_ms: %w", err)
	}
	m["repair_jobs_per_s"] = float64(len(jobCPU)) / (total / 1e3)
	m["repair_p50_ms"] = median(jobCPU)
	m["repair_p95_ms"] = jobP95
	return nil
}
