package main

import (
	"fmt"
	"time"

	"hippocrates/internal/alias"
	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

// stepLimit bounds every interpreter run the benchmark's jobs make.
const stepLimit = 50_000_000

// repairJob is one corpus repair request with the answers the corpus
// records for it, independent of the tool: how many distinct buggy sites
// were seeded and what the workload returns when it runs correctly.
type repairJob struct {
	prog    *corpus.Program
	threads bool
	crash   bool
	// points / images are the crash-validation budgets (0 = the crashsim
	// defaults hippocrates -crashcheck uses).
	points, images int
}

func (j repairJob) request() *cli.Request {
	return &cli.Request{
		Program:     j.prog.Name + ".pmc",
		Source:      j.prog.Source(),
		Mode:        cli.ModeRepair,
		Entry:       j.prog.Entry,
		CrashCheck:  j.crash,
		CrashPoints: j.points,
		CrashImages: j.images,
		Threads:     j.threads,
		StepLimit:   stepLimit,
	}
}

// corpusJobs lists the crash-repair targets: every corpus program with
// seeded bugs and recovery entries (all but the redis ports, which carry
// none), then the concurrent programs under the threads pipeline.
func corpusJobs(crash bool) []repairJob {
	var out []repairJob
	for _, p := range corpus.All() {
		if p.Target == "redis" || len(p.Bugs) == 0 {
			continue
		}
		out = append(out, repairJob{prog: p, crash: crash})
	}
	for _, p := range corpus.MTPrograms() {
		out = append(out, repairJob{prog: p.Program, threads: true, crash: crash})
	}
	return out
}

// checkRepair holds a repair response to the corpus's answers: every
// seeded bug found as its own site, the module fixed, and the repaired
// workload still returning what it should.
func checkRepair(j repairJob, resp *cli.Response) error {
	if resp.SitesBefore != len(j.prog.Bugs) {
		return fmt.Errorf("%s: %d buggy sites, corpus seeds %d", j.prog.Name, resp.SitesBefore, len(j.prog.Bugs))
	}
	if !resp.Fixed || resp.BugsAfter != 0 {
		return fmt.Errorf("%s: not fixed (%d reports left)", j.prog.Name, resp.BugsAfter)
	}
	return checkReturn(resp.Module, j.prog)
}

func checkReturn(mod *ir.Module, p *corpus.Program) error {
	mach, err := interp.New(mod, interp.Options{StepLimit: stepLimit})
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	ret, err := mach.Run(p.Entry)
	if err != nil {
		return fmt.Errorf("%s: repaired run: %w", p.Name, err)
	}
	if ret != p.WantRet {
		return fmt.Errorf("%s: repaired run returned %d, want %d", p.Name, ret, p.WantRet)
	}
	return nil
}

// runRepairJob is one untraced job: cli.Run as hippocrates runs it (no
// telemetry recorder), timed into l, then checked outside the timing.
func runRepairJob(l *loopStats, j repairJob) error {
	var resp *cli.Response
	err := l.job(func() error {
		var err error
		resp, err = cli.Run(j.request(), nil)
		return err
	})
	if l.byTarget == nil {
		l.byTarget = map[string][]float64{}
	}
	l.byTarget[j.prog.Name] = append(l.byTarget[j.prog.Name], l.lat[len(l.lat)-1])
	if err == nil {
		err = checkRepair(j, resp)
	}
	if err != nil {
		l.failed++
	}
	return err
}

// tracedRepairJob runs one job three ways: cli.Run untraced, the
// decomposed sequence of public calls under spans, and cli.Run again
// under a sibling span, checking both cli.Run answers. What cli.Run
// spends beyond the decomposed layers (the per-fix incremental crash
// rounds, response rendering) is the work the public API cannot split;
// it is charged to core.incremental_rounds_ms. The caller ends the
// returned job span.
func tracedRepairJob(tr *tracer, p *pass, id int, j repairJob, check func(*cli.Response) error) (*span, *cli.Response, error) {
	t0 := time.Now()
	resp, err := cli.Run(j.request(), nil)
	p.cliUntraced += ms(time.Since(t0))
	if err == nil {
		err = check(resp)
	}
	if err != nil {
		return nil, nil, err
	}

	root := tr.start(id, nil, "job")
	mark := tr.mark()
	if err := decomposedRepair(tr, root, id, j); err != nil {
		root.end()
		return nil, nil, err
	}
	sum := 0.0
	for _, s := range tr.since(mark) {
		if s.Parent == root.ID && s.Name != "alias.analyze" {
			sum += s.dur() // core.Repair runs its own alias analysis
		}
	}
	cs := tr.start(id, root, "cli.run")
	resp, err = cli.Run(j.request(), nil)
	cs.end()
	if err == nil {
		err = check(resp)
	}
	if err != nil {
		root.end()
		return nil, nil, err
	}
	p.cliTraced += cs.dur()
	p.extra["core.incremental_rounds_ms"] += (cs.dur() - sum) / float64(p.jobs)
	return root, resp, nil
}

// decomposedRepair is the repair pipeline as a sequence of public calls,
// one span each: compile, trace (or explore), detect, alias, repair,
// revalidate, crash-validate.
func decomposedRepair(tr *tracer, root *span, id int, j repairJob) error {
	s := tr.start(id, root, "lang.compile")
	mod, err := lang.Compile(j.prog.Name+".pmc", j.prog.Source())
	s.end()
	if err != nil {
		return err
	}
	s.add("lang.instrs", float64(mod.NumInstrs()))
	opts := core.Options{StepLimit: stepLimit}

	var (
		trc    *trace.Trace
		before *pmcheck.Result
		runs   [][]int
	)
	if j.threads {
		ex, err := explore(tr, root, id, mod, j.prog.Entry, opts)
		if err != nil {
			return err
		}
		trc, before = ex.Runs[0].Trace, unionCheck(ex.Runs)
		root.add("pmcheck.reports", float64(len(before.Reports)))
	} else {
		if trc, err = traceModule(tr, root, id, mod, j.prog.Entry, opts); err != nil {
			return err
		}
		before = detect(tr, root, id, trc)
	}

	s = tr.start(id, root, "alias.analyze")
	alias.Analyze(mod)
	s.end()

	s = tr.start(id, root, "core.repair")
	fix, err := core.Repair(mod, trc, before, opts)
	s.end()
	if err != nil {
		return err
	}
	s.add("core.fixes", float64(len(fix.Fixes)))
	s.add("core.clones", float64(fix.ClonesCreated))
	s.add("core.interproc_fixes", float64(fix.InterprocFixes()))

	var after *pmcheck.Result
	if j.threads {
		ex, err := explore(tr, root, id, mod, j.prog.Entry, opts)
		if err != nil {
			return err
		}
		after = unionCheck(ex.Runs)
		for _, r := range ex.Runs {
			runs = append(runs, r.Choices)
		}
	} else {
		trc2, err := traceModule(tr, root, id, mod, j.prog.Entry, opts)
		if err != nil {
			return err
		}
		after = detect(tr, root, id, trc2)
		runs = [][]int{nil}
	}
	if !after.Clean() {
		return fmt.Errorf("%s: decomposed repair left %d reports", j.prog.Name, len(after.Reports))
	}
	if !j.crash {
		return nil
	}
	// One verdict cache across a job's sweeps, as the pipeline shares one
	// across the schedules of a concurrent program.
	cache := crashsim.NewVerdictCache()
	for _, sched := range runs {
		s = tr.start(id, root, "crashsim.validate")
		rep, err := crashsim.Validate(mod, crashsim.Options{
			Entry: j.prog.Entry, Schedule: sched, StepLimit: stepLimit, Cache: cache,
			MaxPoints: j.points, MaxImages: j.images,
		})
		s.end()
		if err != nil {
			return err
		}
		addCrashCounts(s, rep)
		if !rep.Passed() {
			return fmt.Errorf("%s: decomposed crash validation failed", j.prog.Name)
		}
	}
	return nil
}

func addCrashCounts(s *span, rep *crashsim.Report) {
	s.add("crashsim.points", float64(rep.Points))
	s.add("crashsim.schedules", float64(rep.Schedules))
	s.add("crashsim.images_built", float64(rep.ImagesBuilt))
	s.add("crashsim.deduped_schedules", float64(rep.DedupedSchedules))
	s.add("crashsim.cache_hits", float64(rep.CacheHits))
	s.add("crashsim.cache_misses", float64(rep.CacheMisses))
	s.add("crashsim.pages_copied", float64(rep.PagesCopied))
	s.add("crashsim.pages_shared", float64(rep.PagesShared))
}

// traceModule runs core.TraceModuleOpts under a span, reading the
// interpreter's step count from the telemetry the call publishes.
func traceModule(tr *tracer, root *span, id int, mod *ir.Module, entry string, opts core.Options) (*trace.Trace, error) {
	rec := obs.New()
	osp := rec.StartSpan("trace")
	s := tr.start(id, root, "interp.trace")
	trc, err := core.TraceModuleOpts(osp, mod, entry, opts)
	s.end()
	osp.End()
	if err != nil {
		return nil, err
	}
	s.add("interp.steps", float64(rec.Counter("interp.steps")))
	s.add("trace.events", float64(len(trc.Events)))
	return trc, nil
}

func detect(tr *tracer, root *span, id int, trc *trace.Trace) *pmcheck.Result {
	s := tr.start(id, root, "pmcheck.detect")
	res := pmcheck.Check(trc)
	s.end()
	s.add("pmcheck.reports", float64(len(res.Reports)))
	return res
}

// explore runs core.ExploreModule under a span; the detector runs inside
// it, once per explored schedule.
func explore(tr *tracer, root *span, id int, mod *ir.Module, entry string, opts core.Options) (*schedule.Result, error) {
	s := tr.start(id, root, "schedule.explore")
	ex, err := core.ExploreModule(mod, entry, opts)
	s.end()
	if err != nil {
		return nil, err
	}
	s.add("schedule.explored", float64(ex.Explored))
	s.add("schedule.pruned", float64(ex.Pruned))
	return ex, nil
}

// unionCheck is the detector verdict over every explored schedule: the
// default schedule's result carrying the class-deduplicated union of all
// runs' reports, which is what the concurrent pipeline repairs.
func unionCheck(runs []*schedule.Run) *pmcheck.Result {
	u := *runs[0].Check
	var all []*pmcheck.Report
	for _, r := range runs {
		all = append(all, r.Check.Reports...)
	}
	u.Reports = pmcheck.DedupeByClass(all)
	return &u
}
