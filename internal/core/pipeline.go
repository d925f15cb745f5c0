package core

import (
	"fmt"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

// ScheduleCrash pairs one explored interleaving with its crash-validation
// report.
type ScheduleCrash struct {
	// ID is the interleaving's replayable schedule id ("rr" for the
	// round-robin schedule, the only one a spawn-free program has).
	ID string
	// Report is the crash sweep of the workload run under that
	// interleaving.
	Report *crashsim.Report
}

// PipelineResult is the outcome of the dynamic trace→detect→fix→re-check
// loop (Fig. 2 of the paper, Steps 1–4 plus validation) over the set of
// executions the interleaving search explores. A one-schedule budget is
// the paper's single trace; so is any spawn-free program, which has no
// other interleaving to explore.
type PipelineResult struct {
	// Exploration is the search over the module as given; ReExploration
	// the search over the repaired module (nil when no repair ran).
	// Exploration is nil only after Verify with crash validation and a
	// one-schedule budget, which validates the round-robin schedule
	// without a detector run.
	Exploration   *schedule.Result
	ReExploration *schedule.Result
	// Before / After are the detector verdicts pre- and post-repair. A
	// single schedule's verdict is its own detector result; across
	// several, the counters describe the default-schedule run while
	// Reports is the class-deduplicated union across every explored
	// interleaving — a bug visible under any schedule is repaired, not
	// just one the default order happens to expose.
	Before *pmcheck.Result
	After  *pmcheck.Result
	// Fix describes the applied fixes (nil when Before was already clean
	// or no repair stage ran).
	Fix *Result
	// Crash holds one crash-validation report per schedule of the final
	// exploration, in exploration order, when Options.CrashCheck
	// requested the stage (empty otherwise). All sweeps share one
	// verdict cache: images that different interleavings produce
	// identically are judged once.
	Crash []ScheduleCrash
	// CrashRounds holds the intermediate crash-validation reports of the
	// incremental path: with CrashCheck set, a single explored schedule,
	// and more than one fix to apply, round i re-validates the module
	// right after fix i+1 landed, reusing the shared verdict cache (so
	// each round mostly re-judges only the images the new fix changed).
	// Intermediate rounds commonly fail — later fixes have not been
	// applied yet — which is why Fixed consults only the final reports
	// in Crash.
	CrashRounds []*crashsim.Report
}

// Fixed reports whether the module is clean after the loop: no detector
// reports remain under any explored schedule, and — when crash
// validation ran — every crash schedule of every explored interleaving
// recovered cleanly.
func (p *PipelineResult) Fixed() bool {
	return (p.After == nil || p.After.Clean()) && p.CrashPassed()
}

// CrashPassed reports whether every crash sweep in Crash passed (true
// when none ran).
func (p *PipelineResult) CrashPassed() bool {
	for _, c := range p.Crash {
		if !c.Report.Passed() {
			return false
		}
	}
	return true
}

// Final returns the exploration describing the module as it stands: the
// re-exploration when a repair ran, the original otherwise.
func (p *PipelineResult) Final() *schedule.Result {
	if p.ReExploration != nil {
		return p.ReExploration
	}
	return p.Exploration
}

// Trace returns the detector trace of the module as given under its
// first explored (the round-robin) schedule, or nil when no exploration
// ran.
func (p *PipelineResult) Trace() *trace.Trace {
	if p.Exploration == nil {
		return nil
	}
	return p.Exploration.Runs[0].Trace
}

// TraceModule executes mod's entry function on the simulator and returns
// the recorded PM trace. As the paper does for trace generation (§5.1),
// the module is used as-is, unoptimized.
func TraceModule(mod *ir.Module, entry string, args ...uint64) (*trace.Trace, error) {
	return TraceModuleOpts(nil, mod, entry, Options{}, args...)
}

// TraceModuleOpts is TraceModule under a "trace" child span of sp, with
// the pipeline's resource limits applied to the interpreter run: the
// interpreter's run statistics (steps, per-opcode counts) and the
// trace's PM-event breakdown are published into the span's recorder (a
// nil span records nothing). Interpreter panics are recovered into a
// *PanicError.
func TraceModuleOpts(sp *obs.Span, mod *ir.Module, entry string, opts Options, args ...uint64) (out *trace.Trace, err error) {
	defer guard("trace", &err)
	_, tr, err := traceRun(sp, mod, entry, opts, args)
	return tr, err
}

// traceRun is TraceModuleOpts without the panic guard, also returning
// the machine so a caller can read its decision log.
func traceRun(sp *obs.Span, mod *ir.Module, entry string, opts Options, args []uint64) (*interp.Machine, *trace.Trace, error) {
	tsp := sp.Start("trace")
	defer tsp.End()
	tsp.SetAttr("entry", entry)
	tr := &trace.Trace{Program: mod.Name}
	mach, err := interp.New(mod, interp.Options{
		Trace: tr, StepLimit: opts.StepLimit, Deadline: opts.Deadline,
	})
	if err != nil {
		return nil, nil, err
	}
	_, err = mach.Run(entry, args...)
	mach.RecordObs(tsp)
	tsp.Add("trace.events", int64(len(tr.Events)))
	for k, n := range tr.KindCounts() {
		if n > 0 {
			tsp.Add("trace.event."+trace.Kind(k).String(), int64(n))
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("tracing @%s: %w", entry, err)
	}
	return mach, tr, nil
}

// RunAndRepair runs the whole Hippocrates workflow on mod, mutating it in
// place. It explores the entry point's thread interleavings (up to
// Options.MaxSchedules; a budget of one is the single round-robin trace),
// detects durability bugs under every explored schedule, computes and
// applies fixes for the union of the reports, then re-explores and
// re-checks to validate that the bugs are gone (the validation step of
// §6.1). With Options.CrashCheck set, a fourth stage crash-injects the
// repaired module under every explored schedule at sampled PM event
// boundaries and runs its recovery entries on each feasible post-crash
// image (the reports land in PipelineResult.Crash; schedule failures
// are data, not an error). A runtime fault under any interleaving
// (deadlock, assertion, double join) is not a durability bug flush
// insertion can heal, so it surfaces as an error, before or after
// repair.
//
// When opts.Obs is set, the phases record spans under it. A one-schedule
// exploration records trace and detect; a wider one records one explore
// span. Then come plan, apply, a revalidate span around the
// re-exploration, and crashsim. Panics from any phase are recovered
// into a *PanicError: the pipeline returns errors, it never takes the
// process down.
func RunAndRepair(mod *ir.Module, entry string, opts Options, args ...uint64) (*PipelineResult, error) {
	return runLoop(mod, entry, opts, args, nil, true)
}

// RepairTrace is RunAndRepair with a pre-recorded trace of the module as
// given standing in for its exploration: the trace is the one explored
// schedule, detection runs against it, and revalidation re-explores the
// repaired module as usual.
func RepairTrace(mod *ir.Module, tr *trace.Trace, entry string, opts Options, args ...uint64) (*PipelineResult, error) {
	return runLoop(mod, entry, opts, args, tr, true)
}

// Verify is the loop without its repair stage: explore the module as
// given, fold the per-schedule verdicts, and — with Options.CrashCheck
// set — crash-validate every explored schedule. The module is not
// mutated. Crash validation under a one-schedule budget validates the
// round-robin schedule directly: no exploration run, no detector
// verdict (Exploration, Before and After stay nil).
func Verify(mod *ir.Module, entry string, opts Options, args ...uint64) (*PipelineResult, error) {
	return runLoop(mod, entry, opts, args, nil, false)
}

// runLoop is the one dynamic loop behind RunAndRepair, RepairTrace and
// Verify: explore (or take the replay trace as the one schedule), fold
// the verdicts, repair and re-explore when repair is set, and
// crash-validate every final schedule through one crashOpts.
func runLoop(mod *ir.Module, entry string, opts Options, args []uint64, replay *trace.Trace, repair bool) (out *PipelineResult, err error) {
	defer guard("pipeline", &err)
	sp := opts.Obs
	copts := crashOpts(opts, entry, args)
	out = &PipelineResult{}
	var ex *schedule.Result
	switch {
	case replay != nil:
		ex = schedule.Single(&schedule.Run{
			ID: interp.ScheduleID(nil), Trace: replay, Check: pmcheck.CheckObs(sp, replay), Threads: 1,
		})
	case copts != nil && !repair && opts.MaxSchedules == 1:
		// Crash-only validation of the round-robin schedule needs no
		// detector run: crashsim runs the workload itself.
	default:
		if ex, err = explore(sp, mod, entry, opts, args); err != nil {
			return nil, err
		}
	}
	if ex != nil {
		out.Exploration = ex
		out.Before = unionCheck(ex)
		out.After = out.Before
	}
	if repair && !out.Before.Clean() {
		// The default-schedule trace resolves report sites; those are
		// instruction ids, the same under every schedule.
		tr := ex.Runs[0].Trace
		if copts != nil && len(ex.Runs) == 1 {
			err = repairIncremental(mod, tr, out.Before, opts, copts, out)
		} else {
			out.Fix, err = Repair(mod, tr, out.Before, opts)
		}
		if err != nil {
			return nil, err
		}
		rsp := sp.Start("revalidate")
		out.ReExploration, err = explore(rsp, mod, entry, opts, args)
		if err != nil {
			rsp.End()
			return nil, fmt.Errorf("revalidating repaired module: %w", err)
		}
		out.After = unionCheck(out.ReExploration)
		rsp.Add("revalidate.remaining_reports", int64(len(out.After.Reports)))
		rsp.End()
	}
	if err := crashValidate(mod, copts, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ExploreModule is the loop's exploration stage alone: the bounded
// interleaving search plus the per-schedule detector, with the
// pipeline's limits and telemetry applied. A runtime fault under any
// interleaving is an error, as in RunAndRepair.
func ExploreModule(mod *ir.Module, entry string, opts Options, args ...uint64) (*schedule.Result, error) {
	return explore(opts.Obs, mod, entry, opts, args)
}

// explore runs one exploration under sp. A one-schedule budget is the
// round-robin run alone, traced and checked under trace and detect
// spans; a wider budget runs schedule.Explore under an explore span.
func explore(sp *obs.Span, mod *ir.Module, entry string, opts Options, args []uint64) (*schedule.Result, error) {
	if opts.MaxSchedules == 1 {
		mach, tr, err := traceRun(sp, mod, entry, opts, args)
		if err != nil {
			return nil, err
		}
		run := schedule.RunOf(mach, tr)
		run.Check = pmcheck.CheckObs(sp, tr)
		return schedule.Single(run), nil
	}
	esp := sp.Start("explore")
	defer esp.End()
	esp.SetAttr("entry", entry)
	ex, err := schedule.Explore(mod, entry, args, schedule.Options{
		MaxSchedules: opts.MaxSchedules,
		Interp:       interp.Options{StepLimit: opts.StepLimit, Deadline: opts.Deadline},
		Obs:          esp,
	})
	if err != nil {
		return nil, err
	}
	for _, r := range ex.Runs {
		if r.Err != nil {
			return nil, fmt.Errorf("schedule %s: @%s faulted: %w", r.ID, entry, r.Err)
		}
	}
	return ex, nil
}

// unionCheck folds the per-schedule detector results into one. A single
// schedule's verdict is its own result. Across several: counters from
// the default-schedule run, reports class-deduplicated across every
// explored interleaving, thread/publish tallies maximized.
func unionCheck(ex *schedule.Result) *pmcheck.Result {
	if len(ex.Runs) == 1 {
		return ex.Runs[0].Check
	}
	u := *ex.Runs[0].Check
	var all []*pmcheck.Report
	threads, publishes := 0, 0
	for _, r := range ex.Runs {
		all = append(all, r.Check.Reports...)
		if r.Check.Threads > threads {
			threads = r.Check.Threads
		}
		if r.Check.CrossThreadPublishes > publishes {
			publishes = r.Check.CrossThreadPublishes
		}
	}
	u.Reports = pmcheck.DedupeByClass(all)
	u.Threads = threads
	u.CrossThreadPublishes = publishes
	return &u
}

// crashOpts resolves Options.CrashCheck against the pipeline's own
// entry, args, limits, and obs span (nil when the stage is off), and
// gives the run a verdict cache so the incremental rounds and the final
// validation share memoized recovery outcomes.
func crashOpts(opts Options, entry string, args []uint64) *crashsim.Options {
	if opts.CrashCheck == nil {
		return nil
	}
	copts := *opts.CrashCheck
	if copts.Entry == "" {
		copts.Entry = entry
	}
	if copts.Args == nil {
		copts.Args = args
	}
	if copts.Obs == nil {
		copts.Obs = opts.Obs
	}
	if copts.StepLimit == 0 {
		copts.StepLimit = opts.StepLimit
	}
	if copts.Deadline.IsZero() {
		copts.Deadline = opts.Deadline
	}
	if copts.Cache == nil && !copts.NoDedup {
		copts.Cache = crashsim.NewVerdictCache()
	}
	return &copts
}

// repairIncremental is Repair interleaved with crash validation: after
// each applied fix but the last, the partially repaired module is
// crash-validated with the shared verdict cache, so the caller gets a
// per-fix account of how the schedule failures shrink. (The last fix's
// validation is the pipeline's final crashValidate stage.) The cache is
// reset whenever a fix mutates code reachable from a recovery entry —
// memoized verdicts describe recovery code that no longer exists then —
// and survives otherwise: image hashes are content-addressed, so the
// workload-side changes each fix makes simply hash to new keys.
func repairIncremental(mod *ir.Module, tr *trace.Trace, res *pmcheck.Result, opts Options,
	copts *crashsim.Options, out *PipelineResult) (err error) {
	defer guard("repair", &err)
	fx := NewFixer(mod, tr, opts)
	plans, err := fx.computePlans(res.Reports)
	if err != nil {
		return err
	}
	asp := fx.sp.Start("apply")
	defer asp.End()
	reach := recoveryReachable(mod, copts)
	for i, p := range plans {
		if err := fx.applyPlan(p); err != nil {
			return err
		}
		if copts.Cache != nil && planTouchesRecovery(p, reach) {
			copts.Cache.Reset()
			// The fix may have made new code (clones) recovery-reachable.
			reach = recoveryReachable(mod, copts)
		}
		if i == len(plans)-1 {
			break
		}
		round := *copts
		round.Log = nil // a partially repaired module legitimately fails
		rep, rerr := crashsim.Validate(mod, round)
		if rerr != nil {
			return fmt.Errorf("crash validation after fix %d: %w", i+1, rerr)
		}
		out.CrashRounds = append(out.CrashRounds, rep)
	}
	if err := fx.finish(asp); err != nil {
		return err
	}
	out.Fix = fx.Result()
	return nil
}

// recoveryReachable returns the names of the functions reachable (via
// static calls) from the configured recovery entries — the code whose
// mutation invalidates cached verdicts.
func recoveryReachable(mod *ir.Module, copts *crashsim.Options) map[string]bool {
	inv, rec := copts.Invariant, copts.Recovery
	if inv == "" {
		inv = "invariant_check" // Validate's own defaults
	}
	if rec == "" {
		rec = "crash_check"
	}
	entries := make([]string, 0, 2)
	for _, name := range []string{inv, rec} {
		if name != "-" {
			entries = append(entries, name)
		}
	}
	reach := make(map[string]bool)
	var walk func(name string)
	walk = func(name string) {
		if reach[name] {
			return
		}
		fn := mod.Func(name)
		if fn == nil || fn.IsDecl() {
			return
		}
		reach[name] = true
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if (in.Op == ir.OpCall || in.Op == ir.OpSpawn) && in.Callee != nil {
					walk(in.Callee.Name)
				}
			}
		}
	}
	for _, e := range entries {
		walk(e)
	}
	return reach
}

// planTouchesRecovery reports whether applying p mutated any function in
// reach (the recovery-reachable set computed before the application).
func planTouchesRecovery(p *plan, reach map[string]bool) bool {
	touched := func(in *ir.Instr) bool {
		if in == nil {
			return false
		}
		blk := in.Block()
		return blk != nil && reach[blk.Func().Name]
	}
	if touched(p.storeIn) {
		return true
	}
	for _, fin := range p.fenceAfter {
		if touched(fin) {
			return true
		}
	}
	if p.hoist != nil && touched(p.hoist.callIn) {
		return true
	}
	if p.groupLeader != nil && touched(p.groupLeader.storeIn) {
		return true
	}
	return false
}

// crashValidate runs the optional crash-validation stage on the
// (possibly just repaired) module under every schedule of the final
// exploration — the round-robin schedule when none ran — sharing
// copts' verdict cache so images common to several interleavings are
// judged once. Like the explore span's schedule counters, the swept
// total is recorded only for a budget wider than one schedule.
func crashValidate(mod *ir.Module, copts *crashsim.Options, opts Options, out *PipelineResult) error {
	if copts == nil {
		return nil
	}
	runs := []*schedule.Run{{ID: interp.ScheduleID(nil)}}
	if final := out.Final(); final != nil {
		runs = final.Runs
	}
	points := 0
	for _, run := range runs {
		round := *copts
		round.Schedule = run.Choices
		rep, err := crashsim.Validate(mod, round)
		if err != nil {
			return fmt.Errorf("crash validation under schedule %s: %w", run.ID, err)
		}
		out.Crash = append(out.Crash, ScheduleCrash{ID: run.ID, Report: rep})
		points += rep.Points
	}
	if opts.MaxSchedules != 1 {
		opts.Obs.Add("schedule.crash_points", int64(points))
	}
	return nil
}
