package cli

import (
	"encoding/json"
	"fmt"
	"time"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/optimize"
	"hippocrates/internal/schedule"
	"hippocrates/internal/static"
)

// FixDoc is one applied fix in API form.
type FixDoc struct {
	Kind        string   `json:"kind"`
	ReportSite  string   `json:"report_site"`
	ReportClass string   `json:"report_class"`
	AppliedAt   string   `json:"applied_at"`
	HoistDepth  int      `json:"hoist_depth,omitempty"`
	Score       int      `json:"score,omitempty"`
	Clones      []string `json:"clones,omitempty"`
}

// LintDoc is one static over-persistence diagnostic in API form.
type LintDoc struct {
	// Kind is the lint class: redundant-flush, redundant-fence, or
	// flush-after-ntstore.
	Kind string `json:"kind"`
	// Site locates the instruction as loc:@func:block.
	Site string `json:"site"`
}

// lintDocs renders static lints for the wire, preserving the analyzer's
// deterministic order.
func lintDocs(lints []*static.Lint) []LintDoc {
	out := make([]LintDoc, 0, len(lints))
	for _, l := range lints {
		out = append(out, LintDoc{
			Kind: l.Kind.String(),
			Site: fmt.Sprintf("%s:@%s:%s", l.Site.Loc, l.Site.Func, l.Block),
		})
	}
	return out
}

// Response is the outcome of one Run, shared between the commands and
// the hippocratesd API. The exported, json-tagged fields are the wire
// contract: every one is a deterministic function of the Request (no
// wall times, no absolute addresses beyond the interpreter's own
// deterministic layout), struct fields marshal in declaration order, and
// slices are ordered by the pipeline's deterministic phases — so equal
// requests marshal to byte-identical JSON, pinned by the golden-file
// tests in this package. Fields tagged json:"-" carry the live artifacts
// in-process callers (the commands' printing paths) still need.
type Response struct {
	Mode    string `json:"mode"`
	Program string `json:"program"`
	Entry   string `json:"entry"`
	Static  bool   `json:"static,omitempty"`

	// Detection outcome. BugsBefore/SitesBefore describe the program as
	// submitted; Reports carries the detector's per-bug rendering.
	// BugsAfter is meaningful in repair mode (post-repair re-check).
	BugsBefore  int      `json:"bugs_before"`
	SitesBefore int      `json:"sites_before"`
	BugsAfter   int      `json:"bugs_after"`
	Reports     []string `json:"reports"`

	// Fixed is the mode's headline verdict: repair — the repaired module
	// is clean (and crash-validated, when requested); check — the
	// program was already clean; crash — every schedule recovered.
	Fixed bool `json:"fixed"`

	// Repair outcome (repair mode with bugs found).
	Fixes        []FixDoc `json:"fixes,omitempty"`
	InstrsBefore int      `json:"instrs_before,omitempty"`
	InstrsAfter  int      `json:"instrs_after,omitempty"`
	Clones       int      `json:"clones,omitempty"`
	Reduced      int      `json:"reduced,omitempty"`
	Marks        string   `json:"marks,omitempty"`
	// RepairedIR is the repaired module in textual IR form.
	RepairedIR string `json:"repaired_ir,omitempty"`
	// Audit is the repair-provenance trail: every insertion (or
	// deliberate non-insertion) mapped to its report and heuristic
	// decision.
	Audit []*obs.AuditEntry `json:"audit"`

	// Lints are the static analyzer's over-persistence diagnostics
	// (redundant flush/fence, flush-after-ntstore) for the run's final
	// module, whenever static analysis ran: static check and repair
	// modes, and any mode with Optimize set (where they are the
	// residue the pass could not prove removable). Always present;
	// empty when no static analysis was involved.
	Lints []LintDoc `json:"lints"`

	// Optimize is the repair-to-optimize outcome (Request.Optimize):
	// every candidate edit with its origin, decision, proof, and
	// measured savings. OptimizedIR is the module after accepted edits.
	Optimize    *optimize.Result `json:"optimize,omitempty"`
	OptimizedIR string           `json:"optimized_ir,omitempty"`

	// Crash validation outcome: the final report, plus the per-round
	// reports of incremental revalidation (round i ran right after fix
	// i+1 landed; intermediate rounds legitimately fail).
	Crash       *crashsim.ReportDoc   `json:"crash,omitempty"`
	CrashRounds []*crashsim.ReportDoc `json:"crash_rounds,omitempty"`

	// Schedules summarizes the interleaving exploration of a Threads
	// run; CrashBySchedule carries the per-interleaving crash sweeps
	// (repair mode post-repair, crash mode on the program as given).
	Schedules       *ScheduleDoc       `json:"schedules,omitempty"`
	CrashBySchedule []ScheduleCrashDoc `json:"crash_by_schedule,omitempty"`

	// Live artifacts for in-process callers; never serialized.

	// Module is the (possibly repaired) module.
	Module *ir.Module `json:"-"`
	// Pipeline is the dynamic loop's raw outcome (repair, check, and
	// crash modes without Static).
	Pipeline *core.PipelineResult `json:"-"`
	// StaticResult / StaticCheck are the static repair and check
	// modes' raw outcomes.
	StaticResult *core.StaticPipelineResult `json:"-"`
	StaticCheck  *static.Result             `json:"-"`
}

// ScheduleDoc summarizes the interleaving exploration of a Threads run
// in API form. Everything outside Stats is a deterministic function of
// the request: the search is sequential and the partial-order reduction
// canonical, so the explored set, the buggy schedule id, and the
// truncation flag reproduce byte-for-byte. Stats mirrors the crash
// report's quarantine convention — accounting lives in its own
// sub-object that identity comparisons (the server soak test) zero out.
type ScheduleDoc struct {
	// Threads is the maximum thread count any explored run reached.
	Threads int `json:"threads"`
	// BuggySchedule is the replayable id of the first interleaving the
	// detector rejected before repair ("" when the program was clean
	// under every explored schedule).
	BuggySchedule string `json:"buggy_schedule,omitempty"`
	// Truncated reports that MaxSchedules cut the search off with
	// unexplored interleavings remaining.
	Truncated bool `json:"truncated,omitempty"`
	// Stats is the exploration accounting.
	Stats ScheduleStatsDoc `json:"stats"`
}

// ScheduleStatsDoc is the exploration's accounting sub-object.
type ScheduleStatsDoc struct {
	// SchedulesExplored / SchedulesPruned count executed interleavings
	// and alternatives skipped by partial-order reduction (of the final
	// exploration: post-repair in repair mode).
	SchedulesExplored int `json:"schedules_explored"`
	SchedulesPruned   int `json:"schedules_pruned"`
	// CrashPoints is the total crash-point count swept across all
	// schedules (0 when no crash validation ran).
	CrashPoints int `json:"crash_points,omitempty"`
}

// ScheduleCrashDoc is one interleaving's crash sweep in API form.
type ScheduleCrashDoc struct {
	// Schedule is the interleaving's replayable id.
	Schedule string `json:"schedule"`
	// Report is the crash-validation report for the workload run under
	// that interleaving.
	Report *crashsim.ReportDoc `json:"report"`
}

// EncodeJSON renders the response's wire form: indented, deterministic,
// newline-terminated.
func (r *Response) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Run validates the request, compiles its source, and executes the
// requested pipeline, recording phase spans (and the audit trail) under
// root. It is the single entrypoint behind hippocrates, pmcheck,
// pmvm -crash, and the hippocratesd job runner.
func Run(q *Request, root *obs.Span) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mod, err := CompileRequest(q, root)
	if err != nil {
		return nil, err
	}
	return RunModule(q, mod, root)
}

// CompileRequest builds the request's module: pmc source is compiled,
// ".pmir" programs are parsed as textual IR. Front-end telemetry lands
// under root.
func CompileRequest(q *Request, root *obs.Span) (*ir.Module, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.IsIR() {
		psp := root.Start("parse-ir")
		defer psp.End()
		m, err := ir.ParseModule(q.Source)
		if m != nil {
			psp.Add("ir.instrs", int64(m.NumInstrs()))
		}
		return m, err
	}
	return lang.CompileObs(q.Program, q.Source, root)
}

// RunModule is Run for a pre-compiled module (the daemon's artifact
// cache hands each job a private clone of a memoized compile). The
// module is mutated in place by repair mode.
func RunModule(q *Request, mod *ir.Module, root *obs.Span) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	root.SetAttr("program", q.Program)
	root.SetAttr("mode", q.Mode)
	root.SetAttr("entry", q.Entry)
	resp := &Response{
		Mode: q.Mode, Program: q.Program, Entry: q.Entry, Static: q.Static,
		Reports: []string{}, Audit: []*obs.AuditEntry{}, Lints: []LintDoc{},
		Module: mod,
	}
	opts := q.coreOptions()
	opts.Obs = root
	if q.TimeoutMS > 0 {
		opts.Deadline = time.Now().Add(time.Duration(q.TimeoutMS) * time.Millisecond)
	}

	var err error
	switch {
	case q.Static && q.Mode == ModeRepair:
		err = runStaticRepair(q, mod, opts, resp)
	case q.Static:
		err = runStaticCheck(q, mod, root, resp)
	default:
		err = runDynamic(q, mod, opts, resp)
	}
	if err != nil {
		return nil, err
	}
	// Repair-to-optimize rides after the mode's own pipeline: on the
	// repaired module when repair succeeded, on the program as given in
	// check mode (the proof preserves the detectors' verdicts either
	// way, so a buggy program stays exactly as buggy).
	if q.Optimize && (q.Mode == ModeCheck || resp.Fixed) {
		if err := runOptimize(q, mod, root, resp); err != nil {
			return nil, err
		}
	}
	resp.Audit = append(resp.Audit, root.Recorder().AuditTrail()...)
	return resp, nil
}

func runOptimize(q *Request, mod *ir.Module, root *obs.Span, resp *Response) error {
	res, err := optimize.Optimize(mod, optimize.Options{
		Entry:     q.Entry,
		Args:      q.Args,
		MaxPoints: q.CrashPoints,
		MaxImages: q.CrashImages,
		Workers:   q.CrashWorkers,
		StepLimit: q.StepLimit,
		Cache:     q.CrashCache,
		Obs:       root,
		Log:       q.CrashLog,
	})
	if err != nil {
		return err
	}
	resp.Optimize = res
	resp.Lints = lintDocs(res.FinalLints)
	if res.Applied() > 0 {
		resp.OptimizedIR = ir.Print(mod)
	}
	return nil
}

// runDynamic runs the dynamic loop for the request's mode and renders
// its result. The wire format is decided here, in one place: a Threads
// request carries the schedules document and per-interleaving crash
// sweeps, any other request the single crash report and its per-fix
// rounds.
func runDynamic(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	var res *core.PipelineResult
	var err error
	switch {
	case q.Mode != ModeRepair:
		res, err = core.Verify(mod, q.Entry, opts, q.Args...)
	case q.ReplayTrace != nil:
		res, err = core.RepairTrace(mod, q.ReplayTrace, q.Entry, opts, q.Args...)
	default:
		res, err = core.RunAndRepair(mod, q.Entry, opts, q.Args...)
	}
	if err != nil {
		return err
	}
	resp.Pipeline = res
	switch q.Mode {
	case ModeCrash:
		resp.Fixed = res.CrashPassed()
	case ModeRepair:
		resp.BugsAfter = len(res.After.Reports)
		fallthrough
	default:
		resp.BugsBefore = len(res.Before.Reports)
		resp.SitesBefore = res.Before.UniqueSites()
		for _, r := range res.Before.Reports {
			resp.Reports = append(resp.Reports, r.String())
		}
		resp.Fixed = res.Fixed()
	}
	if res.Fix != nil {
		fillFixResult(resp, res.Fix)
		resp.RepairedIR = ir.Print(mod)
	}
	if !q.Threads {
		if len(res.Crash) > 0 {
			resp.Crash = res.Crash[0].Report.Doc()
		}
		for _, round := range res.CrashRounds {
			resp.CrashRounds = append(resp.CrashRounds, round.Doc())
		}
		return nil
	}
	final, before := res.Final(), res.Exploration
	if final == nil {
		// Crash mode with a one-schedule budget validated the round-robin
		// schedule without exploring; the document still describes it,
		// under the id its decision log gives it.
		if final, err = core.ExploreModule(mod, q.Entry, opts, q.Args...); err != nil {
			return err
		}
		before = final
		res.Crash[0].ID = final.Runs[0].ID
	}
	resp.Schedules = scheduleDoc(final, before, res.Crash)
	for _, c := range res.Crash {
		resp.CrashBySchedule = append(resp.CrashBySchedule, ScheduleCrashDoc{
			Schedule: c.ID, Report: c.Report.Doc(),
		})
	}
	return nil
}

// scheduleDoc renders an exploration summary; buggy is the pre-repair
// search whose first rejected interleaving names the showcase schedule.
func scheduleDoc(final, buggy *schedule.Result, crash []core.ScheduleCrash) *ScheduleDoc {
	d := &ScheduleDoc{
		Truncated: final.Truncated,
		Stats: ScheduleStatsDoc{
			SchedulesExplored: final.Explored,
			SchedulesPruned:   final.Pruned,
		},
	}
	for _, c := range crash {
		d.Stats.CrashPoints += c.Report.Points
	}
	for _, r := range final.Runs {
		if r.Threads > d.Threads {
			d.Threads = r.Threads
		}
	}
	if bad := buggy.FirstBuggy(); bad != nil {
		d.BuggySchedule = bad.ID
	}
	return d
}

func runStaticRepair(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	res, err := core.StaticRepair(mod, q.Entry, opts)
	if err != nil {
		return err
	}
	resp.StaticResult = res
	resp.BugsBefore = len(res.Before.Reports)
	resp.SitesBefore = res.Before.UniqueSites()
	resp.BugsAfter = len(res.After.Reports)
	for _, r := range res.Before.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.After.Clean()
	resp.Lints = lintDocs(res.After.Lints)
	if res.Fix != nil {
		fillFixResult(resp, res.Fix)
		resp.RepairedIR = ir.Print(mod)
	}
	return nil
}

func runStaticCheck(q *Request, mod *ir.Module, root *obs.Span, resp *Response) error {
	res, err := static.AnalyzeObsStore(mod, q.Entry, q.SummaryStore, root)
	if err != nil {
		return err
	}
	resp.StaticCheck = res
	resp.Lints = lintDocs(res.Lints)
	resp.BugsBefore = len(res.Reports)
	resp.SitesBefore = res.UniqueSites()
	for _, r := range res.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.Clean()
	return nil
}

// fillFixResult publishes a fixer result into the response.
func fillFixResult(resp *Response, fix *core.Result) {
	resp.InstrsBefore = fix.InstrsBefore
	resp.InstrsAfter = fix.InstrsAfter
	resp.Clones = fix.ClonesCreated
	resp.Reduced = fix.ReducedFixes
	resp.Marks = fix.MarksName
	for _, f := range fix.Fixes {
		resp.Fixes = append(resp.Fixes, FixDoc{
			Kind:        f.Kind.String(),
			ReportSite:  f.Report.Store.Site().String(),
			ReportClass: f.Report.Class().String(),
			AppliedAt:   f.AppliedAt.String(),
			HoistDepth:  f.HoistDepth,
			Score:       f.Score,
			Clones:      f.Clones,
		})
	}
}

// FixSummaryLines renders the -show-fixes listing.
func (r *Response) FixSummaryLines() []string {
	var out []string
	var fixes []*core.Fix
	switch {
	case r.Pipeline != nil && r.Pipeline.Fix != nil:
		fixes = r.Pipeline.Fix.Fixes
	case r.StaticResult != nil && r.StaticResult.Fix != nil:
		fixes = r.StaticResult.Fix.Fixes
	}
	for i, fx := range fixes {
		out = append(out, fmt.Sprintf("  [%d] %s", i+1, fx))
	}
	return out
}
