package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Spans of one job share Job; Parent is
// the ID of the span that caused it (0 for a job's root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    int                `json:"job"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Counts map[string]float64 `json:"counts,omitempty"`

	tr *tracer
}

// tracer keeps every span of a traced run in memory; the result file gets
// them all when the run ends. A nil tracer records nothing, so the
// untraced paths share the code of the traced ones.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span. parent may be nil (a job root). Safe for
// concurrent use; a span itself is only touched by the goroutine that
// started it.
func (t *tracer) start(job int, parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Job: job, Name: name, tr: t, Start: ms(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = ms(time.Since(s.tr.t0))
	}
}

func (s *span) add(name string, v float64) {
	if s == nil {
		return
	}
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] += v
}

// job is the span's job ID (0 for a nil span).
func (s *span) job() int {
	if s == nil {
		return 0
	}
	return s.Job
}

func (s *span) dur() float64 {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// since returns the spans recorded after mark.
func (t *tracer) since(mark int) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans[mark:]...)
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTimes maps each per-layer time metric to the span whose total
// duration per job it reports.
var layerTimes = map[string]string{
	"lang.compile_ms":      "lang.compile",
	"interp.trace_ms":      "interp.trace",
	"pmcheck.detect_ms":    "pmcheck.detect",
	"alias.analyze_ms":     "alias.analyze",
	"core.repair_ms":       "core.repair",
	"crashsim.validate_ms": "crashsim.validate",
	"schedule.explore_ms":  "schedule.explore",
	"static.analyze_ms":    "static.analyze",
	"optimize.ms":          "optimize",
	"cli.encode_ms":        "cli.encode",
}

// layerCounts are per-job means of the span counts of the same name.
var layerCounts = []string{
	"lang.instrs", "interp.steps", "trace.events", "pmcheck.reports",
	"core.fixes", "core.clones", "core.interproc_fixes",
	"crashsim.points", "crashsim.schedules", "crashsim.images_built",
	"crashsim.deduped_schedules", "crashsim.pages_copied", "crashsim.pages_shared",
	"schedule.explored", "schedule.pruned",
	"optimize.candidates", "optimize.applied", "optimize.rejected",
	"cli.response_kb",
}

// ratio returns num/den, 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pass is one traced pass over a fixed list of jobs.
type pass struct {
	spans []*span
	jobs  int
	// extra carries per-layer values measured outside spans (server
	// metrics, generator lateness, the cli.Run gap), already final.
	extra map[string]float64
	// cliUntraced / cliTraced are the summed cli.Run times of the same
	// jobs without and with tracing.
	cliUntraced, cliTraced float64
	attempted, failed      int
}

// countMetrics are the pass's work counts: the figures a later change may
// rest a claim on only if they repeat exactly across passes.
func (p *pass) countMetrics() map[string]float64 {
	tot := map[string]float64{}
	for _, s := range p.spans {
		for k, v := range s.Counts {
			tot[k] += v
		}
	}
	n := float64(p.jobs)
	out := map[string]float64{}
	for _, k := range layerCounts {
		out[k] = ratio(tot[k], n)
	}
	out["interp.ycsb_steps_per_op"] = ratio(tot["interp.ycsb_steps"], tot["ycsb.ops"])
	out["crashsim.dedup_ratio"] = ratio(tot["crashsim.deduped_schedules"], tot["crashsim.schedules"])
	out["crashsim.cache_hit_ratio"] = ratio(tot["crashsim.cache_hits"], tot["crashsim.cache_hits"]+tot["crashsim.cache_misses"])
	out["static.summary_hit_ratio"] = ratio(tot["static.summary_hits"], tot["static.summary_hits"]+tot["static.summary_misses"])
	out["static.constraint_hit_ratio"] = ratio(tot["static.constraint_hits"], tot["static.constraint_hits"]+tot["static.constraint_misses"])
	for _, k := range []string{"server.response_cache_hit_ratio", "server.rejected", "loadgen.inflight_max"} {
		out[k] = p.extra[k]
	}
	return out
}

// timeMetrics are the pass's per-job layer times and rates.
func (p *pass) timeMetrics() map[string]float64 {
	busy := map[string]float64{}
	steps := 0.0
	for _, s := range p.spans {
		busy[s.Name] += s.dur()
		steps += s.Counts["interp.steps"] + s.Counts["interp.ycsb_steps"]
	}
	n := float64(p.jobs)
	out := map[string]float64{}
	for metric, name := range layerTimes {
		out[metric] = ratio(busy[name], n)
	}
	out["interp.steps_per_s"] = ratio(steps, (busy["interp.trace"]+busy["interp.ycsb"])/1e3)
	for _, k := range []string{"core.incremental_rounds_ms", "server.queue_wait_ms", "server.job_ms", "loadgen.late_p99_ms", "loadgen.latency_p50_ms", "loadgen.latency_p99_ms"} {
		out[k] = p.extra[k]
	}
	return out
}

// layerReport folds the traced passes into the per-layer metrics: times
// are means over every pass, counts too, and a count that differs
// between passes is listed as drifting.
func layerReport(passes []*pass) (map[string]float64, []string) {
	out := map[string]float64{}
	var drift []string
	first := passes[0].countMetrics()
	for _, p := range passes {
		for k, v := range p.countMetrics() {
			out[k] += v / float64(len(passes))
			if v != first[k] && !contains(drift, k) {
				drift = append(drift, k)
			}
		}
		for k, v := range p.timeMetrics() {
			out[k] += v / float64(len(passes))
		}
	}
	sort.Strings(drift)
	attempted, failed := 0, 0
	untraced, traced := 0.0, 0.0
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
		untraced += p.cliUntraced
		traced += p.cliTraced
	}
	out["error_ratio"] = ratio(float64(failed), float64(attempted))
	out["bench.trace_overhead_ratio"] = ratio(traced, untraced) - 1
	out["bench.drifting_counts"] = float64(len(drift))
	return out, drift
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// printShares writes where a job's decomposed time went: each layer
// span's time per job and its share of all of them (cli.Run, the sibling
// that repeats the whole job, is left out).
func printShares(w io.Writer, passes []*pass) {
	busy := map[string]float64{}
	total, jobs := 0.0, 0
	for _, p := range passes {
		jobs += p.jobs
		for _, s := range p.spans {
			if s.Parent != 0 && s.Name != "cli.run" {
				busy[s.Name] += s.dur()
				total += s.dur()
			}
		}
	}
	var names []string
	for k := range busy {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return busy[names[i]] > busy[names[j]] })
	fmt.Fprintln(w, "layer time per job (decomposed public calls)")
	for _, k := range names {
		fmt.Fprintf(w, "  %-20s %10.3f ms %5.1f%%\n", k, busy[k]/float64(jobs), 100*busy[k]/total)
	}
}

// printDrift writes the repeat/drift table of the count metrics.
func printDrift(w io.Writer, passes []*pass, drift []string) {
	counts := make([]map[string]float64, len(passes))
	for i, p := range passes {
		counts[i] = p.countMetrics()
	}
	var names []string
	for k := range counts[0] {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "counts over %d traced passes (DRIFT: differs between passes; rest no claim on it)\n", len(passes))
	for _, k := range names {
		verdict := "repeats"
		if contains(drift, k) {
			verdict = "DRIFT"
		}
		fmt.Fprintf(w, "  %-34s %-7s", k, verdict)
		for _, c := range counts {
			fmt.Fprintf(w, " %.6g", c[k])
		}
		fmt.Fprintln(w)
	}
}
