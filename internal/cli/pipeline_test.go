package cli_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
	"hippocrates/internal/crashsim"
)

// corpusRequest is a request over a corpus program with small crash
// budgets and one crash worker, so every stats field is reproducible.
func corpusRequest(p *corpus.Program, mode string, threads bool) *cli.Request {
	q := &cli.Request{
		Program:      p.Name + ".pmc",
		Source:       p.Source(),
		Mode:         mode,
		Entry:        p.Entry,
		Threads:      threads,
		StepLimit:    50_000_000,
		CrashWorkers: 1,
	}
	if mode == cli.ModeCrash || (mode == cli.ModeRepair && p.Target != "redis") {
		q.CrashCheck = true
		q.CrashPoints = 12
		q.CrashImages = 4
	}
	return q
}

func runDoc(t *testing.T, q *cli.Request) (*cli.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := cli.Run(q, nil)
	if err != nil {
		t.Fatalf("%s %s threads=%v: %v", q.Program, q.Mode, q.Threads, err)
	}
	data, err := resp.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return resp, doc
}

// TestShowFixesUnderThreads: the -show-fixes listing reads the one
// dynamic result, so a threads repair lists every applied fix.
func TestShowFixesUnderThreads(t *testing.T) {
	p := corpus.MTPrograms()[0]
	resp, err := cli.Run(&cli.Request{
		Program:   p.Name + ".pmc",
		Source:    p.Source(),
		Entry:     p.Entry,
		Threads:   true,
		StepLimit: 50_000_000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Fixes) == 0 {
		t.Fatalf("%s: threads repair applied no fixes", p.Name)
	}
	if got, want := len(resp.FixSummaryLines()), len(resp.Fixes); got != want {
		t.Errorf("%s: %d -show-fixes line(s) for %d fix(es)", p.Name, got, want)
	}
}

// TestThreadsCrashSharesVerdictCache: threads crash mode sweeps every
// explored interleaving through one verdict cache, so each distinct
// image boots recovery once across the whole exploration — and sharing
// changes no verdict: every per-schedule report outside its stats
// matches a sweep that gives each schedule a fresh cache.
func TestThreadsCrashSharesVerdictCache(t *testing.T) {
	var p *corpus.Program
	for _, mp := range corpus.MTPrograms() {
		if mp.Name == "pclht-mt" {
			p = mp.Program
		}
	}
	if p == nil {
		t.Fatal("corpus has no pclht-mt")
	}
	q := &cli.Request{
		Program:      p.Name + ".pmc",
		Source:       p.Source(),
		Mode:         cli.ModeCrash,
		Entry:        p.Entry,
		Threads:      true,
		StepLimit:    50_000_000,
		CrashWorkers: 1,
	}
	resp, err := cli.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := resp.Pipeline.Exploration
	if len(resp.CrashBySchedule) != ex.Explored || ex.Explored < 2 {
		t.Fatalf("%d crash sweeps over %d explored schedules", len(resp.CrashBySchedule), ex.Explored)
	}

	mod := p.MustCompile()
	shared := crashsim.NewVerdictCache()
	built, distinct := 0, 0
	for i, run := range ex.Runs {
		opts := crashsim.Options{Entry: p.Entry, Schedule: run.Choices, Workers: 1, StepLimit: q.StepLimit}
		fresh, err := crashsim.Validate(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = shared
		rep, err := crashsim.Validate(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		distinct += rep.ImagesBuilt
		got := resp.CrashBySchedule[i]
		built += got.Report.Stats.ImagesBuilt
		if got.Schedule != run.ID {
			t.Errorf("sweep %d is schedule %s, explored %s", i, got.Schedule, run.ID)
		}
		want := fresh.Doc()
		gotDoc := *got.Report
		gotDoc.Stats, want.Stats = crashsim.StatsDoc{}, crashsim.StatsDoc{}
		a, _ := json.Marshal(&gotDoc)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Errorf("schedule %s: shared-cache report differs from a fresh-cache sweep:\n got %s\nwant %s", run.ID, a, b)
		}
	}
	if built != distinct {
		t.Errorf("sweeps built %d images, the exploration has %d distinct ones", built, distinct)
	}
	t.Logf("%d schedules, %d images built", ex.Explored, built)
}

// TestSpawnFreeThreadsAgree is the invariant the one dynamic loop rests
// on: a spawn-free program explores to exactly its round-robin schedule,
// so asking for Threads changes no verdict. Check and crash responses
// are equal but for the schedules document and the crash report's
// placement (crash vs crash_by_schedule[0]); a repair agrees on its
// reports, fixes, repaired IR, verdict, and final crash report (both
// run the per-fix crash rounds of a one-schedule exploration; only the
// single-trace wire format carries them).
func TestSpawnFreeThreadsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the corpus")
	}
	for _, p := range corpus.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			modes := []string{cli.ModeCheck, cli.ModeRepair, cli.ModeCrash}
			if strings.HasPrefix(p.Target, "redis") {
				modes = modes[:2] // no recovery entries to crash-validate
			}
			for _, mode := range modes {
				_, seq := runDoc(t, corpusRequest(p, mode, false))
				resp, mt := runDoc(t, corpusRequest(p, mode, true))
				if n := resp.Pipeline.Final().Explored; n != 1 {
					t.Fatalf("%s: spawn-free program explored %d schedules", mode, n)
				}
				keys := []string{"reports", "fixes", "repaired_ir", "fixed", "crash"}
				if mode != cli.ModeRepair {
					keys = nil
					for k := range seq {
						keys = append(keys, k)
					}
					for k := range mt {
						if _, ok := seq[k]; !ok && k != "schedules" && k != "crash_by_schedule" {
							t.Errorf("%s: threads response adds %q", mode, k)
						}
					}
				}
				for _, k := range keys {
					got := mt[k]
					if k == "crash" && seq[k] != nil {
						var sweeps []cli.ScheduleCrashDoc
						if err := json.Unmarshal(mt["crash_by_schedule"], &sweeps); err != nil || len(sweeps) != 1 {
							t.Fatalf("%s: crash_by_schedule = %s", mode, mt["crash_by_schedule"])
						}
						got, _ = json.Marshal(sweeps[0].Report)
					}
					if got, want := compact(t, got), compact(t, seq[k]); !bytes.Equal(got, want) {
						t.Errorf("%s: %q differs with threads:\n got %s\nwant %s", mode, k, clip(got), clip(want))
					}
				}
			}
		})
	}
}

func compact(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	if raw == nil {
		return nil // omitted field
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func clip(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "…"
	}
	return string(b)
}

// TestThreadsCrashDescribesExploredSchedules: whatever the budget, a
// threads crash sweep covers exactly the schedules a threads check
// explores, under the same ids and with the same schedules document —
// including a one-schedule budget, where crash mode validates the
// round-robin schedule without an exploration of its own.
func TestThreadsCrashDescribesExploredSchedules(t *testing.T) {
	p := corpus.MTPrograms()[0].Program
	for _, budget := range []int{1, 4} {
		check := corpusRequest(p, cli.ModeCheck, true)
		check.MaxSchedules = budget
		checkResp, checkDoc := runDoc(t, check)
		crash := corpusRequest(p, cli.ModeCrash, true)
		crash.MaxSchedules = budget
		crashResp, _ := runDoc(t, crash)

		var want, got []string
		for _, r := range checkResp.Pipeline.Exploration.Runs {
			want = append(want, r.ID)
		}
		for _, c := range crashResp.CrashBySchedule {
			got = append(got, c.Schedule)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") || len(got) != budget {
			t.Errorf("budget %d: crash swept %v, check explored %v", budget, got, want)
		}
		doc := *crashResp.Schedules
		doc.Stats.CrashPoints = 0
		a, _ := json.Marshal(&doc)
		if b := compact(t, checkDoc["schedules"]); !bytes.Equal(a, b) {
			t.Errorf("budget %d: crash schedules doc %s, check %s", budget, a, b)
		}
	}
}
