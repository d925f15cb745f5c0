package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/schedule"
)

// Interleaving-exploration sweep: run the bounded schedule search over
// the concurrent corpus twice — with persistence-aware partial-order
// reduction and bounded-exhaustive — then time the full interleaving-
// aware repair (explore → union repair → re-explore → per-schedule
// crash sweep). `make bench-mt` writes the result to BENCH_mt.json.

// MTMaxSchedules bounds the POR search per target; the exhaustive
// baseline gets MTExhaustiveCap so a pathological frontier cannot stall
// the bench.
const (
	MTMaxSchedules  = 64
	MTExhaustiveCap = 1024
)

// MTTarget is one concurrent corpus program's exploration and repair
// measurements.
type MTTarget struct {
	Name    string `json:"name"`
	Threads int    `json:"threads"`
	// Explored/Pruned describe the POR search; ExhaustiveExplored the
	// bounded-exhaustive baseline over the same program.
	Explored           int   `json:"explored"`
	Pruned             int   `json:"pruned"`
	Truncated          bool  `json:"truncated,omitempty"`
	ExhaustiveExplored int   `json:"exhaustive_explored"`
	ExhaustiveTrunc    bool  `json:"exhaustive_truncated,omitempty"`
	ExploreNs          int64 `json:"explore_ns"`
	ExhaustiveNs       int64 `json:"exhaustive_ns"`
	// PruneFactor is exhaustive/POR explored counts — how much of the
	// interleaving space the reduction proved redundant.
	PruneFactor     float64 `json:"prune_factor"`
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	// UnionBugs counts the class-deduplicated reports across every
	// explored schedule before repair.
	UnionBugs int `json:"union_bugs"`
	// RepairNs times core.RunAndRepair end to end, including the
	// post-repair crash sweep of every explored interleaving.
	RepairNs    int64 `json:"repair_ns"`
	CrashPoints int   `json:"crash_points"`
	Fixed       bool  `json:"fixed"`
}

// MTReport is the JSON document `make bench-mt` writes.
type MTReport struct {
	Benchmark string `json:"benchmark"`
	Config    struct {
		MaxSchedules  int `json:"max_schedules"`
		ExhaustiveCap int `json:"exhaustive_cap"`
	} `json:"config"`
	Targets []MTTarget `json:"targets"`
	Totals  struct {
		Explored           int     `json:"explored"`
		Pruned             int     `json:"pruned"`
		ExhaustiveExplored int     `json:"exhaustive_explored"`
		PruneFactor        float64 `json:"prune_factor"`
		SchedulesPerSec    float64 `json:"schedules_per_sec"`
		AllFixed           bool    `json:"all_fixed"`
	} `json:"totals"`
}

// MeasureMTSweep explores and repairs every concurrent corpus program.
func MeasureMTSweep() (*MTReport, error) {
	rep := &MTReport{Benchmark: "MTSweep"}
	rep.Config.MaxSchedules = MTMaxSchedules
	rep.Config.ExhaustiveCap = MTExhaustiveCap
	rep.Totals.AllFixed = true
	var exploreNs int64
	for _, p := range corpus.MTPrograms() {
		tgt := MTTarget{Name: p.Name}

		mod := p.MustCompile()
		start := time.Now()
		ex, err := schedule.Explore(mod, p.Entry, nil, schedule.Options{MaxSchedules: MTMaxSchedules})
		tgt.ExploreNs = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s: explore: %w", p.Name, err)
		}
		tgt.Explored = ex.Explored
		tgt.Pruned = ex.Pruned
		tgt.Truncated = ex.Truncated
		for _, r := range ex.Runs {
			if r.Threads > tgt.Threads {
				tgt.Threads = r.Threads
			}
		}
		if tgt.ExploreNs > 0 {
			tgt.SchedulesPerSec = float64(ex.Explored) / (float64(tgt.ExploreNs) / 1e9)
		}

		mod = p.MustCompile()
		start = time.Now()
		bx, err := schedule.Explore(mod, p.Entry, nil, schedule.Options{MaxSchedules: MTExhaustiveCap, NoPOR: true})
		tgt.ExhaustiveNs = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s: exhaustive explore: %w", p.Name, err)
		}
		tgt.ExhaustiveExplored = bx.Explored
		tgt.ExhaustiveTrunc = bx.Truncated
		if ex.Explored > 0 {
			tgt.PruneFactor = float64(bx.Explored) / float64(ex.Explored)
		}

		mod = p.MustCompile()
		start = time.Now()
		res, err := core.RunAndRepair(mod, p.Entry, core.Options{
			MaxSchedules: MTMaxSchedules,
			CrashCheck:   &crashsim.Options{MaxPoints: 12, MaxImages: 4, Workers: 1},
		})
		tgt.RepairNs = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s: repair: %w", p.Name, err)
		}
		tgt.UnionBugs = len(res.Before.Reports)
		for _, c := range res.Crash {
			tgt.CrashPoints += c.Report.Points
		}
		tgt.Fixed = res.Fixed()

		rep.Targets = append(rep.Targets, tgt)
		rep.Totals.Explored += tgt.Explored
		rep.Totals.Pruned += tgt.Pruned
		rep.Totals.ExhaustiveExplored += tgt.ExhaustiveExplored
		exploreNs += tgt.ExploreNs
		if !tgt.Fixed {
			rep.Totals.AllFixed = false
		}
	}
	if rep.Totals.Explored > 0 {
		rep.Totals.PruneFactor = float64(rep.Totals.ExhaustiveExplored) / float64(rep.Totals.Explored)
	}
	if exploreNs > 0 {
		rep.Totals.SchedulesPerSec = float64(rep.Totals.Explored) / (float64(exploreNs) / 1e9)
	}
	return rep, nil
}

// WriteMTSweepJSON runs MeasureMTSweep and writes the report to path as
// indented JSON; `make bench-mt` drives it.
func WriteMTSweepJSON(path string) (*MTReport, error) {
	rep, err := MeasureMTSweep()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(path, append(data, '\n'), 0o644)
}
