// Command pmcheck is the durability-bug finder: the repository's
// pmemcheck. It either executes a program and checks the resulting PM
// trace, replays a previously saved trace, or — with -static — analyzes
// the program without running it at all.
//
// Usage:
//
//	pmcheck [flags] program.pmc
//	pmcheck -replay trace.pmtrace
//	pmcheck -static program.pmc
//
// Flags:
//
//	-entry NAME    entry function (default "main")
//	-trace FILE    also save the generated trace
//	-replay FILE   analyze an existing trace instead of running
//	-static        static persistency-state analysis; no execution
//	-optimize      prove-and-apply redundant flush/fence elimination on
//	               the program as given (reported, never written)
//	-threads       interleaving-aware check: explore the workload's thread
//	               schedules (bounded, with persistence-aware partial-order
//	               reduction) and report the union of every schedule's bugs
//	-max-schedules N  schedule budget for -threads (0 = default)
//	-steplimit N   instruction budget per interpreter run (default 100M)
//	-metrics FILE  write counters/histograms/phase timings as JSON
//	-spans FILE    write the span tree as Chrome trace_event JSON
//	-audit         print the repair audit trail
//
// -replay analyzes a trace with no program: it cannot honor -entry, a
// positional program argument, or -audit, and rejects those combinations
// instead of silently ignoring them. (-static does honor -entry: it
// selects the analysis root.)
//
// When an observability flag is set and bugs are found, pmcheck runs the
// repair pipeline on the in-memory module — never writing it anywhere —
// so the exported spans and audit trail cover the full
// parse→trace→detect→plan→apply→revalidate tree, not just detection.
//
// Detection runs through cli.Run, the same entrypoint hippocrates and
// hippocratesd use, so the front ends cannot drift.
//
// Exit status is 1 when durability bugs are found.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/pmcheck"
)

func main() {
	entry := flag.String("entry", "main", "entry function")
	saveTrace := flag.String("trace", "", "save the generated trace to this file")
	replay := flag.String("replay", "", "analyze an existing trace file")
	staticMode := flag.Bool("static", false, "static persistency-state analysis instead of executing")
	optimizeFlag := flag.Bool("optimize", false, "prove-and-apply redundant flush/fence elimination on the program as given")
	threads := flag.Bool("threads", false, "interleaving-aware check across explored thread schedules")
	maxSchedules := flag.Int("max-schedules", 0, "schedule budget for -threads (0 = default)")
	var limits cli.LimitFlags
	limits.Register()
	var obsFlags cli.ObsFlags
	obsFlags.Register()
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	if err := limits.Validate(); err != nil {
		usage("pmcheck: " + err.Error())
	}
	stepLimitSet := false
	flag.Visit(func(f *flag.Flag) { stepLimitSet = stepLimitSet || f.Name == "steplimit" })
	if *replay != "" {
		// A replayed trace carries no program, so flags that select or
		// inspect one cannot be honored; reject them rather than letting
		// them pass without effect (mirroring the -static checks below).
		entrySet := false
		flag.Visit(func(f *flag.Flag) { entrySet = entrySet || f.Name == "entry" })
		switch {
		case *staticMode:
			usage("pmcheck: -replay and -static are mutually exclusive")
		case entrySet:
			usage("pmcheck: -replay analyzes a saved trace; -entry has no effect (drop it)")
		case stepLimitSet:
			usage("pmcheck: -replay never executes; -steplimit has no effect (drop it)")
		case flag.NArg() > 0:
			usage("pmcheck: -replay takes no program argument (got " + flag.Arg(0) + ")")
		case obsFlags.Audit:
			usage("pmcheck: -audit needs the program to repair; it cannot be combined with -replay")
		case *optimizeFlag:
			usage("pmcheck: -optimize re-executes the program; it cannot be combined with -replay")
		}
	}
	if *staticMode && stepLimitSet {
		usage("pmcheck: -static never executes; -steplimit has no effect (drop it)")
	}
	if *staticMode && *optimizeFlag {
		usage("pmcheck: -optimize measures executions; it cannot be combined with -static")
	}
	if *threads {
		switch {
		case *replay != "":
			usage("pmcheck: -threads explores interleavings; it cannot be combined with -replay")
		case *staticMode:
			usage("pmcheck: -threads needs dynamic execution; it cannot be combined with -static")
		case *optimizeFlag:
			usage("pmcheck: -optimize measures single-schedule executions; it cannot be combined with -threads")
		case *saveTrace != "":
			usage("pmcheck: -trace captures a single run; it cannot be combined with -threads")
		}
	} else if *maxSchedules != 0 {
		usage("pmcheck: -max-schedules only applies with -threads")
	}
	if *maxSchedules < 0 {
		usage("pmcheck: -max-schedules must be >= 0")
	}

	rec := obsFlags.NewRecorder()
	root := rec.StartSpan("pmcheck")
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pmcheck:", err)
		os.Exit(1)
	}
	finish := func() {
		root.End()
		if err := obsFlags.Finish(rec, os.Stdout); err != nil {
			fail(err)
		}
	}

	// -replay is the one path with no program behind it: analyze the
	// trace directly, there is nothing for cli.Run to compile or repair.
	if *replay != "" {
		tr, err := cli.LoadTrace(*replay)
		if err != nil {
			fail(err)
		}
		if *saveTrace != "" {
			if err := cli.WriteTrace(tr, *saveTrace); err != nil {
				fail(err)
			}
		}
		res := pmcheck.CheckObs(root, tr)
		fmt.Print(res.Summary())
		finish()
		if !res.Clean() {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		if *staticMode {
			usage("usage: pmcheck -static [-entry NAME] program.pmc")
		}
		fmt.Fprintln(os.Stderr, "usage: pmcheck [flags] program.pmc | pmcheck -replay trace.pmtrace")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *staticMode && *saveTrace != "" {
		usage("usage: pmcheck -static [-entry NAME] program.pmc")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	req := &cli.Request{
		Program:      filepath.Base(flag.Arg(0)),
		Source:       string(src),
		Mode:         cli.ModeCheck,
		Entry:        *entry,
		Static:       *staticMode,
		Optimize:     *optimizeFlag,
		Threads:      *threads,
		MaxSchedules: *maxSchedules,
		StepLimit:    limits.StepLimit,
	}
	// With observability on, detection alone would leave the exported
	// spans and audit trail covering half the pipeline; run the full
	// repair instead (in memory, never written) and report its Before.
	// For static mode the repair path is exact, so it substitutes
	// directly; the dynamic shadow repair below tolerates failure.
	if *staticMode && obsFlags.Enabled() {
		req.Mode = cli.ModeRepair
	}
	resp, err := cli.Run(req, root)
	if err != nil {
		fail(err)
	}
	if *saveTrace != "" {
		if err := cli.WriteTrace(resp.Pipeline.Trace(), *saveTrace); err != nil {
			fail(err)
		}
	}
	var clean bool
	switch {
	case *threads:
		// Union verdict across the exploration: the summary mirrors the
		// single-run one but names the interleaving that exposed the bugs.
		s := resp.Schedules
		fmt.Printf("pmcheck: explored %d interleaving(s) (%d pruned by POR, %d thread(s))\n",
			s.Stats.SchedulesExplored, s.Stats.SchedulesPruned, s.Threads)
		if len(resp.Reports) == 0 {
			fmt.Println("pmcheck: no durability bugs found under any explored interleaving")
		} else {
			fmt.Printf("pmcheck: %d durability bug(s) in the union across schedules:\n", len(resp.Reports))
			for i, r := range resp.Reports {
				fmt.Printf("[%d] %s\n", i+1, r)
			}
			fmt.Printf("pmcheck: first buggy schedule %s (replay with pmvm -sched)\n", s.BuggySchedule)
		}
		clean = resp.Fixed
	case resp.StaticCheck != nil:
		fmt.Print(resp.StaticCheck.Summary())
		clean = resp.StaticCheck.Clean()
	case resp.StaticResult != nil:
		fmt.Print(resp.StaticResult.Before.Summary())
		clean = resp.StaticResult.Before.Clean()
	default:
		fmt.Print(resp.Pipeline.Before.Summary())
		clean = resp.Pipeline.Before.Clean()
	}
	if resp.Optimize != nil {
		fmt.Print(resp.Optimize.Summary())
		for _, e := range resp.Optimize.Edits {
			fmt.Printf("  %s\n", e)
		}
	}

	// Shadow repair: with observability on, finish the pipeline in memory
	// (the module is never written) so spans and the audit trail cover
	// plan→apply→revalidate. Failures here are reported but do not change
	// the detection exit status.
	if obsFlags.Enabled() && !clean && !*threads && resp.Pipeline != nil {
		if _, rerr := core.Repair(resp.Module, resp.Pipeline.Trace(), resp.Pipeline.Before, core.Options{Obs: root}); rerr != nil {
			fmt.Fprintln(os.Stderr, "pmcheck: shadow repair:", rerr)
		} else {
			rsp := root.Start("revalidate")
			if tr2, terr := core.TraceModuleOpts(rsp, resp.Module, *entry, core.Options{StepLimit: limits.StepLimit}); terr != nil {
				fmt.Fprintln(os.Stderr, "pmcheck: shadow revalidation:", terr)
			} else {
				pmcheck.CheckObs(rsp, tr2)
			}
			rsp.End()
		}
	}
	finish()
	if !clean {
		os.Exit(1)
	}
}
