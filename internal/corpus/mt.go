package corpus

// MTProgram is one concurrent corpus target, wrapped with the
// schedule-level expectations the interleaving explorer checks.
type MTProgram struct {
	*Program
	// MaskedByDefault reports whether the default round-robin
	// interleaving hides the bug (the line-granular-flush masking the
	// publish showcase is built around). Masked programs look clean on a
	// single schedule and need the explorer to surface a buggy one;
	// unmasked programs are buggy under every interleaving.
	MaskedByDefault bool
}

// MTPrograms returns the concurrent corpus targets. They are deliberately
// not part of All(): the single-threaded pipeline, sweeps and paper
// accounting all iterate All(), and these require the threads pipeline
// (core.RunAndRepair / schedule.Explore).
func MTPrograms() []*MTProgram {
	return []*MTProgram{
		{
			Program: &Program{
				Name:    "mt-publish",
				Target:  "mt",
				File:    "mt/publish.pmc",
				Entry:   "main",
				WantRet: 42,
				Bugs: []KnownBug{
					{ID: "mt-publish-1", Species: SpeciesIntraFlushFence,
						DevFix: "flush+fence val in the issuing thread", Comparison: "identical"},
					{ID: "mt-publish-2", Species: SpeciesIntraFlushFence,
						DevFix: "flush+fence tag in the issuing thread", Comparison: "identical"},
				},
			},
			MaskedByDefault: true,
		},
		{
			Program: &Program{
				Name:    "pclht-mt",
				Target:  "mt",
				File:    "mt/pclht_mt.pmc",
				Entry:   "main",
				WantRet: 2,
				Bugs: []KnownBug{
					{ID: "pclht-mt-1", Species: SpeciesIntraFlushFence,
						DevFix: "flush+fence key before the used flag", Comparison: "identical"},
					{ID: "pclht-mt-2", Species: SpeciesIntraFlushFence,
						DevFix: "flush+fence val before the used flag", Comparison: "identical"},
					{ID: "pclht-mt-3", Species: SpeciesIntraFence,
						DevFix: "fence after the used flag's flush", Comparison: "identical"},
				},
			},
		},
		{
			Program: &Program{
				Name:    "pmlog-mt",
				Target:  "mt",
				File:    "mt/pmlog_mt.pmc",
				Entry:   "main",
				WantRet: 2,
				Bugs: []KnownBug{
					{ID: "pmlog-mt-1", Species: SpeciesIntraFlushFence,
						DevFix: "flush+fence the slot payload after the store", Comparison: "identical"},
				},
			},
		},
	}
}

// MTByName returns the named concurrent program, or nil.
func MTByName(name string) *MTProgram {
	for _, p := range MTPrograms() {
		if p.Name == name {
			return p
		}
	}
	return nil
}
