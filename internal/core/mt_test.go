package core

import (
	"testing"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/lang"
	"hippocrates/internal/schedule"
)

// mtShowcase is the cross-thread unordered-publish showcase: the worker
// persists nothing it writes, and main's own clwb+sfence of the shared
// line masks the bug under the default round-robin interleaving. An
// interleaving that runs main's flush before the worker's store leaves
// the store pending when main durably publishes the shard's address —
// a crash then recovers a published shard with a torn payload.
const mtShowcase = `
struct shard {
	int stats;
	int val;
	byte pad[48];
};

struct root {
	shard s;
	byte *head;
};

void worker() {
	root *r = (root*) pm_root(sizeof(root));
	r->s.val = 42; // BUG: published by main with no flush or fence here
}

int main() {
	root *r = (root*) pm_root(sizeof(root));
	int t = spawn(worker);
	r->s.stats = r->s.stats + 1;
	clwb((byte*) &r->s.stats);
	sfence();
	join(t);
	r->head = (byte*) &r->s;
	clwb((byte*) &r->head);
	sfence();
	pm_checkpoint();
	return r->s.val;
}

int invariant_check() {
	root *r = (root*) pm_root(sizeof(root));
	if ((int) r->head != 0) {
		shard *s = (shard*) r->head;
		if (s->val != 42) { return 1; }
	}
	return 0;
}

int crash_check(int completed) {
	root *r = (root*) pm_root(sizeof(root));
	if (completed >= 1) {
		if ((int) r->head == 0) { return 2; }
	}
	return invariant_check();
}
`

func TestRunAndRepairMTHealsUnorderedPublish(t *testing.T) {
	mod, err := lang.Compile("mtshowcase.pmc", mtShowcase)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := RunAndRepair(mod, "main", Options{CrashCheck: &crashsim.Options{}})
	if err != nil {
		t.Fatalf("RunAndRepair: %v", err)
	}
	if res.Before.Clean() {
		t.Fatal("exploration found no bug in the buggy module")
	}
	crossThread := false
	for _, rep := range res.Before.Reports {
		if rep.CrossThread {
			crossThread = true
		}
	}
	if !crossThread {
		t.Error("union verdict lacks a cross-thread publish report")
	}
	if res.Fix == nil || len(res.Fix.Fixes) == 0 {
		t.Fatal("no fixes were applied")
	}
	if !res.Fixed() {
		t.Fatalf("repair did not converge: after=%d reports, %d crash sweeps",
			len(res.After.Reports), len(res.Crash))
	}
	if got, want := len(res.Crash), res.ReExploration.Explored; got != want {
		t.Errorf("crash sweeps cover %d schedules, want %d", got, want)
	}
	for _, c := range res.Crash {
		if !c.Report.Passed() {
			t.Errorf("schedule %s failed crash validation:\n%s", c.ID, c.Report.Summary())
		}
	}
}

func TestBuggyShowcaseFailsCrashUnderSomeSchedule(t *testing.T) {
	mod, err := lang.Compile("mtshowcase.pmc", mtShowcase)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ex, err := schedule.Explore(mod, "main", nil, schedule.Options{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if ex.Runs[0].Buggy() {
		t.Fatal("default schedule should mask the bug")
	}
	bad := ex.FirstBuggy()
	if bad == nil {
		t.Fatal("no explored schedule exposed the bug")
	}
	rep, err := crashsim.Validate(mod, crashsim.Options{Schedule: bad.Choices})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.Passed() {
		t.Errorf("buggy module under schedule %s should fail a crash image:\n%s",
			bad.ID, rep.Summary())
	}
}
