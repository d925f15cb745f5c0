package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
)

// TestParallelRunAndRepairSpanIsolation runs several full pipelines
// concurrently against one shared recorder and checks that explicit span
// parenting keeps each pipeline's tree intact: every span's ancestry
// terminates at the root its own goroutine opened, never at another
// goroutine's, and each subtree records the same phases. Run under
// `go test -race` (make verify does) this also exercises the recorder's
// locking.
func TestParallelRunAndRepairSpanIsolation(t *testing.T) {
	const workers = 8
	rec := obs.New()
	roots := make([]*obs.Span, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine repairs its own copy of the same buggy
			// module, so the per-root span subtrees must come out
			// identical.
			m := buildListing1()
			root := rec.StartSpan(fmt.Sprintf("pipeline-%d", i))
			roots[i] = root
			res, err := RunAndRepair(m, "main", Options{Obs: root, MaxSchedules: 1})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if !res.Fixed() {
				t.Errorf("worker %d: repair incomplete", i)
			}
			root.End()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	verifySpanIsolation(t, rec, roots,
		[]string{"trace", "detect", "alias-analyze", "plan", "apply", "revalidate"})
}

// TestParallelCrashCheckSpanIsolation is the same property with the crash
// validation stage on: two-plus pipelines share one recorder, each runs
// repair AND crashsim (whose probe/capture workers record schedule
// counters and "crashsim" child spans concurrently), and still no span
// may leak into another pipeline's tree. This is the sharing shape
// hippocratesd relies on for its aggregate recorder, proven under -race
// by make verify.
func TestParallelCrashCheckSpanIsolation(t *testing.T) {
	const workers = 8
	rec := obs.New()
	roots := make([]*obs.Span, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := lang.MustCompile("publish.pmc", `
pm int payload;
pm int flag;

int invariant_check() {
	if (payload != 0 && payload != 42) { return 1; }
	if (flag != 0 && flag != 1) { return 2; }
	return 0;
}

int crash_check(int completed) {
	if (completed >= 1) {
		if (payload != 42) { return 1; }
		if (flag != 1) { return 2; }
	}
	return 0;
}

int main() {
	payload = 42; // missing flush
	flag = 1;
	clwb(&flag);
	sfence();
	pm_checkpoint();
	return 0;
}
`)
			root := rec.StartSpan(fmt.Sprintf("pipeline-%d", i))
			roots[i] = root
			res, err := RunAndRepair(m, "main", Options{
				Obs:          root,
				MaxSchedules: 1,
				CrashCheck: &crashsim.Options{
					MaxPoints: 12,
					MaxImages: 3,
				},
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if !res.Fixed() {
				t.Errorf("worker %d: repair incomplete", i)
			}
			if len(res.Crash) != 1 || !res.CrashPassed() {
				t.Errorf("worker %d: crash validation failed", i)
			}
			root.End()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	verifySpanIsolation(t, rec, roots,
		[]string{"trace", "detect", "plan", "apply", "revalidate", "crashsim"})
}

// verifySpanIsolation checks that every span recorded under rec sits in
// exactly one worker root's subtree, that the identical workloads yielded
// identical subtrees, and that each subtree carries the expected phases.
func verifySpanIsolation(t *testing.T, rec *obs.Recorder, roots []*obs.Span, phases []string) {
	t.Helper()
	spans := rec.Spans()
	byID := make(map[int]*obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootSet := make(map[int]bool, len(roots))
	for _, r := range roots {
		rootSet[r.ID] = true
	}
	// Only the per-worker roots may be parentless.
	for _, s := range spans {
		if s.Parent == -1 && !rootSet[s.ID] {
			t.Errorf("orphan root span %q (id %d)", s.Name, s.ID)
		}
	}
	// Collect each root's subtree by walking ancestry, and check every
	// span landed under exactly one worker root.
	subtree := make(map[int][]string)
	for _, s := range spans {
		top := s
		for top.Parent != -1 {
			top = byID[top.Parent]
		}
		if !rootSet[top.ID] {
			t.Fatalf("span %q (id %d) is not under any worker root", s.Name, s.ID)
		}
		if s.ID != top.ID {
			subtree[top.ID] = append(subtree[top.ID], s.Name)
		}
		if s.Dur <= 0 {
			t.Errorf("span %q (id %d) was never ended", s.Name, s.ID)
		}
	}
	// Identical workloads ⇒ identical subtrees. A cross-goroutine parent
	// would surface here as one subtree gaining phases another lost.
	var want string
	for _, r := range roots {
		names := subtree[r.ID]
		sort.Strings(names)
		got := strings.Join(names, ",")
		if want == "" {
			want = got
			for _, phase := range phases {
				if !strings.Contains(","+got+",", ","+phase+",") {
					t.Errorf("subtree missing phase %q: %s", phase, got)
				}
			}
		} else if got != want {
			t.Errorf("subtree under %q diverged:\n got %s\nwant %s", byID[r.ID].Name, got, want)
		}
	}
}
