package interp_test

import (
	"sync"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
	"hippocrates/internal/trace"
)

// The decoded body of a function is memoized on its ir.Func and shared
// by every machine. These tests pin the invalidation contract: an edit
// between two runs of one module is what the next machine executes.

// runMain runs entry on a fresh machine over mod.
func runMain(t *testing.T, mod *ir.Module, entry string) (*interp.Machine, uint64) {
	t.Helper()
	m, err := interp.New(mod, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := m.Run(entry)
	if err != nil {
		t.Fatal(err)
	}
	return m, ret
}

// TestDecodeMemoSeesInsertedFix inserts a flush and fence after a
// module's unflushed PM store between two runs: the first machine
// reports the violation, the second executes the fix.
func TestDecodeMemoSeesInsertedFix(t *testing.T) {
	mod := ir.NewModule("memo-fix")
	for _, d := range interp.StdDecls() {
		mod.AddFunc(d)
	}
	g := mod.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	fn := mod.AddFunc(ir.NewFunc("main", ir.I64))
	b := ir.NewBuilder(fn)
	st := b.Store(ir.I64, ir.ConstInt(7), g)
	b.Ret(ir.ConstInt(1))
	fn.Renumber()
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}

	before, _ := runMain(t, mod, "main")
	if len(before.Violations) != 1 {
		t.Fatalf("unfixed run: %d violations, want 1", len(before.Violations))
	}
	if fn.ExecMemo() == nil {
		t.Fatal("running the module did not memoize the decoded body")
	}

	fl := &ir.Instr{Op: ir.OpFlush, FlushK: ir.CLWB, Args: []ir.Value{g}, Ty: ir.Void}
	fe := &ir.Instr{Op: ir.OpFence, FenceK: ir.SFENCE, Ty: ir.Void}
	st.Block().InsertAfter(st, fl)
	fl.Block().InsertAfter(fl, fe)
	if fn.ExecMemo() != nil {
		t.Fatal("inserting an instruction kept the stale decoded body")
	}

	after, ret := runMain(t, mod, "main")
	if ret != 1 {
		t.Fatalf("fixed run returned %d, want 1", ret)
	}
	if len(after.Violations) != 0 {
		t.Fatalf("fixed run: %d violations, want 0 (stale decode executed)", len(after.Violations))
	}
	ops := after.OpcodeCounts()
	if ops["flush"] != 1 || ops["fence"] != 1 {
		t.Fatalf("fixed run executed flush=%d fence=%d, want 1 and 1", ops["flush"], ops["fence"])
	}
}

// TestDecodeMemoSeesInPlaceEdit applies progen's EditValue — an in-place
// operand rewrite followed by Renumber — between two runs of one module:
// the second run must match a fresh module carrying the same edit.
func TestDecodeMemoSeesInPlaceEdit(t *testing.T) {
	cfg := progen.LayeredConfig{Leaves: 4, Mids: 2, LeafOps: 3, PMCells: 2}
	// Every mid calls leaf0 last, so its stores are the ones main sums.
	step := progen.EditStep{Kind: progen.EditValue, Target: "leaf0"}

	shared := progen.Layered(cfg)
	_, before := runMain(t, shared, "main")
	if err := progen.ApplyEdit(shared, step); err != nil {
		t.Fatal(err)
	}
	_, after := runMain(t, shared, "main")

	fresh := progen.Layered(cfg)
	if err := progen.ApplyEdit(fresh, step); err != nil {
		t.Fatal(err)
	}
	_, want := runMain(t, fresh, "main")
	if after != want {
		t.Fatalf("%s: edited module returned %d on a reused module, %d on a fresh one", step, after, want)
	}
	if after == before {
		t.Fatalf("%s: edit did not change the result (%d); the test lost its witness", step, after)
	}
}

// TestDecodeMemoConcurrentMachines runs eight machines over one clean,
// never-executed module at once (the decode races under -race) and
// requires identical results.
func TestDecodeMemoConcurrentMachines(t *testing.T) {
	p := corpus.ByName("pclht")
	mod := p.MustCompile()
	type result struct {
		ret     uint64
		steps   int64
		simTime float64
		trace   string
		err     error
	}
	const n = 8
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &trace.Trace{Program: p.Name}
			m, err := interp.New(mod, interp.Options{Trace: tr})
			if err != nil {
				results[i].err = err
				return
			}
			ret, err := m.Run(p.Entry)
			results[i] = result{ret: ret, steps: m.Steps(), simTime: m.SimTime(), trace: tr.String(), err: err}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("machine %d: %v", i, r.err)
		}
		if r != results[0] {
			t.Fatalf("machine %d diverged: ret %d steps %d simtime %v (machine 0: ret %d steps %d simtime %v, traces equal %v)",
				i, r.ret, r.steps, r.simTime, results[0].ret, results[0].steps, results[0].simTime, r.trace == results[0].trace)
		}
	}
}
