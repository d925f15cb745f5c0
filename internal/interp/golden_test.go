package interp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/trace"
	"hippocrates/internal/ycsb"
)

// The execution golden pins the interpreter's observable behaviour bit for
// bit: for every corpus program (concurrent ones under their default
// round-robin schedule) and for redis-pmem driven by the YCSB A–F stream,
// it records the return values, step count, per-opcode counters,
// simulated time, PM event log, online violations, printed trace and
// stdout. Any change to the dispatch loop, the memory model or the
// tracker that moves one bit of that shows up as a digest mismatch.
//
// Regenerate (only for an intended semantic change) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/interp/ -run TestExecutionGolden
const goldenPath = "testdata/execution.golden"

// Redis YCSB stream shape: per workload, a fresh machine loaded with
// goldenRecords keys, then goldenOps seeded operations.
const (
	goldenRecords = 200
	goldenOps     = 300
	goldenSeed    = 7
)

// runDigest accumulates one run's observable state.
type runDigest struct {
	h        hash.Hash
	steps    int64
	simTime  float64
	events   int
	viols    int
	finalRet uint64
}

func newRunDigest() *runDigest { return &runDigest{h: sha256.New()} }

func (d *runDigest) line(format string, args ...any) {
	fmt.Fprintf(d.h, format+"\n", args...)
}

// machine folds everything a finished (or failed) machine exposes.
func (d *runDigest) machine(m *interp.Machine, tr *trace.Trace, stdout *bytes.Buffer) {
	d.steps, d.simTime = m.Steps(), m.SimTime()
	d.events, d.viols = m.PMEvents(), len(m.Violations)
	d.line("steps %d", m.Steps())
	d.line("simtime %016x", math.Float64bits(m.SimTime()))
	ops := m.OpcodeCounts()
	names := make([]string, 0, len(ops))
	for k := range ops {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d.line("op %s %d", k, ops[k])
	}
	log := m.PMEventLog()
	b := make([]byte, len(log))
	for i, k := range log {
		b[i] = byte(k)
	}
	d.line("events %x", sha256.Sum256(b))
	for _, v := range m.Violations {
		d.line("violation %s seq=%d addr=%#x data=%x state=%s tid=%d ckpt=%d",
			v.Class, v.Store.Seq, v.Store.Addr, v.Store.Data, v.Store.State, v.Store.Tid, v.CheckpointSeq)
	}
	if tr != nil {
		if err := tr.Write(d.h); err != nil {
			panic(err)
		}
	}
	if stdout != nil {
		d.h.Write(stdout.Bytes())
	}
}

func (d *runDigest) String(name string) string {
	return fmt.Sprintf("%s ret=%d steps=%d simtime=%016x pmevents=%d violations=%d sha256=%s",
		name, d.finalRet, d.steps, math.Float64bits(d.simTime), d.events, d.viols, hex.EncodeToString(d.h.Sum(nil))[:32])
}

// digestProgram runs one corpus program's workload entry, traced.
func digestProgram(t *testing.T, p *corpus.Program) string {
	t.Helper()
	mod, err := p.Compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name, err)
	}
	d := newRunDigest()
	tr := &trace.Trace{Program: p.Name}
	var stdout bytes.Buffer
	m, err := interp.New(mod, interp.Options{Trace: tr, Stdout: &stdout})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	ret, err := m.Run(p.Entry)
	d.finalRet = ret
	d.line("ret %d err %v", ret, err)
	d.machine(m, tr, &stdout)
	return d.String(p.Name)
}

// digestRedisYCSB drives redis-pmem through YCSB A–F, one traced machine
// per workload, recording every command's return value.
func digestRedisYCSB(t *testing.T) []string {
	t.Helper()
	mod := corpus.ByName("redis-pmem").MustCompile()
	var out []string
	for i, wl := range ycsb.AllStandard() {
		d := newRunDigest()
		tr := &trace.Trace{Program: "redis-pmem"}
		m, err := interp.New(mod, interp.Options{Trace: tr, StepLimit: 1 << 62})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ycsb.LoadOps(goldenRecords) {
			ret, err := m.Run("cmd_set", uint64(op.Key), uint64(op.Value))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			d.line("load %d", ret)
		}
		for _, op := range ycsb.NewGenerator(wl, goldenRecords, goldenSeed+int64(i)).Ops(goldenOps) {
			ret, err := runYCSBOp(m, op)
			if err != nil {
				t.Fatalf("ycsb %s: %v", wl.Name, err)
			}
			d.finalRet = ret
			d.line("%s %d %d", op.Kind, op.Key, ret)
		}
		d.machine(m, tr, nil)
		out = append(out, d.String("redis-pmem-ycsb-"+wl.Name))
	}
	return out
}

func runYCSBOp(m *interp.Machine, op ycsb.Op) (uint64, error) {
	switch op.Kind {
	case ycsb.OpRead:
		return m.Run("cmd_get", uint64(op.Key))
	case ycsb.OpScan:
		return m.Run("cmd_scan", uint64(op.Key), uint64(op.ScanLen))
	case ycsb.OpRMW:
		return m.Run("cmd_rmw", uint64(op.Key))
	default:
		return m.Run("cmd_set", uint64(op.Key), uint64(op.Value))
	}
}

// executionGolden renders the whole golden document.
func executionGolden(t *testing.T) string {
	var lines []string
	for _, p := range corpus.All() {
		lines = append(lines, digestProgram(t, p))
	}
	for _, p := range corpus.MTPrograms() {
		lines = append(lines, digestProgram(t, p.Program))
	}
	lines = append(lines, digestRedisYCSB(t)...)
	return strings.Join(lines, "\n") + "\n"
}

// TestExecutionGolden checks that execution is bit-identical to the
// recorded golden.
func TestExecutionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole corpus and a YCSB stream")
	}
	got := executionGolden(t)
	path := goldenPath
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
