// Package interp executes IR modules on the simulated persistent-memory
// machine (internal/pmem). It plays the role that native execution under
// pmemcheck/Valgrind plays in the paper: it runs the program, applies the
// durability state machine to every PM operation, accumulates simulated
// time from the cost model, and (optionally) records the pmemcheck-style
// event trace that the bug detector and the fixer consume.
package interp

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// Options configures a Machine.
type Options struct {
	// Cost is the latency model; nil selects pmem.DefaultCostModel.
	Cost *pmem.CostModel
	// Trace, when non-nil, receives every PM event.
	Trace *trace.Trace
	// Stdout receives output from the print builtins; nil discards it.
	Stdout io.Writer
	// StepLimit bounds executed instructions (0 means the 100M default).
	// Exceeding it returns a *LimitError.
	StepLimit int64
	// Deadline, when non-zero, is the wall-clock instant after which
	// execution aborts with a *LimitError. The check runs every few
	// thousand instructions, so overshoot is bounded and the hot loop
	// stays branch-cheap.
	Deadline time.Time
	// Memory, when non-nil, is used as the machine's memory instead of a
	// fresh one — pass a crash image here to run recovery code. With
	// ResumePM set, persistent globals are not re-initialized (their
	// bytes are whatever the image holds), matching a restart on real
	// hardware.
	Memory   *pmem.Memory
	ResumePM bool
	// CrashAtCheckpoint, when positive, aborts execution with
	// ErrSimulatedCrash at the Nth durability point (1-based). The
	// machine's tracker then holds the exact durability state at the
	// crash, ready for CrashImage — the Yat-style exhaustive
	// crash-testing hook.
	CrashAtCheckpoint int
	// CrashAtEvent, when positive, aborts execution with
	// ErrSimulatedCrash immediately after the Nth PM event boundary
	// (1-based over stores, NT-stores, flushes, fences, and durability
	// points — the numbering PMEventLog reports). The event's tracker
	// effect has already been applied when the crash fires, so the
	// machine holds the exact durability state an eviction-order
	// enumerator needs (see internal/crashsim).
	CrashAtEvent int
	// OnPMEvent, when non-nil, is called at every PM event boundary
	// after the event's tracker effect has been applied (and before
	// CrashAtEvent is considered): k is the 1-based event index — the
	// CrashAtEvent coordinate — and kind the event's kind. Returning a
	// non-nil error aborts the run with it. The hook may capture
	// durability state (CaptureCrashState) but must not otherwise mutate
	// the machine; it lets one workload execution stand in for a
	// re-execution per crash point.
	OnPMEvent func(k int, kind PMEventKind) error
	// Schedule replays a scheduling-decision prefix for multi-threaded
	// programs: entry i is the choice taken at the i-th decision point
	// (an index into that point's runnable-thread list). Beyond the
	// prefix the scheduler continues round-robin. Nil/empty is pure
	// round-robin. Single-threaded programs never consult it. See
	// ScheduleID/ParseScheduleID for the textual form.
	Schedule []int
	// NoTrack disables durability tracking: the machine runs with a nil
	// Track, records no violations, and cannot capture crash images
	// (CrashImage, CrashImageCuts, CaptureCrashState panic). Memory
	// semantics are unchanged — stores still hit Mem — only the shadow
	// durability state is skipped. Crash-validation recovery boots use
	// this: they only need the entry's verdict, and the tracker's
	// per-store records are the bulk of a boot's allocation.
	NoTrack bool
}

// ErrSimulatedCrash is returned by Run when Options.CrashAtCheckpoint or
// Options.CrashAtEvent fires. The machine remains inspectable.
var ErrSimulatedCrash = fmt.Errorf("interp: simulated crash at durability point")

// LimitError reports that execution exceeded a configured resource
// limit: the instruction budget (Options.StepLimit) or the wall-clock
// deadline (Options.Deadline). It is how adversarial or generated
// programs fail — a typed, recoverable error rather than a hang.
type LimitError struct {
	// Resource is "steps" or "deadline".
	Resource string
	// Steps is the instruction count when the limit fired.
	Steps int64
	// Limit is the configured step budget (Resource == "steps").
	Limit int64
	// Stack is the simulated call stack at the point of interruption.
	Stack []trace.Frame
}

func (e *LimitError) Error() string {
	var s string
	if e.Resource == "deadline" {
		s = fmt.Sprintf("interp: wall-clock deadline exceeded after %d steps", e.Steps)
	} else {
		s = fmt.Sprintf("interp: step limit exceeded (%d)", e.Limit)
	}
	for _, f := range e.Stack {
		s += "\n\tat " + f.String()
	}
	return s
}

// PMEventKind identifies one PM event boundary for crash injection.
type PMEventKind uint8

// The PM event boundary kinds, in the order PMEventLog reports them.
const (
	EvStore PMEventKind = iota
	EvNTStore
	EvFlush
	EvFence
	EvCheckpoint
)

// numPMEventKinds sizes dense per-kind counter arrays.
const numPMEventKinds = int(EvCheckpoint) + 1

func (k PMEventKind) String() string {
	switch k {
	case EvStore:
		return "store"
	case EvNTStore:
		return "nt-store"
	case EvFlush:
		return "flush"
	case EvFence:
		return "fence"
	case EvCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Builtin is the signature of a registered external function.
type Builtin func(m *Machine, args []uint64) (uint64, error)

// Machine executes one module instance.
type Machine struct {
	Mod   *ir.Module
	Mem   *pmem.Memory
	Track *pmem.Tracker
	Clock pmem.Clock

	// Violations collects durability violations observed online at
	// checkpoints (the detector recomputes them offline from the trace).
	Violations []pmem.Violation

	opts     Options
	cost     *pmem.CostModel
	builtins map[string]Builtin

	// gaddr holds each global's address, indexed like Mod.Globals.
	gaddr    []uint64
	heapNext uint64
	pmNext   uint64
	rootAddr uint64
	rootSize uint64

	frames    []*frame
	framePool []*frame
	// mt is the scheduler state, allocated lazily on first spawn;
	// single-threaded runs keep it nil and skip every scheduling branch.
	mt *mtState
	// stackBase/stackLimit bound the running thread's simulated stack
	// segment (the whole stack until a spawn partitions it).
	stackBase  uint64
	stackLimit uint64
	// threadEv counts PM event boundaries per thread and kind, feeding
	// the per-thread observability counters.
	threadEv    [][numPMEventKinds]int64
	seq         int
	steps       int64
	max         int64
	deadline    time.Time
	hasDeadline bool
	checkpoints int

	// pmEventLog records the kind of every PM event boundary, one byte
	// per event; its length is the CrashAtEvent coordinate space.
	pmEventLog []PMEventKind

	// events and frameArena are chunked arenas for trace recording:
	// Event records and stack-frame slices are carved from block
	// allocations, so a traced run pays amortized chunk allocations
	// instead of two heap allocations per PM event. Untraced runs touch
	// neither (emit elides the Event entirely).
	events    eventArena
	frameBuf  []trace.Frame
	frameUsed int

	// ops counts executed instructions per opcode. A dense array indexed
	// by ir.Op keeps the dispatch-loop cost to one increment; the map view
	// is built on demand by OpcodeCounts.
	ops [ir.NumOps]int64
}

type frame struct {
	code *funcCode
	// regs is the dense register file: parameters first, then
	// result-producing instructions, indexed by ir's Renumber slots,
	// then the function's constants.
	regs []uint64
	// args is the scratch vector that builtins called from this frame
	// receive their argument values in; it lives as long as the pooled
	// frame, so builtin calls allocate nothing.
	args []uint64
	cur  *ir.Instr // instruction being executed (for stack traces)

	// Stack allocation bookkeeping: allocas carve from
	// [stackTop-stackUsed, stackTop); storage is reclaimed on return.
	stackTop  uint64
	stackUsed uint64
}

func (f *frame) stackLow() uint64 { return f.stackTop - f.stackUsed }

// getFrame recycles call frames: value slots need no clearing because
// well-formed IR defines every value before its first use, and the
// constants only need loading when the frame last ran different code.
func (m *Machine) getFrame(code *funcCode) *frame {
	var f *frame
	if n := len(m.framePool); n > 0 {
		f = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		f = &frame{}
	}
	f.cur = nil
	f.stackTop = 0
	f.stackUsed = 0
	n := code.numSlots + len(code.consts)
	if cap(f.regs) >= n {
		f.regs = f.regs[:n]
		if f.code != code {
			copy(f.regs[code.numSlots:], code.consts)
		}
	} else {
		f.regs = make([]uint64, n)
		copy(f.regs[code.numSlots:], code.consts)
	}
	f.code = code
	return f
}

// RuntimeError is an execution fault with the simulated call stack.
type RuntimeError struct {
	Msg   string
	Stack []trace.Frame
}

func (e *RuntimeError) Error() string {
	s := "interp: " + e.Msg
	for _, f := range e.Stack {
		s += "\n\tat " + f.String()
	}
	return s
}

// New prepares a machine: lays out globals, seeds PM initializers as
// durable content, and registers the standard builtins.
func New(mod *ir.Module, opts Options) (*Machine, error) {
	m := &Machine{
		Mod:        mod,
		opts:       opts,
		cost:       opts.Cost,
		builtins:   make(map[string]Builtin),
		gaddr:      make([]uint64, len(mod.Globals)),
		heapNext:   pmem.HeapBase,
		max:        opts.StepLimit,
		deadline:   opts.Deadline,
		stackBase:  pmem.StackBase,
		stackLimit: pmem.StackBase - pmem.StackMax,
	}
	if !opts.NoTrack {
		m.Track = pmem.NewTracker()
	}
	m.hasDeadline = !opts.Deadline.IsZero()
	if m.cost == nil {
		m.cost = pmem.DefaultCostModel()
	}
	if m.max == 0 {
		m.max = 100_000_000
	}
	if opts.Memory != nil {
		m.Mem = opts.Memory
	} else {
		m.Mem = pmem.NewMemory()
	}
	registerStdBuiltins(m)

	// The interpreter addresses values by their dense Renumber slots;
	// normalize any function mutated (or never numbered) since its last
	// Renumber. Clean modules see no writes here, so independent machines
	// may share them across goroutines.
	for _, f := range mod.Funcs {
		if !f.IsDecl() && f.NeedsRenumber() {
			f.Renumber()
		}
	}

	// Lay out globals: volatile ones from GlobalBase, persistent ones
	// from PMBase (after one reserved allocator-metadata line).
	volNext := uint64(pmem.GlobalBase)
	pmNext := uint64(pmem.PMBase) + pmem.LineSize
	for gi, g := range mod.Globals {
		size := uint64(g.Elem.Size())
		align := uint64(g.Elem.Align())
		if g.PM && align < pmem.LineSize {
			// PM objects are cache-line aligned (as PMDK allocates),
			// so a single object never shares a line with another.
			align = pmem.LineSize
		}
		var addr uint64
		if g.PM {
			pmNext = alignUp(pmNext, align)
			addr = pmNext
			pmNext += size
		} else {
			volNext = alignUp(volNext, align)
			addr = volNext
			volNext += size
		}
		m.gaddr[gi] = addr
		if g.PM {
			// Announce the persistent region to the trace (bug finders
			// know registered pools; Trace-AA consumes these events).
			m.emit(nil, trace.Event{Kind: trace.KindAlloc, Addr: addr, Size: int(size), Sym: g.Name})
		}
		if g.PM && opts.ResumePM {
			// A restart: PM contents come from the supplied image.
			continue
		}
		if len(g.Init) > 0 {
			m.Mem.Write(addr, g.Init)
		}
		if g.PM && m.Track != nil {
			// Pre-existing PM content is durable by definition.
			m.Track.SeedDurable(addr, initImage(g))
		}
	}
	m.pmNext = alignUp(pmNext, pmem.LineSize)
	if opts.ResumePM {
		// The allocator cursor survives in its reserved metadata line.
		if cur := m.Mem.ReadUint(pmem.PMBase, 8); cur != 0 {
			m.pmNext = cur
		}
	} else {
		m.Mem.WriteUint(pmem.PMBase, 8, m.pmNext)
	}
	return m, nil
}

func initImage(g *ir.Global) []byte {
	img := make([]byte, g.Elem.Size())
	copy(img, g.Init)
	return img
}

func alignUp(n, a uint64) uint64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// RegisterBuiltin installs (or overrides) an external function handler.
func (m *Machine) RegisterBuiltin(name string, fn Builtin) { m.builtins[name] = fn }

// GlobalAddr returns the simulated address of a global.
func (m *Machine) GlobalAddr(name string) uint64 {
	for i, g := range m.Mod.Globals[:len(m.gaddr)] {
		if g.Name == name {
			return m.gaddr[i]
		}
	}
	panic("interp: unknown global @" + name)
}

// Run executes the named entry function with integer/pointer arguments and
// returns its result. The end of the entry function is an implicit
// durability point: like pmemcheck, every PM store must be durable when
// the program exits.
func (m *Machine) Run(entry string, args ...uint64) (uint64, error) {
	fn := m.Mod.Func(entry)
	if fn == nil {
		return 0, fmt.Errorf("interp: no entry function @%s", entry)
	}
	if fn.IsDecl() {
		return 0, fmt.Errorf("interp: entry @%s is a declaration", entry)
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("interp: entry @%s takes %d arguments, got %d", entry, len(fn.Params), len(args))
	}
	ret, err := m.runMain(fn, args)
	if err == nil && m.mt != nil {
		// pthread semantics without detach: every spawned thread must be
		// joined (or at least have finished) before main returns.
		for _, t := range m.mt.threads[1:] {
			if t.state != thDone {
				err = &RuntimeError{Msg: fmt.Sprintf("main returned with thread %d still running", t.tid)}
				break
			}
		}
	}
	// Tear down any threads still parked (error paths and unjoined
	// threads); a clean run has none and this is a no-op.
	m.killThreads()
	if err != nil {
		return 0, err
	}
	// Implicit final durability point.
	if err := m.checkpoint(nil); err != nil {
		return 0, err
	}
	return ret, nil
}

// runMain executes the entry function on the calling goroutine (thread
// 0) and converts a scheduler teardown unwind into the run's verdict.
func (m *Machine) runMain(fn *ir.Func, args []uint64) (ret uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
			ret, err = 0, m.mt.err
		}
	}()
	return m.call(fn, args)
}

// CrashImage builds a possible post-crash PM image: the durable bytes,
// plus the pending stores chosen by keep (any subset may have been evicted
// to PM before the crash), plus the allocator's reserved metadata line
// (which the simulated hardware keeps consistent on its own). Pass the
// image to a new Machine with Options{Memory: img, ResumePM: true} to run
// recovery code against it.
func (m *Machine) CrashImage(keep func(*pmem.TrackedStore) bool) *pmem.Memory {
	if keep == nil {
		keep = func(*pmem.TrackedStore) bool { return false }
	}
	img := m.Track.CrashImage(keep)
	return m.stampMeta(img)
}

// CrashImageCuts builds the post-crash PM image for one specific crash
// schedule under the per-line prefix model: cuts[i] is how many of the
// i-th pending line's stores (in Track.PendingLines order) reached PM
// before the crash. Like CrashImage, the allocator's reserved metadata
// line is carried over intact.
func (m *Machine) CrashImageCuts(cuts []int) *pmem.Memory {
	return m.stampMeta(m.Track.CrashImagePrefix(cuts))
}

// CaptureCrashState snapshots the machine's current durability state —
// the copy-on-write durable image, the pending lines, and the allocator
// metadata line — for deferred crash-image construction. Capturing at a
// PM event boundary (from an Options.OnPMEvent hook) yields exactly the
// state a CrashAtEvent run would hold at that boundary, at the cost of a
// page-map copy instead of a whole re-execution.
func (m *Machine) CaptureCrashState() *pmem.CrashState {
	cs := m.Track.CaptureCrashState()
	meta := make([]byte, pmem.LineSize)
	m.Mem.Read(pmem.PMBase, meta)
	cs.Meta = meta
	return cs
}

// stampMeta copies the allocator's reserved metadata line into a crash
// image (the simulated hardware keeps it consistent on its own).
func (m *Machine) stampMeta(img *pmem.Memory) *pmem.Memory {
	meta := make([]byte, pmem.LineSize)
	m.Mem.Read(pmem.PMBase, meta)
	img.Write(pmem.PMBase, meta)
	return img
}

// SimTime returns the simulated nanoseconds elapsed so far.
func (m *Machine) SimTime() float64 { return m.Clock.Nanoseconds() }

// Steps returns the number of executed instructions.
func (m *Machine) Steps() int64 { return m.steps }

func (m *Machine) fault(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Stack: m.stack(nil)}
}

// stack builds the current call stack, innermost first, as a private
// allocation (error paths; hot paths use stackFrames). When in is
// non-nil it is the active instruction of the top frame.
func (m *Machine) stack(in *ir.Instr) []trace.Frame {
	out := make([]trace.Frame, len(m.frames))
	m.fillStack(out, in)
	return out
}

// eventArena hands out trace.Event records carved from chunk
// allocations. Records are used once; earlier pointers stay valid when a
// new chunk starts.
type eventArena struct {
	buf []trace.Event
	n   int
}

func (a *eventArena) next() *trace.Event {
	if a.n == len(a.buf) {
		a.buf = make([]trace.Event, 512)
		a.n = 0
	}
	e := &a.buf[a.n]
	a.n++
	return e
}

// emit advances the global PM event sequence and returns the assigned
// number. When tracing is on, it also records the event with the current
// call stack (in is the active instruction of the top frame; nil for
// machine-setup events). Untraced runs pay only the increment: no Event
// or stack is materialized.
func (m *Machine) emit(in *ir.Instr, e trace.Event) int {
	seq := m.seq
	m.seq++
	tr := m.opts.Trace
	if tr == nil {
		return seq
	}
	ev := m.events.next()
	*ev = e
	ev.Seq = seq
	ev.Tid = m.curTid()
	ev.Stack = m.stackFrames(in)
	tr.Events = append(tr.Events, ev)
	return seq
}

// stackFrames is stack carved from the frame arena: same contents,
// amortized allocation. Slices are capacity-clipped so a consumer's
// append cannot clobber a neighbor.
func (m *Machine) stackFrames(in *ir.Instr) []trace.Frame {
	n := len(m.frames)
	if n == 0 {
		return nil
	}
	if m.frameUsed+n > len(m.frameBuf) {
		sz := 1024
		if n > sz {
			sz = n
		}
		m.frameBuf = make([]trace.Frame, sz)
		m.frameUsed = 0
	}
	out := m.frameBuf[m.frameUsed : m.frameUsed+n : m.frameUsed+n]
	m.frameUsed += n
	m.fillStack(out, in)
	return out
}

// fillStack writes the call stack, innermost first, into out (length
// len(m.frames)). When in is non-nil it is the active instruction of the
// top frame.
func (m *Machine) fillStack(out []trace.Frame, in *ir.Instr) {
	top := len(m.frames) - 1
	for i := top; i >= 0; i-- {
		f := m.frames[i]
		cur := f.cur
		if i == top && in != nil {
			cur = in
		}
		fr := trace.Frame{Func: f.code.fn.Name}
		if cur != nil {
			fr.InstrID = cur.ID
			fr.Loc = cur.Loc
		}
		out[top-i] = fr
	}
}

func (m *Machine) checkpoint(in *ir.Instr) error {
	if err := m.yieldPM(PendCheckpoint, 0); err != nil {
		return err
	}
	seq := m.emit(in, trace.Event{Kind: trace.KindCheckpoint})
	if m.Track != nil {
		m.Violations = append(m.Violations, m.Track.OnCheckpoint(seq)...)
	}
	m.checkpoints++
	if m.opts.CrashAtCheckpoint > 0 && m.checkpoints == m.opts.CrashAtCheckpoint {
		m.pmEventLog = append(m.pmEventLog, EvCheckpoint)
		return ErrSimulatedCrash
	}
	return m.pmEvent(EvCheckpoint)
}

// Checkpoints returns the number of durability points passed so far.
func (m *Machine) Checkpoints() int { return m.checkpoints }

// pmEvent logs one PM event boundary, fires Options.OnPMEvent, then
// Options.CrashAtEvent. Callers invoke it after applying the event's
// tracker effect, so both the hook and a simulated crash observe the
// post-event durability state.
func (m *Machine) pmEvent(k PMEventKind) error {
	m.pmEventLog = append(m.pmEventLog, k)
	if tid := m.curTid(); tid < len(m.threadEv) {
		m.threadEv[tid][k]++
	} else {
		for len(m.threadEv) <= tid {
			m.threadEv = append(m.threadEv, [numPMEventKinds]int64{})
		}
		m.threadEv[tid][k]++
	}
	if m.opts.OnPMEvent != nil {
		if err := m.opts.OnPMEvent(len(m.pmEventLog), k); err != nil {
			return err
		}
	}
	if m.opts.CrashAtEvent > 0 && len(m.pmEventLog) == m.opts.CrashAtEvent {
		return ErrSimulatedCrash
	}
	return nil
}

// PMEvents returns the number of PM event boundaries passed so far —
// the coordinate space Options.CrashAtEvent indexes (1-based).
func (m *Machine) PMEvents() int { return len(m.pmEventLog) }

// PMEventLog returns the kind of every PM event boundary passed so far,
// in order. Entry i corresponds to CrashAtEvent = i+1. The slice is the
// machine's own log; callers must not mutate it.
func (m *Machine) PMEventLog() []PMEventKind { return m.pmEventLog }

// call runs fn with the given argument values on a new frame.
func (m *Machine) call(fn *ir.Func, args []uint64) (uint64, error) {
	f, err := m.enter(fn)
	if err != nil {
		return 0, err
	}
	copy(f.regs[:len(fn.Params)], args)
	return m.run(f)
}

// enter pushes a frame for fn. The caller fills the parameter registers
// and then runs the frame.
func (m *Machine) enter(fn *ir.Func) (*frame, error) {
	if len(m.frames) >= 10_000 {
		return nil, m.fault("stack overflow calling @%s", fn.Name)
	}
	f := m.getFrame(m.code(fn))
	if len(m.frames) == 0 {
		f.stackTop = m.stackBase
	} else {
		f.stackTop = m.frames[len(m.frames)-1].stackLow()
	}
	m.frames = append(m.frames, f)
	m.Clock.Advance(m.cost.Call)
	return f, nil
}

// val reads a decoded operand: a register of the frame or the address of
// a global.
func (m *Machine) val(regs []uint64, r operand) uint64 {
	if r >= 0 {
		return regs[r]
	}
	return m.gaddr[^r]
}

// alu commits an arithmetic, comparison or cast result: truncated to the
// result type, at ALU cost.
func (m *Machine) alu(regs []uint64, d *dinstr, v uint64) {
	regs[d.dst] = v & d.mask
	m.Clock.Advance(m.cost.ALUOp)
}

// run executes the top frame f to its return and pops it. This is the
// interpreter's one dispatch loop: the hot opcodes execute inline, the
// rest in exec.
func (m *Machine) run(f *frame) (uint64, error) {
	defer func() {
		m.frames = m.frames[:len(m.frames)-1]
		m.framePool = append(m.framePool, f)
	}()
	code, regs := f.code, f.regs
	blk := 0
	for {
		bc := &code.blocks[blk]
		next := -1
		for pc := bc.start; pc < bc.end; pc++ {
			d := &code.instrs[pc]
			m.steps++
			m.ops[d.op]++
			if m.steps > m.max {
				return 0, &LimitError{Resource: "steps", Steps: m.steps, Limit: m.max, Stack: m.stack(d.in)}
			}
			if m.hasDeadline && m.steps&8191 == 0 && time.Now().After(m.deadline) {
				return 0, &LimitError{Resource: "deadline", Steps: m.steps, Stack: m.stack(d.in)}
			}
			f.cur = d.in
			switch d.op {
			case ir.OpRet:
				if d.size == 0 {
					return 0, nil
				}
				return m.val(regs, d.a), nil
			case ir.OpJmp:
				next = int(d.a)
			case ir.OpBr:
				m.Clock.Advance(m.cost.ALUOp)
				if m.val(regs, d.a) != 0 {
					next = int(d.b)
				} else {
					next = int(d.c)
				}

			case ir.OpLoad:
				addr := m.val(regs, d.a)
				if !pmem.Mapped(addr) {
					return 0, m.accessFault("load", addr, d.size)
				}
				regs[d.dst] = m.Mem.ReadUint(addr, int(d.size)) & d.mask
				if pmem.IsPM(addr) {
					m.Clock.Advance(m.cost.LoadPM)
				} else {
					m.Clock.Advance(m.cost.LoadDRAM)
				}
			case ir.OpStore, ir.OpNTStore:
				val, addr := m.val(regs, d.a), m.val(regs, d.b)
				if !pmem.Mapped(addr) {
					return 0, m.accessFault("store", addr, d.size)
				}
				if pmem.IsPM(addr) {
					if err := m.pmStore(d, addr, val); err != nil {
						return 0, err
					}
				} else {
					m.Mem.WriteUint(addr, int(d.size), val)
					m.Clock.Advance(m.cost.StoreDRAM)
				}
			case ir.OpPtrAdd:
				m.alu(regs, d, m.val(regs, d.a)+m.val(regs, d.b)*uint64(d.scale)+uint64(d.disp))

			case ir.OpAdd:
				m.alu(regs, d, m.val(regs, d.a)+m.val(regs, d.b))
			case ir.OpSub:
				m.alu(regs, d, m.val(regs, d.a)-m.val(regs, d.b))
			case ir.OpMul:
				m.alu(regs, d, m.val(regs, d.a)*m.val(regs, d.b))
			case ir.OpSDiv, ir.OpSRem:
				x, y := int64(m.val(regs, d.a)), int64(m.val(regs, d.b))
				if y == 0 {
					if d.op == ir.OpSDiv {
						return 0, m.fault("division by zero")
					}
					return 0, m.fault("remainder by zero")
				}
				if d.op == ir.OpSDiv {
					m.alu(regs, d, uint64(x/y))
				} else {
					m.alu(regs, d, uint64(x%y))
				}
			case ir.OpAnd:
				m.alu(regs, d, m.val(regs, d.a)&m.val(regs, d.b))
			case ir.OpOr:
				m.alu(regs, d, m.val(regs, d.a)|m.val(regs, d.b))
			case ir.OpXor:
				m.alu(regs, d, m.val(regs, d.a)^m.val(regs, d.b))
			case ir.OpShl:
				m.alu(regs, d, m.val(regs, d.a)<<(m.val(regs, d.b)&63))
			case ir.OpAShr:
				m.alu(regs, d, uint64(int64(m.val(regs, d.a))>>(m.val(regs, d.b)&63)))

			case ir.OpEq:
				m.alu(regs, d, boolVal(m.val(regs, d.a) == m.val(regs, d.b)))
			case ir.OpNe:
				m.alu(regs, d, boolVal(m.val(regs, d.a) != m.val(regs, d.b)))
			case ir.OpLt:
				m.alu(regs, d, boolVal(int64(m.val(regs, d.a)) < int64(m.val(regs, d.b))))
			case ir.OpLe:
				m.alu(regs, d, boolVal(int64(m.val(regs, d.a)) <= int64(m.val(regs, d.b))))
			case ir.OpGt:
				m.alu(regs, d, boolVal(int64(m.val(regs, d.a)) > int64(m.val(regs, d.b))))
			case ir.OpGe:
				m.alu(regs, d, boolVal(int64(m.val(regs, d.a)) >= int64(m.val(regs, d.b))))

			case ir.OpZExt, ir.OpTrunc, ir.OpPtrToInt, ir.OpIntToPtr:
				m.alu(regs, d, m.val(regs, d.a))

			case ir.OpCall:
				ret, err := m.callSite(f, &code.calls[d.a])
				if err != nil {
					return 0, err
				}
				if d.dst >= 0 {
					regs[d.dst] = ret
				}

			default:
				if err := m.exec(f, d); err != nil {
					return 0, err
				}
			}
		}
		if next < 0 {
			return 0, m.fault("block ^%s in @%s fell through", bc.blk.Name, code.fn.Name)
		}
		blk = next
	}
}

// callSite executes a call from frame f: a builtin receives the argument
// values in f's scratch vector, an IR callee has them written straight
// into its parameter registers.
func (m *Machine) callSite(f *frame, cs *callSite) (uint64, error) {
	if cs.fn.IsDecl() {
		b, ok := m.builtins[cs.fn.Name]
		if !ok {
			return 0, m.fault("call to unregistered external @%s", cs.fn.Name)
		}
		args := f.args[:0]
		for _, r := range cs.args {
			args = append(args, m.val(f.regs, r))
		}
		f.args = args
		return b(m, args)
	}
	callee, err := m.enter(cs.fn)
	if err != nil {
		return 0, err
	}
	n := min(len(cs.args), len(cs.fn.Params))
	for i, r := range cs.args[:n] {
		callee.regs[i] = m.val(f.regs, r)
	}
	return m.run(callee)
}

// pmStore executes a store or NT-store to PM: the scheduler announcement,
// the memory write, the trace event, the tracker's pending record and
// the PM event boundary.
func (m *Machine) pmStore(d *dinstr, addr, val uint64) error {
	nt := d.op == ir.OpNTStore
	pend := PendStore
	if nt {
		pend = PendNTStore
	}
	if err := m.yieldPM(pend, addr); err != nil {
		return err
	}
	size := int(d.size)
	m.Mem.WriteUint(addr, size, val)
	// IR scalars are at most 8 bytes, so the payload fits a stack buffer
	// encoded straight from the value; the tracker makes its own durable
	// copy.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	data := buf[:size]
	kind := trace.KindStore
	if nt {
		kind = trace.KindNTStore
	}
	e := trace.Event{Kind: kind, Addr: addr, Size: size}
	if size == 8 && pmem.IsPM(val) {
		// The stored value names a PM location: record it so the
		// offline detector can replay pointer publications.
		e.Val = val
	}
	seq := m.emit(d.in, e)
	ev := EvStore
	if nt {
		ev = EvNTStore
	}
	if m.Track != nil {
		if nt {
			m.Track.OnNTStoreT(seq, m.curTid(), addr, data)
		} else {
			m.Track.OnStoreT(seq, m.curTid(), addr, data)
		}
	}
	m.Clock.Advance(m.cost.StorePM)
	return m.pmEvent(ev)
}

// exec runs one of the less frequent non-terminator instructions.
func (m *Machine) exec(f *frame, d *dinstr) error {
	in, regs := d.in, f.regs
	switch d.op {
	case ir.OpAlloca:
		addr := m.allocStack(uint64(d.size))
		if addr == 0 {
			return m.fault("stack overflow in alloca")
		}
		regs[d.dst] = addr
		m.Clock.Advance(m.cost.ALUOp)

	case ir.OpFlush:
		addr := m.val(regs, d.a)
		m.Clock.Advance(m.cost.Flush)
		if pmem.IsPM(addr) {
			if err := m.yieldFlush(addr, in.FlushK.Ordered()); err != nil {
				return err
			}
			seq := m.emit(in, trace.Event{Kind: trace.KindFlush, FlushK: in.FlushK, Addr: addr})
			moved := 0
			if m.Track != nil {
				moved = m.Track.OnFlushT(seq, m.curTid(), in.FlushK.Ordered(), addr)
			}
			if moved > 0 && in.FlushK.Ordered() {
				// CLFLUSH commits immediately; CLWB/CLFLUSHOPT park the
				// line in the write-pending queue and pay at the fence.
				m.Clock.Advance(m.cost.FlushWriteback)
			}
			if err := m.pmEvent(EvFlush); err != nil {
				return err
			}
		}
		// Flushing volatile memory costs flush latency but has no
		// durability effect — this is the waste the hoisting heuristic
		// exists to avoid (§3.2).

	case ir.OpFence:
		if err := m.yieldPM(PendFence, 0); err != nil {
			return err
		}
		seq := m.emit(in, trace.Event{Kind: trace.KindFence, FenceK: in.FenceK})
		drained := 0
		if m.Track != nil {
			drained = m.Track.OnFenceT(seq, m.curTid())
		}
		m.Clock.Advance(m.cost.FenceBase + float64(drained)*m.cost.FenceDrainPerLine)
		if err := m.pmEvent(EvFence); err != nil {
			return err
		}

	case ir.OpSpawn:
		cs := &f.code.calls[d.a]
		args := make([]uint64, len(cs.args))
		for i, r := range cs.args {
			args[i] = m.val(regs, r)
		}
		m.ensureMT()
		if err := m.yieldPM(PendSpawn, 0); err != nil {
			return err
		}
		tid, err := m.spawnThread(cs.fn, args)
		if err != nil {
			return err
		}
		regs[d.dst] = uint64(tid)
		m.Clock.Advance(m.cost.Call)

	case ir.OpJoin:
		h := m.val(regs, d.a)
		if m.mt == nil {
			return m.fault("join before any spawn")
		}
		tid := int(h)
		if tid <= 0 || tid >= len(m.mt.threads) {
			return m.fault("join on invalid thread handle %d", int64(h))
		}
		t := m.mt.threads[tid]
		if t.joined {
			return m.fault("thread %d joined twice", tid)
		}
		if err := m.yieldJoin(tid); err != nil {
			return err
		}
		if t.joined {
			// Another thread won the race to join between our
			// announcement and our turn.
			return m.fault("thread %d joined twice", tid)
		}
		t.joined = true
		regs[d.dst] = t.result
		m.Clock.Advance(m.cost.Call)

	case ir.OpAtomicLoad:
		addr := m.val(regs, d.a)
		if !pmem.Mapped(addr) {
			return m.accessFault("atomic load", addr, 8)
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
			return err
		}
		regs[d.dst] = m.Mem.ReadUint(addr, 8)
		if pmem.IsPM(addr) {
			m.Clock.Advance(m.cost.LoadPM)
		} else {
			m.Clock.Advance(m.cost.LoadDRAM)
		}

	case ir.OpAtomicStore:
		val, addr := m.val(regs, d.a), m.val(regs, d.b)
		if !pmem.Mapped(addr) {
			return m.accessFault("atomic store", addr, 8)
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
			return err
		}
		if err := m.atomicWrite(in, addr, val); err != nil {
			return err
		}

	case ir.OpAtomicRMW:
		operand, addr := m.val(regs, d.a), m.val(regs, d.b)
		if !pmem.Mapped(addr) {
			return m.accessFault("atomic rmw", addr, 8)
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
			return err
		}
		old := m.Mem.ReadUint(addr, 8)
		var nv uint64
		switch in.RMWK {
		case ir.RMWAdd:
			nv = old + operand
		case ir.RMWXchg:
			nv = operand
		default:
			return m.fault("bad rmw kind %d", int(in.RMWK))
		}
		if err := m.atomicWrite(in, addr, nv); err != nil {
			return err
		}
		regs[d.dst] = old

	case ir.OpAtomicCAS:
		expect, nv, addr := m.val(regs, d.a), m.val(regs, d.b), m.val(regs, d.c)
		if !pmem.Mapped(addr) {
			return m.accessFault("atomic cas", addr, 8)
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
			return err
		}
		old := m.Mem.ReadUint(addr, 8)
		if old == expect {
			if err := m.atomicWrite(in, addr, nv); err != nil {
				return err
			}
		} else {
			m.Clock.Advance(m.cost.LoadDRAM)
		}
		regs[d.dst] = old

	default:
		return m.fault("cannot execute %s", ir.FormatInstr(in))
	}
	return nil
}

// atomicWrite commits the write half of an atomic store/RMW/CAS.
// Atomicity orders visibility between threads; it persists nothing, so
// an atomic store to PM is a tracked pending store exactly like a
// regular one and still needs its flush and fence.
func (m *Machine) atomicWrite(in *ir.Instr, addr, val uint64) error {
	m.Mem.WriteUint(addr, 8, val)
	if !pmem.IsPM(addr) {
		m.Clock.Advance(m.cost.StoreDRAM)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	data := buf[:]
	e := trace.Event{Kind: trace.KindStore, Addr: addr, Size: 8}
	if pmem.IsPM(val) {
		e.Val = val
	}
	seq := m.emit(in, e)
	if m.Track != nil {
		m.Track.OnStoreT(seq, m.curTid(), addr, data)
	}
	m.Clock.Advance(m.cost.StorePM)
	return m.pmEvent(EvStore)
}

// accessFault is the access-check failure: every load, store and atomic
// access tests its address with pmem.Mapped inline and faults here when
// it lies outside every mapped region of the simulated address space.
func (m *Machine) accessFault(op string, addr uint64, size int64) error {
	return m.fault("invalid %s of %d bytes at %#x", op, size, addr)
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// allocStack carves size bytes from the downward-growing stack, returning
// 0 on overflow. Stack storage is reclaimed per call frame; each frame's
// stackTop was fixed at call time from its parent's watermark.
func (m *Machine) allocStack(size uint64) uint64 {
	f := m.frames[len(m.frames)-1]
	top := f.stackTop - f.stackUsed
	addr := (top - size) &^ 15
	if addr < m.stackLimit || addr > top {
		return 0 // exhausted (or wrapped below zero)
	}
	f.stackUsed = f.stackTop - addr
	return addr
}
