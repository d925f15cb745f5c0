package interp

import (
	"fmt"
	"math"

	"hippocrates/internal/ir"
)

// A function body decoded once for execution. The dispatch loop never
// touches an ir.Value: every operand is pre-resolved to a register-file
// index (parameters, instruction results and — after them — the
// function's constants) or to a global's index into the machine's
// address table, and every instruction carries its width, truncation
// mask and successor block indices inline.
//
// The decode depends only on the function body and its module's global
// order, so it is memoized on the ir.Func (ExecMemo) and shared by every
// machine that runs the module, recovery boots included. Renumber and
// every structural mutation drop the memo.
type funcCode struct {
	fn     *ir.Func
	blocks []blockCode
	instrs []dinstr
	// consts are the immediates, loaded into the register file after the
	// numSlots value slots on frame entry.
	consts   []uint64
	numSlots int
	calls    []callSite
}

// blockCode is one block's instruction range [start, end) in instrs.
type blockCode struct {
	blk        *ir.Block
	start, end int32
}

// callSite is the static part of a call or spawn: the callee and its
// operand list.
type callSite struct {
	fn   *ir.Func
	args []operand
}

// operand is a pre-resolved instruction operand: r >= 0 reads register
// r of the frame, r < 0 reads global ^r of the machine.
type operand int32

// badOperand is an out-of-range register index: a void result used as
// an operand faults when read, as it did before decoding.
const badOperand operand = math.MaxInt32

// dinstr is one decoded instruction.
type dinstr struct {
	in *ir.Instr
	// mask truncates a loaded or computed result to its type (i1, i8,
	// or all 64 bits).
	mask uint64
	// scale and disp are ptradd's constant factors.
	scale, disp int64
	// a, b, c are the operands in ir order; for br, b and c hold the
	// successor block indices, for jmp a does; for call and spawn a
	// indexes funcCode.calls.
	a, b, c operand
	// dst is the result slot (-1 for no result).
	dst int32
	// size is the load/store width in bytes, the alloca size, or for
	// ret the number of returned values (0 or 1).
	size int64
	op   ir.Op
}

// code returns fn's decoded body, decoding and publishing it on first
// use.
func (m *Machine) code(fn *ir.Func) *funcCode {
	if c, ok := fn.ExecMemo().(*funcCode); ok {
		return c
	}
	c := decode(fn, m.Mod)
	fn.SetExecMemo(c)
	return c
}

// decode builds fn's execution form. fn must be renumbered.
func decode(fn *ir.Func, mod *ir.Module) *funcCode {
	c := &funcCode{fn: fn, numSlots: fn.NumSlots()}
	blockIdx := make(map[*ir.Block]int32, len(fn.Blocks))
	for i, b := range fn.Blocks {
		blockIdx[b] = int32(i)
	}
	constIdx := map[uint64]operand{}
	imm := func(v uint64) operand {
		if r, ok := constIdx[v]; ok {
			return r
		}
		r := operand(c.numSlots + len(c.consts))
		c.consts = append(c.consts, v)
		constIdx[v] = r
		return r
	}
	var globalIdx map[string]int
	opnd := func(v ir.Value) operand {
		switch x := v.(type) {
		case *ir.Instr:
			if x.Slot < 0 {
				return badOperand
			}
			return operand(x.Slot)
		case *ir.Param:
			return operand(x.Index)
		case *ir.Const:
			return imm(uint64(x.Val))
		case *ir.Global:
			if globalIdx == nil {
				globalIdx = make(map[string]int, len(mod.Globals))
				for i, g := range mod.Globals {
					globalIdx[g.Name] = i
				}
			}
			if i, ok := globalIdx[x.Name]; ok {
				return ^operand(i)
			}
			return imm(0) // not a global of the running module
		default:
			panic(fmt.Sprintf("interp: unknown operand kind %T in @%s", v, fn.Name))
		}
	}
	succ := func(b *ir.Block) operand {
		if i, ok := blockIdx[b]; ok {
			return operand(i)
		}
		panic(fmt.Sprintf("interp: branch to foreign block ^%s in @%s", b.Name, fn.Name))
	}

	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	c.instrs = make([]dinstr, 0, n)
	c.blocks = make([]blockCode, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		c.blocks[bi] = blockCode{blk: b, start: int32(len(c.instrs))}
		for _, in := range b.Instrs {
			d := dinstr{in: in, op: in.Op, dst: int32(in.Slot), mask: truncMask(in.Ty)}
			if !in.HasResult() {
				d.dst = -1
			}
			args := in.Args
			switch in.Op {
			case ir.OpCall, ir.OpSpawn:
				cs := callSite{fn: in.Callee, args: make([]operand, len(args))}
				for i, a := range args {
					cs.args[i] = opnd(a)
				}
				d.a = operand(len(c.calls))
				c.calls = append(c.calls, cs)
				args = nil
			case ir.OpJmp:
				d.a = succ(in.Succs[0])
			case ir.OpBr:
				d.a = opnd(args[0])
				d.b, d.c = succ(in.Succs[0]), succ(in.Succs[1])
				args = nil
			case ir.OpRet:
				d.size = int64(len(args))
			case ir.OpLoad:
				d.size = in.Ty.Size()
			case ir.OpStore, ir.OpNTStore:
				d.size = in.StoreTy.Size()
			case ir.OpAlloca:
				d.size = int64(alignUp(uint64(in.AllocTy.Size()), 16))
			case ir.OpPtrAdd:
				d.scale, d.disp = in.Scale, in.Disp
			}
			for i, a := range args {
				switch i {
				case 0:
					d.a = opnd(a)
				case 1:
					d.b = opnd(a)
				case 2:
					d.c = opnd(a)
				}
			}
			c.instrs = append(c.instrs, d)
		}
		c.blocks[bi].end = int32(len(c.instrs))
	}
	return c
}

// truncMask is the result mask of a value of type ty. Only the canonical
// i1 and i8 types narrow; every other type keeps all 64 bits.
func truncMask(ty ir.Type) uint64 {
	switch ty {
	case ir.I1:
		return 1
	case ir.I8:
		return 0xff
	default:
		return math.MaxUint64
	}
}
