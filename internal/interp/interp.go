// Package interp is a direct AST interpreter for cMinor with the same
// memory layout and value semantics as the dataflow simulator. It serves
// two purposes: it is the correctness oracle for differential testing of
// the compiler + simulator, and it models the sequential (one operation
// at a time, in program order) execution baseline that the ASPLOS'04
// paper compares spatial computation against.
package interp

import (
	"fmt"

	"spatial/internal/alias"
	"spatial/internal/cminor"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

// Result is the outcome of an interpreted execution.
type Result struct {
	Value int64
	// Instrs counts executed simple operations.
	Instrs int64
	Loads  int64
	Stores int64
	// SeqCycles is the in-order cycle estimate: operation latencies plus
	// serialized memory accesses.
	SeqCycles int64
	Mem       memsys.Stats
}

// Machine interprets programs.
type Machine struct {
	prog   *cminor.Program
	an     *alias.Analysis
	layout *pegasus.Layout
	mem    pegasus.Memory
	msys   *memsys.System

	res   Result
	clock int64
	sp    uint32

	steps    int64
	maxSteps int64
}

// New creates an interpreter with the given memory model.
func New(p *pegasus.Program, mcfg memsys.Config) *Machine {
	m := &Machine{
		prog:     p.Source,
		an:       p.Alias,
		layout:   p.Layout,
		mem:      p.Layout.NewMemory(),
		msys:     memsys.New(mcfg),
		sp:       p.Layout.StackBase,
		maxSteps: 1 << 32,
	}
	return m
}

// Run executes entry(args...).
func (m *Machine) Run(entry string, args []int64) (*Result, error) {
	fn := m.prog.Func(entry)
	if fn == nil || fn.Body == nil {
		return nil, fmt.Errorf("interp: no function %q", entry)
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", entry, len(fn.Params), len(args))
	}
	v, err := m.callFn(fn, args)
	if err != nil {
		return nil, err
	}
	m.res.Value = v
	m.res.SeqCycles = m.clock
	m.res.Mem = m.msys.Stats()
	r := m.res
	return &r, nil
}

// ReadWord reads simulated memory post-run.
func (m *Machine) ReadWord(addr uint32) int64 { return m.mem.Load(addr, 4, true) }

// ReadBytes copies out n bytes of simulated memory from addr; bytes past
// the memory size read as 0, like ReadWord.
func (m *Machine) ReadBytes(addr uint32, n int) []byte { return m.mem.ReadBytes(addr, n) }

// frame is one activation record.
type frame struct {
	fn   *cminor.FuncDecl
	vars map[*cminor.VarDecl]int64
	base uint32
}

// control-flow signals
type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

func (m *Machine) callFn(fn *cminor.FuncDecl, args []int64) (int64, error) {
	fr := &frame{fn: fn, vars: map[*cminor.VarDecl]int64{}, base: m.sp}
	size := m.layout.FrameSize[fn]
	m.sp += (size + 7) &^ 7
	if m.sp > m.layout.MemSize {
		return 0, fmt.Errorf("interp: stack overflow in %s", fn.Name)
	}
	// Locals start zeroed, matching the dataflow simulator's frame
	// allocator (which zeroes recycled frames): without this, a program
	// reading an uninitialized local would see stale bytes from an
	// earlier call at the same stack depth, and the two engines would
	// disagree nondeterministically.
	m.mem.Clear(fr.base, m.sp)
	defer func() { m.sp = fr.base }()
	for i, p := range fn.Params {
		if obj, ok := m.an.ObjectOf(p); ok {
			m.storeCost()
			m.mem.Store(fr.base+m.layout.FrameOffset[obj], int(p.Type.Decay().Size()), args[i])
		} else {
			fr.vars[p] = args[i]
		}
	}
	sig, val, err := m.stmt(fr, fn.Body)
	if err != nil {
		return 0, err
	}
	if sig == sigReturn {
		return val, nil
	}
	return 0, nil
}

func (m *Machine) tick(n int64) {
	m.clock += n
	m.res.Instrs++
	m.steps++
}

func (m *Machine) loadCost(addr uint32, bytes int) {
	m.res.Loads++
	done := m.msys.Submit(m.clock, true, addr, bytes)
	m.clock = done
}

func (m *Machine) storeCost() { m.res.Stores++ }

func (m *Machine) storeAt(addr uint32, bytes int) {
	done := m.msys.Submit(m.clock, false, addr, bytes)
	// Stores retire in order in the sequential model but do not block
	// subsequent computation beyond issue: charge one cycle.
	_ = done
	m.clock++
}

func (m *Machine) stmt(fr *frame, s cminor.Stmt) (signal, int64, error) {
	if m.steps > m.maxSteps {
		return sigNone, 0, fmt.Errorf("interp: step limit exceeded")
	}
	switch s := s.(type) {
	case *cminor.BlockStmt:
		for _, sub := range s.Stmts {
			sig, v, err := m.stmt(fr, sub)
			if err != nil || sig != sigNone {
				return sig, v, err
			}
		}
		return sigNone, 0, nil
	case *cminor.EmptyStmt, *cminor.PragmaStmt:
		return sigNone, 0, nil
	case *cminor.DeclStmt:
		v := s.Var
		if v.Init != nil {
			val, err := m.expr(fr, v.Init)
			if err != nil {
				return sigNone, 0, err
			}
			if err := m.assignVar(fr, v, val); err != nil {
				return sigNone, 0, err
			}
		}
		for i, e := range v.InitList {
			val, err := m.expr(fr, e)
			if err != nil {
				return sigNone, 0, err
			}
			obj, ok := m.an.ObjectOf(v)
			if !ok {
				return sigNone, 0, fmt.Errorf("interp: init list on register var %s", v.Name)
			}
			esz := v.Type.Elem.Size()
			m.storeCost()
			m.storeAt(fr.base+m.layout.FrameOffset[obj]+uint32(int64(i)*esz), int(esz))
			m.mem.Store(fr.base+m.layout.FrameOffset[obj]+uint32(int64(i)*esz), int(esz), val)
		}
		return sigNone, 0, nil
	case *cminor.ExprStmt:
		_, err := m.expr(fr, s.X)
		return sigNone, 0, err
	case *cminor.IfStmt:
		c, err := m.expr(fr, s.Cond)
		if err != nil {
			return sigNone, 0, err
		}
		m.tick(1) // branch
		if c != 0 {
			return m.stmt(fr, s.Then)
		}
		if s.Else != nil {
			return m.stmt(fr, s.Else)
		}
		return sigNone, 0, nil
	case *cminor.WhileStmt:
		for {
			m.steps++
			c, err := m.expr(fr, s.Cond)
			if err != nil {
				return sigNone, 0, err
			}
			m.tick(1)
			if c == 0 {
				return sigNone, 0, nil
			}
			sig, v, err := m.stmt(fr, s.Body)
			if err != nil {
				return sigNone, 0, err
			}
			if sig == sigBreak {
				return sigNone, 0, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
			if m.steps > m.maxSteps {
				return sigNone, 0, fmt.Errorf("interp: step limit exceeded")
			}
		}
	case *cminor.DoWhileStmt:
		for {
			m.steps++
			sig, v, err := m.stmt(fr, s.Body)
			if err != nil {
				return sigNone, 0, err
			}
			if sig == sigBreak {
				return sigNone, 0, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
			c, err := m.expr(fr, s.Cond)
			if err != nil {
				return sigNone, 0, err
			}
			m.tick(1)
			if c == 0 {
				return sigNone, 0, nil
			}
		}
	case *cminor.ForStmt:
		if s.Init != nil {
			if sig, v, err := m.stmt(fr, s.Init); err != nil || sig != sigNone {
				return sig, v, err
			}
		}
		for {
			m.steps++
			if s.Cond != nil {
				c, err := m.expr(fr, s.Cond)
				if err != nil {
					return sigNone, 0, err
				}
				m.tick(1)
				if c == 0 {
					return sigNone, 0, nil
				}
			}
			sig, v, err := m.stmt(fr, s.Body)
			if err != nil {
				return sigNone, 0, err
			}
			if sig == sigBreak {
				return sigNone, 0, nil
			}
			if sig == sigReturn {
				return sig, v, nil
			}
			if s.Post != nil {
				if _, err := m.expr(fr, s.Post); err != nil {
					return sigNone, 0, err
				}
			}
			if m.steps > m.maxSteps {
				return sigNone, 0, fmt.Errorf("interp: step limit exceeded")
			}
		}
	case *cminor.ReturnStmt:
		if s.X == nil {
			return sigReturn, 0, nil
		}
		v, err := m.expr(fr, s.X)
		if err != nil {
			return sigNone, 0, err
		}
		return sigReturn, truncType(v, fr.fn.Ret), nil
	case *cminor.BreakStmt:
		return sigBreak, 0, nil
	case *cminor.ContinueStmt:
		return sigContinue, 0, nil
	}
	return sigNone, 0, fmt.Errorf("interp: unknown statement %T", s)
}

func truncType(v int64, t *cminor.Type) int64 {
	t = t.Decay()
	if !t.IsInteger() {
		return int64(int32(v))
	}
	switch {
	case t.Bits == 8 && t.Signed:
		return int64(int8(v))
	case t.Bits == 8:
		return int64(uint8(v))
	case t.Bits == 16 && t.Signed:
		return int64(int16(v))
	case t.Bits == 16:
		return int64(uint16(v))
	default:
		return int64(int32(v))
	}
}

func (m *Machine) assignVar(fr *frame, v *cminor.VarDecl, val int64) error {
	if obj, ok := m.an.ObjectOf(v); ok {
		sz := int(v.Type.Decay().Size())
		addr := m.objAddr(fr, obj)
		m.storeCost()
		m.storeAt(addr, sz)
		m.mem.Store(addr, sz, val)
		return nil
	}
	fr.vars[v] = truncType(val, v.Type)
	return nil
}

func (m *Machine) objAddr(fr *frame, obj alias.ObjID) uint32 {
	if a, ok := m.layout.AddressOfObject(obj); ok {
		return a
	}
	return fr.base + m.layout.FrameOffset[obj]
}

// lvalueAddr resolves an lvalue to (address, size).
func (m *Machine) lvalueAddr(fr *frame, e cminor.Expr) (uint32, int, error) {
	switch e := e.(type) {
	case *cminor.VarRef:
		obj, ok := m.an.ObjectOf(e.Decl)
		if !ok {
			return 0, 0, fmt.Errorf("interp: %s is not in memory", e.Name)
		}
		return m.objAddr(fr, obj), int(e.Decl.Type.Decay().Size()), nil
	case *cminor.IndexExpr:
		base, err := m.expr(fr, e.Array)
		if err != nil {
			return 0, 0, err
		}
		idx, err := m.expr(fr, e.Index)
		if err != nil {
			return 0, 0, err
		}
		m.tick(1) // address arithmetic
		return uint32(base + idx*e.Typ.Size()), int(e.Typ.Size()), nil
	case *cminor.DerefExpr:
		p, err := m.expr(fr, e.X)
		if err != nil {
			return 0, 0, err
		}
		return uint32(p), int(e.Typ.Size()), nil
	}
	return 0, 0, fmt.Errorf("interp: not an lvalue: %T", e)
}

func (m *Machine) expr(fr *frame, e cminor.Expr) (int64, error) {
	switch e := e.(type) {
	case *cminor.NumberLit:
		return e.Val, nil
	case *cminor.StringLit:
		addr, _ := m.layout.AddressOfObject(m.an.StringObject(e.Index))
		return int64(addr), nil
	case *cminor.VarRef:
		d := e.Decl
		if d.Type.Kind == cminor.TypeArray {
			obj, ok := m.an.ObjectOf(d)
			if !ok {
				return 0, fmt.Errorf("interp: array %s has no object", d.Name)
			}
			return int64(m.objAddr(fr, obj)), nil
		}
		if obj, ok := m.an.ObjectOf(d); ok {
			sz := int(d.Type.Decay().Size())
			addr := m.objAddr(fr, obj)
			m.loadCost(addr, sz)
			return m.mem.Load(addr, sz, d.Type.Decay().IsInteger() && d.Type.Decay().Signed), nil
		}
		return fr.vars[d], nil
	case *cminor.BinExpr:
		return m.binExpr(fr, e)
	case *cminor.UnExpr:
		x, err := m.expr(fr, e.X)
		if err != nil {
			return 0, err
		}
		m.tick(1)
		switch e.Op {
		case cminor.OpNeg:
			return int64(int32(-x)), nil
		case cminor.OpBitNot:
			return int64(int32(^x)), nil
		case cminor.OpNot:
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *cminor.CondExpr:
		c, err := m.expr(fr, e.Cond)
		if err != nil {
			return 0, err
		}
		m.tick(1)
		if c != 0 {
			return m.expr(fr, e.Then)
		}
		return m.expr(fr, e.Else)
	case *cminor.IndexExpr:
		if e.Typ.Kind == cminor.TypeArray {
			base, err := m.expr(fr, e.Array)
			if err != nil {
				return 0, err
			}
			idx, err := m.expr(fr, e.Index)
			if err != nil {
				return 0, err
			}
			m.tick(1)
			return base + idx*e.Typ.Size(), nil
		}
		addr, sz, err := m.lvalueAddr(fr, e)
		if err != nil {
			return 0, err
		}
		m.loadCost(addr, sz)
		return m.mem.Load(addr, sz, e.Typ.IsInteger() && e.Typ.Signed), nil
	case *cminor.DerefExpr:
		if e.Typ.Kind == cminor.TypeArray {
			// A dereferenced pointer to a row is the row's address.
			return m.expr(fr, e.X)
		}
		addr, sz, err := m.lvalueAddr(fr, e)
		if err != nil {
			return 0, err
		}
		m.loadCost(addr, sz)
		return m.mem.Load(addr, sz, e.Typ.IsInteger() && e.Typ.Signed), nil
	case *cminor.AddrExpr:
		switch lv := e.X.(type) {
		case *cminor.VarRef:
			obj, ok := m.an.ObjectOf(lv.Decl)
			if !ok {
				return 0, fmt.Errorf("interp: &%s: not in memory", lv.Name)
			}
			return int64(m.objAddr(fr, obj)), nil
		case *cminor.IndexExpr:
			base, err := m.expr(fr, lv.Array)
			if err != nil {
				return 0, err
			}
			idx, err := m.expr(fr, lv.Index)
			if err != nil {
				return 0, err
			}
			m.tick(1)
			return base + idx*lv.Typ.Size(), nil
		case *cminor.DerefExpr:
			return m.expr(fr, lv.X)
		}
		return 0, fmt.Errorf("interp: unsupported address-of")
	case *cminor.CastExpr:
		x, err := m.expr(fr, e.X)
		if err != nil {
			return 0, err
		}
		return truncType(x, e.To), nil
	case *cminor.CallExpr:
		args := make([]int64, len(e.Args))
		for i, a := range e.Args {
			v, err := m.expr(fr, a)
			if err != nil {
				return 0, err
			}
			args[i] = truncType(v, e.Func.Params[i].Type)
		}
		m.tick(1) // call overhead
		return m.callFn(e.Func, args)
	case *cminor.AssignExpr:
		val, err := m.expr(fr, e.RHS)
		if err != nil {
			return 0, err
		}
		if vr, ok := e.LHS.(*cminor.VarRef); ok {
			if _, inMem := m.an.ObjectOf(vr.Decl); !inMem {
				if err := m.assignVar(fr, vr.Decl, val); err != nil {
					return 0, err
				}
				return val, nil
			}
		}
		addr, sz, err := m.lvalueAddr(fr, e.LHS)
		if err != nil {
			return 0, err
		}
		m.storeCost()
		m.storeAt(addr, sz)
		m.mem.Store(addr, sz, val)
		return val, nil
	}
	return 0, fmt.Errorf("interp: cannot evaluate %T", e)
}

func (m *Machine) binExpr(fr *frame, e *cminor.BinExpr) (int64, error) {
	lt, rt := e.L.Type().Decay(), e.R.Type().Decay()
	if e.Op == cminor.OpLogAnd || e.Op == cminor.OpLogOr {
		l, err := m.expr(fr, e.L)
		if err != nil {
			return 0, err
		}
		m.tick(1)
		if e.Op == cminor.OpLogAnd && l == 0 {
			return 0, nil
		}
		if e.Op == cminor.OpLogOr && l != 0 {
			return 1, nil
		}
		r, err := m.expr(fr, e.R)
		if err != nil {
			return 0, err
		}
		if r != 0 {
			return 1, nil
		}
		return 0, nil
	}
	l, err := m.expr(fr, e.L)
	if err != nil {
		return 0, err
	}
	r, err := m.expr(fr, e.R)
	if err != nil {
		return 0, err
	}
	// latency
	switch e.Op {
	case cminor.OpMul:
		m.tick(3)
	case cminor.OpDiv, cminor.OpRem:
		m.tick(20)
	default:
		m.tick(1)
	}
	v, err := cminor.EvalTyped(e.Op, lt, rt, e.Typ, l, r)
	if err != nil {
		return 0, nil // hardware: division by zero yields 0
	}
	return v, nil
}
