package pegasus

import (
	"fmt"

	"spatial/internal/alias"
	"spatial/internal/cminor"
)

// Layout assigns simulated memory addresses: globals and strings get
// static addresses; local memory objects get frame offsets resolved
// against the activation's frame base at run time.
type Layout struct {
	// GlobalBase is the address of the first global object.
	GlobalBase uint32
	// StackBase is where the first activation frame starts (frames grow
	// upward in the simulator).
	StackBase uint32
	// MemSize is the total simulated memory size in bytes.
	MemSize uint32

	// Addr maps static objects (globals, strings) to their base address.
	Addr map[alias.ObjID]uint32
	// FrameOffset maps local objects to their offset within the frame.
	FrameOffset map[alias.ObjID]uint32
	// FrameSize maps each function to its frame size in bytes.
	FrameSize map[*cminor.FuncDecl]uint32
	// ObjSize records every object's size in bytes.
	ObjSize map[alias.ObjID]uint32

	// Init lists (address, size, value) triples to poke into memory
	// before execution (global initializers and string bytes).
	Init []InitCell
}

// InitCell is one initialized memory cell.
type InitCell struct {
	Addr  uint32
	Size  int
	Value int64
}

const defaultMemSize = 4 << 20

func align4(x int64) int64 { return (x + 3) &^ 3 }

// BuildLayout computes the memory layout for a program. Sizes are summed
// in int64, so an object, frame or data segment larger than the
// simulated memory is an error instead of an address that wraps.
func BuildLayout(src *cminor.Program, an *alias.Analysis) (*Layout, error) {
	l := &Layout{
		GlobalBase:  0x1000,
		MemSize:     defaultMemSize,
		Addr:        map[alias.ObjID]uint32{},
		FrameOffset: map[alias.ObjID]uint32{},
		FrameSize:   map[*cminor.FuncDecl]uint32{},
		ObjSize:     map[alias.ObjID]uint32{},
	}
	mem := int64(l.MemSize)
	// First pass: assign every static address (so initializers may refer
	// to objects declared later). Every object is at most mem bytes, so
	// the running sums stay far from overflow.
	next := int64(l.GlobalBase)
	frameNext := map[*cminor.FuncDecl]int64{}
	for _, o := range an.Objects {
		switch o.Kind {
		case alias.ObjGlobal:
			size := o.Decl.Type.Size()
			if size == 0 {
				// Unsized extern array: give it a default extent so
				// simulations have backing storage.
				size = 4096
			}
			if size > mem {
				return nil, fmt.Errorf("layout: global %s (%d bytes) exceeds memory (%d bytes)", o.Decl.Name, size, mem)
			}
			l.Addr[o.ID] = uint32(next)
			l.ObjSize[o.ID] = uint32(size)
			next = align4(next + size)
		case alias.ObjString:
			s := src.Strings[o.StringIdx]
			size := int64(len(s.Value) + 1)
			l.Addr[o.ID] = uint32(next)
			l.ObjSize[o.ID] = uint32(size)
			next = align4(next + size)
		case alias.ObjLocal:
			size := o.Decl.Type.Size()
			if size == 0 {
				size = 4
			}
			if size > mem {
				return nil, fmt.Errorf("layout: local %s (%d bytes) exceeds memory (%d bytes)", o.Decl.Name, size, mem)
			}
			off := frameNext[o.Fn]
			l.FrameOffset[o.ID] = uint32(off)
			l.ObjSize[o.ID] = uint32(size)
			frameNext[o.Fn] = align4(off + size)
		case alias.ObjUnknown:
			// No storage.
		}
	}
	// Second pass: emit initial memory contents.
	for _, o := range an.Objects {
		switch o.Kind {
		case alias.ObjGlobal:
			if err := l.initGlobal(o, an); err != nil {
				return nil, err
			}
		case alias.ObjString:
			s := src.Strings[o.StringIdx]
			base := l.Addr[o.ID]
			for i := 0; i < len(s.Value); i++ {
				l.Init = append(l.Init, InitCell{Addr: base + uint32(i), Size: 1, Value: int64(s.Value[i])})
			}
			l.Init = append(l.Init, InitCell{Addr: base + uint32(len(s.Value)), Size: 1, Value: 0})
		}
	}
	for fn, sz := range frameNext {
		if sz > mem {
			return nil, fmt.Errorf("layout: frame of %s (%d bytes) exceeds memory (%d bytes)", fn.Name, sz, mem)
		}
		l.FrameSize[fn] = uint32(sz)
	}
	stack := align4(next + 64)
	if stack >= mem {
		return nil, fmt.Errorf("layout: data segment (%d bytes) exceeds memory", next)
	}
	l.StackBase = uint32(stack)
	return l, nil
}

func (l *Layout) initGlobal(o *alias.Object, an *alias.Analysis) error {
	g := o.Decl
	base := l.Addr[o.ID]
	if g.Init != nil {
		v, err := l.initValue(g.Init, an)
		if err != nil {
			return fmt.Errorf("global %s: %v", g.Name, err)
		}
		l.Init = append(l.Init, InitCell{Addr: base, Size: int(g.Type.Decay().Size()), Value: v})
	}
	if len(g.InitList) > 0 {
		elem := g.Type.Elem
		esz := uint32(elem.Size())
		for i, e := range g.InitList {
			v, err := l.initValue(e, an)
			if err != nil {
				return fmt.Errorf("global %s[%d]: %v", g.Name, i, err)
			}
			l.Init = append(l.Init, InitCell{Addr: base + uint32(i)*esz, Size: int(esz), Value: v})
		}
	}
	return nil
}

// initValue evaluates a constant global initializer. String literals,
// &global, and array names resolve to their assigned static addresses
// (all addresses are assigned before initializers are evaluated).
func (l *Layout) initValue(e cminor.Expr, an *alias.Analysis) (int64, error) {
	if v, err := cminor.ConstEval(e); err == nil {
		return v, nil
	}
	switch e := e.(type) {
	case *cminor.StringLit:
		if addr, ok := l.Addr[an.StringObject(e.Index)]; ok {
			return int64(addr), nil
		}
		return 0, fmt.Errorf("string literal address not yet assigned (declare the global after use or avoid string initializers)")
	case *cminor.AddrExpr:
		if lv, ok := e.X.(*cminor.VarRef); ok {
			if id, ok := an.ObjectOf(lv.Decl); ok {
				if addr, ok := l.Addr[id]; ok {
					return int64(addr), nil
				}
			}
		}
	case *cminor.VarRef:
		// An array name used as an initializer value.
		if id, ok := an.ObjectOf(e.Decl); ok {
			if addr, ok := l.Addr[id]; ok {
				return int64(addr), nil
			}
		}
	}
	return 0, fmt.Errorf("unsupported initializer %T", e)
}

// AddressOfObject returns the static address of a global/string object.
func (l *Layout) AddressOfObject(o alias.ObjID) (uint32, bool) {
	a, ok := l.Addr[o]
	return a, ok
}

// Memory is one run's simulated memory image: MemSize bytes of address
// space, zero-initialized, of which only a prefix is stored. The prefix
// starts at StackBase bytes (the data segment) and doubles on demand, up
// to MemSize, when a store lands above it; bytes above it read as 0. A
// run therefore pays for the memory it touches, not for MemSize.
//
// Accesses that end past MemSize behave like an open bus: loads read 0
// and stores are dropped.
type Memory struct {
	b    []byte
	size uint32
}

// NewMemory returns a fresh image of l with the initial contents
// (l.Init) stored.
func (l *Layout) NewMemory() Memory {
	m := Memory{b: make([]byte, l.StackBase), size: l.MemSize}
	for _, c := range l.Init {
		m.Store(c.Addr, c.Size, c.Value)
	}
	return m
}

// Load reads a little-endian value of 1, 2 or 4 bytes, sign- or
// zero-extending the narrow sizes.
func (m *Memory) Load(addr uint32, bytes int, signed bool) int64 {
	end := int(addr) + bytes
	if end > int(m.size) {
		return 0
	}
	n := bytes
	if end > len(m.b) {
		n = len(m.b) - int(addr) // bytes past the stored prefix read 0
	}
	var raw uint32
	for i := 0; i < n; i++ {
		raw |= uint32(m.b[int(addr)+i]) << (8 * i)
	}
	switch {
	case bytes == 1 && signed:
		return int64(int8(raw))
	case bytes == 1:
		return int64(uint8(raw))
	case bytes == 2 && signed:
		return int64(int16(raw))
	case bytes == 2:
		return int64(uint16(raw))
	default:
		return int64(int32(raw))
	}
}

// Store writes the low bytes of v little-endian.
func (m *Memory) Store(addr uint32, bytes int, v int64) {
	end := int(addr) + bytes
	if end > int(m.size) {
		return
	}
	if end > len(m.b) {
		m.grow(end)
	}
	for i := 0; i < bytes; i++ {
		m.b[int(addr)+i] = byte(v >> (8 * i))
	}
}

// grow extends the stored prefix to at least n bytes, doubling (from at
// least 64, so an empty prefix grows too), capped at the address-space
// size.
func (m *Memory) grow(n int) {
	c := max(len(m.b), 64)
	for c < n {
		c *= 2
	}
	m.b = append(m.b, make([]byte, min(c, int(m.size))-len(m.b))...)
}

// Clear zeroes [lo, hi). Only stored bytes need clearing: the rest
// already read as 0.
func (m *Memory) Clear(lo, hi uint32) {
	if int(hi) > len(m.b) {
		hi = uint32(len(m.b))
	}
	if lo < hi {
		clear(m.b[lo:hi])
	}
}

// ReadBytes copies out n bytes starting at addr; bytes past the stored
// prefix, or past MemSize, read as 0.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	if int(addr) < len(m.b) {
		copy(out, m.b[addr:])
	}
	return out
}
