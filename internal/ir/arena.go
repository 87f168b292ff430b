package ir

import "unsafe"

// Request-scoped IR memory. Every node of a parsed module — instructions,
// operand and target lists, constants, blocks, functions, globals,
// parameters, types — is bump-allocated from one per-module arena of typed
// chunks, and the -Os optimiser's inlined clones and placed phis come from
// the same arena (Module.NewInstr, NewBlock, NewInstrList, NewBlockList).
// When a serving path is done with a module — its verdicts are out —
// Module.Release clears every chunk the module used, so the arena pins
// nothing, and puts the arena on a bounded free list; the next parse carves
// its nodes out of that warm memory instead of the heap. This is region
// allocation (Hanson, SP&E 1990) with the module as the region.
//
// Names are not arena memory: parsed names alias the source text and the
// optimiser's names are ordinary Go strings, so a verdict's reason may
// quote them after the release.

// Chunk sizes per slab: large enough that a typical corpus module fills a
// handful of chunks, small enough not to overshoot tiny modules badly.
const (
	instrChunk    = 64
	argChunk      = 128
	constChunk    = 64
	blockChunk    = 16
	blockPtrChunk = 32
	instrPtrChunk = 128
	funcChunk     = 8
	funcPtrChunk  = 16
	globalChunk   = 8
	paramChunk    = 32
	typeChunk     = 16
)

// The free list of arenas is a small fixed-capacity channel, like the
// simulator's free list of runs: a sync.Pool is purged on every GC cycle,
// while the channel keeps at most maxFreeArenas arenas warm. An arena whose
// chunks outgrew maxArenaRetain (one unusually large module) is left to
// the GC instead, so the list's footprint stays bounded.
const (
	maxFreeArenas  = 16
	maxArenaRetain = 512 << 10 // 512 KiB
)

var freeArenas = make(chan *arena, maxFreeArenas)

// arena is one module's typed chunk memory.
type arena struct {
	instrs     slab[Instr]
	args       slab[Value]
	consts     slab[Const]
	blocks     slab[Block]
	blockPtrs  slab[*Block]
	instrPtrs  slab[*Instr]
	funcs      slab[Func]
	funcPtrs   slab[*Func]
	globals    slab[Global]
	globalPtrs slab[*Global]
	params     slab[Param]
	paramPtrs  slab[*Param]
	types      slab[Type]
	typePtrs   slab[*Type]
}

// slab is a typed bump allocator over a list of chunks. It hands out
// zeroed, exact-capacity runs of elements, so an append by a pass copies
// out instead of stomping a neighbour. The chunks are kept across reuses
// of the arena: reset clears what was handed out and starts over from the
// first chunk.
type slab[T any] struct {
	chunks [][]T // every chunk, each at full length
	cur    int   // chunks[cur] is being carved
	used   int   // elements of chunks[cur] handed out
}

// take returns n zeroed elements with len == cap == n. size is the chunk
// length for a new chunk; a request larger than size gets a chunk of its
// own length.
func (s *slab[T]) take(n, size int) []T {
	if s.cur == len(s.chunks) || s.used+n > len(s.chunks[s.cur]) {
		s.advance(n, size)
	}
	out := s.chunks[s.cur][s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// list is take for a list, which is nil when n is zero.
func (s *slab[T]) list(n, size int) []T {
	if n == 0 {
		return nil
	}
	return s.take(n, size)
}

// advance moves to the next chunk with room for n elements, making one
// when the next kept chunk is too small (or there is none).
func (s *slab[T]) advance(n, size int) {
	if s.cur < len(s.chunks) {
		s.cur++
	}
	s.used = 0
	if s.cur < len(s.chunks) && len(s.chunks[s.cur]) >= n {
		return
	}
	s.chunks = append(s.chunks, nil)
	copy(s.chunks[s.cur+1:], s.chunks[s.cur:])
	s.chunks[s.cur] = make([]T, max(size, n))
}

// handedOut returns the elements of chunk i handed out since the last
// reset, for i up to the chunk being carved.
func (s *slab[T]) handedOut(i int) []T {
	if i < s.cur {
		return s.chunks[i]
	}
	return s.chunks[i][:s.used]
}

// reset clears every element handed out, dropping the references they
// hold, rewinds to the first chunk and returns the bytes the chunks take.
func (s *slab[T]) reset() int {
	var zero T
	n := 0
	for i, c := range s.chunks {
		if i <= s.cur {
			clear(s.handedOut(i))
		}
		n += len(c)
	}
	s.cur, s.used = 0, 0
	return n * int(unsafe.Sizeof(zero))
}

// takeArena returns an arena from the free list, or a new one.
func takeArena() *arena {
	select {
	case a := <-freeArenas:
		return a
	default:
		return new(arena)
	}
}

// recycle clears the arena and puts it on the free list, unless it is
// oversized or the list is full.
func (a *arena) recycle() {
	n := a.instrs.reset() + a.args.reset() + a.consts.reset() +
		a.blocks.reset() + a.blockPtrs.reset() + a.instrPtrs.reset() +
		a.funcs.reset() + a.funcPtrs.reset() + a.globals.reset() +
		a.globalPtrs.reset() + a.params.reset() + a.paramPtrs.reset() +
		a.types.reset() + a.typePtrs.reset()
	if n > maxArenaRetain {
		return
	}
	select {
	case freeArenas <- a:
	default:
	}
}

// poison marks every instruction the arena handed out as released: an
// opcode no constructor produces and no operands or targets. Printing one
// panics, and code that reads its operands finds none.
func (a *arena) poison() {
	for i := 0; i <= a.instrs.cur && i < len(a.instrs.chunks); i++ {
		c := a.instrs.handedOut(i)
		for j := range c {
			c[j].Op, c[j].Args, c[j].Blocks = opReleased, nil, nil
		}
	}
}

// opReleased is the opcode of an instruction whose module was released
// in a race-detector build (see poisonReleased).
const opReleased Opcode = -1

// Release ends the module's life: its verdicts are out and nothing reads
// it again. The arena's chunks are cleared and go back to the free list
// for the next module, and the module itself is emptied, since its name
// may alias the source text too. Release is a no-op on a module without
// an arena (one built by irgen that no pass has grown) and on a module
// already released; a module that is never released is simply collected.
//
// In a race-detector build the arena is poisoned instead (see
// poisonReleased), so a use after Release fails loudly in the race suites.
func (m *Module) Release() {
	a := m.arena
	if a == nil {
		return
	}
	m.arena = nil
	if poisonReleased {
		a.poison()
		return
	}
	*m = Module{}
	a.recycle()
}

// mem returns the module's arena, taking one on first use by a module
// that was not parsed.
func (m *Module) mem() *arena {
	if m.arena == nil {
		m.arena = takeArena()
	}
	return m.arena
}

// NewInstr returns a zeroed instruction from the module's arena, with
// operand and target lists of length and capacity nargs and nblocks (nil
// when zero).
func (m *Module) NewInstr(nargs, nblocks int) *Instr {
	a := m.mem()
	in := a.newInstr()
	in.Args = a.newArgs(nargs)
	in.Blocks = a.newBlockPtrs(nblocks)
	return in
}

// NewBlock returns an empty block of f named name from the module's arena.
func (m *Module) NewBlock(name string, f *Func) *Block {
	b := m.mem().newBlock()
	b.Name, b.Parent = name, f
	return b
}

// NewInstrList returns an empty instruction list of capacity n from the
// module's arena.
func (m *Module) NewInstrList(n int) []*Instr { return m.mem().newInstrList(n) }

// NewBlockList returns an empty block list of capacity n from the
// module's arena.
func (m *Module) NewBlockList(n int) []*Block { return m.mem().newBlockPtrs(n)[:0] }

func (a *arena) newInstr() *Instr   { return &a.instrs.take(1, instrChunk)[0] }
func (a *arena) newConst() *Const   { return &a.consts.take(1, constChunk)[0] }
func (a *arena) newBlock() *Block   { return &a.blocks.take(1, blockChunk)[0] }
func (a *arena) newFunc() *Func     { return &a.funcs.take(1, funcChunk)[0] }
func (a *arena) newGlobal() *Global { return &a.globals.take(1, globalChunk)[0] }
func (a *arena) newParam() *Param   { return &a.params.take(1, paramChunk)[0] }
func (a *arena) newType() *Type     { return &a.types.take(1, typeChunk)[0] }

// The list constructors return lists of length and capacity n (operands,
// block targets, a module's functions and globals), or empty lists of
// capacity n that the caller appends to; nil when n is zero.

func (a *arena) newArgs(n int) []Value         { return a.args.list(n, argChunk) }
func (a *arena) newBlockPtrs(n int) []*Block   { return a.blockPtrs.list(n, blockPtrChunk) }
func (a *arena) newFuncList(n int) []*Func     { return a.funcPtrs.list(n, funcPtrChunk) }
func (a *arena) newGlobalList(n int) []*Global { return a.globalPtrs.list(n, globalChunk) }
func (a *arena) newInstrList(n int) []*Instr   { return a.instrPtrs.list(n, instrPtrChunk)[:0] }
func (a *arena) newParamList(n int) []*Param   { return a.paramPtrs.list(n, paramChunk)[:0] }
func (a *arena) newTypeList(n int) []*Type     { return a.typePtrs.list(n, typeChunk)[:0] }
