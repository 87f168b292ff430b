package passes

import (
	"slices"
	"sync"

	"mpidetect/internal/ir"
)

// scratch is the working memory of one optimisation run: every CFG
// analysis the passes need, held in slices indexed by block position
// (ir.Block.Index) and alloca ordinal instead of pointer-keyed maps, so a
// run allocates its analyses once and reuses them for every function and
// every pass. Scratches are pooled across runs.
type scratch struct {
	cfg
	dom DomTree
	m2r mem2reg
	// uses counts the operand uses of each instruction for DCE.
	uses map[*ir.Instr]int32
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{uses: map[*ir.Instr]int32{}, m2r: newMem2Reg()}
}}

// getScratch takes a scratch from the pool. Nothing is reset on release:
// a pass that panics (serve recovers panics per job) hands its scratch
// back mid-pass, so every analysis resets the buffers it uses when it
// starts instead.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// cfg is the dense form of one function's control-flow graph. index
// numbers the blocks and must run before any other method; the CFG is
// valid until the function's blocks or terminators change.
type cfg struct {
	blocks []*ir.Block // the function's blocks; blocks[b.Index] == b

	// Predecessors in CSR form: preds[predStart[i]:predStart[i+1]] are
	// block i's predecessors in ir.Predecessors order (block order, one
	// entry per edge).
	predStart []int32
	preds     []*ir.Block

	reach []bool      // reachable from the entry
	rpo   []*ir.Block // reachable blocks in reverse postorder
	stack []dfsFrame
	tmp   []int32
}

type dfsFrame struct {
	b    *ir.Block
	next int // next successor to visit
}

// index snapshots f's blocks and sets each block's Index.
func (c *cfg) index(f *ir.Func) {
	c.blocks = append(c.blocks[:0], f.Blocks...)
	for i, b := range c.blocks {
		b.Index = i
	}
}

// predsOf returns block i's predecessors; computePreds must have run.
func (c *cfg) predsOf(i int) []*ir.Block {
	return c.preds[c.predStart[i]:c.predStart[i+1]]
}

// computePreds builds the predecessor lists.
func (c *cfg) computePreds() {
	n := len(c.blocks)
	c.predStart = resize(c.predStart, n+1)
	clear(c.predStart)
	for _, b := range c.blocks {
		for _, s := range b.Succs() {
			c.predStart[s.Index+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.predStart[i+1] += c.predStart[i]
	}
	c.preds = resize(c.preds, int(c.predStart[n]))
	c.tmp = append(c.tmp[:0], c.predStart[:n]...)
	for _, b := range c.blocks {
		for _, s := range b.Succs() {
			c.preds[c.tmp[s.Index]] = b
			c.tmp[s.Index]++
		}
	}
}

// computeReach marks the blocks reachable from the entry and lists them
// in reverse postorder. The explicit-stack DFS visits successors in
// terminator order, so the order is exactly ir.ReversePostorder's
// reachable prefix.
func (c *cfg) computeReach() {
	c.reach = resize(c.reach, len(c.blocks))
	clear(c.reach)
	c.rpo = c.rpo[:0]
	if len(c.blocks) == 0 {
		return
	}
	entry := c.blocks[0]
	c.reach[0] = true
	c.stack = append(c.stack[:0], dfsFrame{b: entry})
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if succs := top.b.Succs(); top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if !c.reach[s.Index] {
				c.reach[s.Index] = true
				c.stack = append(c.stack, dfsFrame{b: s})
			}
			continue
		}
		c.rpo = append(c.rpo, top.b) // postorder, reversed below
		c.stack = c.stack[:len(c.stack)-1]
	}
	slices.Reverse(c.rpo)
}

// leadingPhis returns the phis at the head of b without copying them:
// the result aliases b.Instrs, so b's instruction list must not change
// while it is in use.
func leadingPhis(b *ir.Block) []*ir.Instr {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == ir.OpPhi {
		n++
	}
	return b.Instrs[:n]
}

// resize returns s with length n, reusing its storage when it can. The
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
