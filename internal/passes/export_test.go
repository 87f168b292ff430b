package passes

import "mpidetect/internal/ir"

// Test-only API: production code does not call it.

// BuildDomTree computes the dominator tree and dominance frontiers of f.
func BuildDomTree(f *ir.Func) *DomTree {
	var c cfg
	c.index(f)
	c.computePreds()
	c.computeReach()
	t := new(DomTree)
	t.build(&c)
	return t
}

// at returns b's index in the tree, or -1 if b was not one of the
// function's blocks when the tree was built.
func (t *DomTree) at(b *ir.Block) int {
	if i := b.Index; i >= 0 && i < len(t.blocks) && t.blocks[i] == b {
		return i
	}
	return -1
}

// Idom returns b's immediate dominator; the entry is its own. It returns
// nil for an unreachable block.
func (t *DomTree) Idom(b *ir.Block) *ir.Block {
	i := t.at(b)
	if i < 0 || t.idom[i] < 0 {
		return nil
	}
	return t.blocks[t.idom[i]]
}

// Frontier returns b's dominance frontier. The result aliases the tree;
// callers must not modify it.
func (t *DomTree) Frontier(b *ir.Block) []*ir.Block {
	i := t.at(b)
	if i < 0 {
		return nil
	}
	return t.frontier[i]
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		i := t.at(b)
		if i < 0 || t.idom[i] < 0 || int(t.idom[i]) == i {
			return false
		}
		b = t.blocks[t.idom[i]]
	}
}

// Mem2Reg runs the mem2reg pass alone on f.
func Mem2Reg(f *ir.Func) {
	s := getScratch()
	defer scratchPool.Put(s)
	s.mem2reg(f)
}

// DCE runs the dce pass alone on f.
func DCE(f *ir.Func) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.dce(f)
}

// SimplifyCFG runs the simplifyCFG pass alone on f.
func SimplifyCFG(f *ir.Func) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.simplifyCFG(f)
}

// Inline runs the inliner alone on m.
func Inline(m *ir.Module, maxSize int) bool {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.inline(m, maxSize)
}
