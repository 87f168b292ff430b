// Package passes implements the optimisation pipeline applied to the IR
// before feature extraction, mirroring the compiler options the paper
// evaluates: -O0 (leave the code intact), -O2 (representative of a real
// build), and -Os (size-oriented, used by the paper to normalise code-size
// bias). The passes are classical: mem2reg (SSA construction via pruned phi
// placement on dominance frontiers), sparse constant folding, dead-code
// elimination, CFG simplification, and bottom-up function inlining.
//
// The CFG analyses behind them (predecessors, reachability, reverse
// postorder, dominator tree and frontiers, use counts) are dense: slices
// indexed by block position and alloca ordinal, kept in one pooled
// scratch per Optimize run, so the optimiser allocates little beyond the
// IR it creates. The optimised IR is pinned byte for byte by
// testdata/optimized_v1.gob.
package passes

import "mpidetect/internal/ir"

// DomTree is the dominator tree and dominance frontiers of a function,
// computed with the Cooper–Harvey–Kennedy iterative algorithm ("A Simple,
// Fast Dominance Algorithm", 2001) over reverse-postorder indices. It is
// slice-backed, indexed by block position, and describes the function as
// it was when the tree was built.
type DomTree struct {
	blocks []*ir.Block
	rpoNum []int32 // per block: reverse-postorder position, -1 if unreachable
	idom   []int32 // per block: immediate dominator's index; the entry's is itself, -1 if unreachable

	// Dominator-tree children in CSR form, each list in block order.
	childStart []int32
	children   []*ir.Block

	// frontier[i] is block i's dominance frontier. The inner slices are
	// kept across builds so a pooled tree reuses their storage.
	frontier [][]*ir.Block

	doms []int32 // CHK working array: idom by reverse-postorder position
}

// build computes the tree from c, whose predecessors and reverse
// postorder must be current.
func (t *DomTree) build(c *cfg) {
	n := len(c.blocks)
	t.blocks = append(t.blocks[:0], c.blocks...)
	t.rpoNum = resize(t.rpoNum, n)
	t.idom = resize(t.idom, n)
	for i := range t.rpoNum {
		t.rpoNum[i], t.idom[i] = -1, -1
	}
	for i, b := range c.rpo {
		t.rpoNum[b.Index] = int32(i)
	}
	for i := range t.frontier {
		t.frontier[i] = t.frontier[i][:0]
	}
	for len(t.frontier) < n {
		t.frontier = append(t.frontier, nil)
	}
	t.childStart = resize(t.childStart, n+1)
	clear(t.childStart)
	t.children = t.children[:0]
	if len(c.rpo) == 0 {
		return
	}

	// CHK: iterate to a fixed point over reverse postorder, intersecting
	// the dominators of already-processed predecessors.
	doms := resize(t.doms, len(c.rpo))
	t.doms = doms
	for i := range doms {
		doms[i] = -1
	}
	doms[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(c.rpo); i++ {
			newIdom := int32(-1)
			for _, p := range c.predsOf(c.rpo[i].Index) {
				pr := t.rpoNum[p.Index]
				if pr < 0 || doms[pr] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = pr
				} else {
					newIdom = intersect(doms, pr, newIdom)
				}
			}
			if newIdom >= 0 && doms[i] != newIdom {
				doms[i] = newIdom
				changed = true
			}
		}
	}
	for i, b := range c.rpo {
		t.idom[b.Index] = int32(c.rpo[doms[i]].Index)
	}

	// Children, in block order.
	for i, id := range t.idom {
		if id >= 0 && int(id) != i {
			t.childStart[id+1]++
		}
	}
	for i := 0; i < n; i++ {
		t.childStart[i+1] += t.childStart[i]
	}
	t.children = resize(t.children, int(t.childStart[n]))
	next := append(c.tmp[:0], t.childStart[:n]...)
	c.tmp = next
	for i, id := range t.idom {
		if id >= 0 && int(id) != i {
			t.children[next[id]] = t.blocks[i]
			next[id]++
		}
	}

	// Dominance frontiers (Cytron et al. style, CHK formulation): walk up
	// from each reachable predecessor of a join point to its idom.
	for i, b := range c.rpo {
		ps := c.predsOf(b.Index)
		if len(ps) < 2 {
			continue
		}
		for _, p := range ps {
			runner := t.rpoNum[p.Index]
			if runner < 0 {
				continue
			}
			for runner != doms[i] {
				r := c.rpo[runner].Index
				t.frontier[r] = appendUnique(t.frontier[r], b)
				runner = doms[runner]
			}
		}
	}
}

// intersect returns the nearest common dominator of the blocks at
// reverse-postorder positions a and b.
func intersect(doms []int32, a, b int32) int32 {
	for a != b {
		for a > b {
			a = doms[a]
		}
		for b > a {
			b = doms[b]
		}
	}
	return a
}

func appendUnique(s []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}
