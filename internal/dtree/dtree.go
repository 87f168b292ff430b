// Package dtree implements the CART decision-tree classifier the paper
// uses on IR2Vec features (§IV-A): Gini impurity, exhaustive best-split
// search, grown until purity — the defaults of scikit-learn 1.0's
// DecisionTreeClassifier, which the paper uses unmodified.
package dtree

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"sort"
)

// Tree is a trained decision tree.
type Tree struct {
	root    *node
	Classes int
	// Features restricts the tree to a feature subset (GA selection); nil
	// means all features.
	Features []int
}

type node struct {
	leaf    bool
	class   int
	feature int
	thresh  float64
	left    *node
	right   *node
}

// flatNode is the exported gob mirror of one tree node; children are
// indices into the flattened node array (-1 for none).
type flatNode struct {
	Leaf        bool
	Class       int
	Feature     int
	Thresh      float64
	Left, Right int
}

// treeState is the exported gob mirror of Tree, with the recursive node
// structure flattened in preorder (root at index 0).
type treeState struct {
	Nodes    []flatNode
	Classes  int
	Features []int
}

func flatten(n *node, out *[]flatNode) int {
	idx := len(*out)
	*out = append(*out, flatNode{Leaf: n.leaf, Class: n.class,
		Feature: n.feature, Thresh: n.thresh, Left: -1, Right: -1})
	if !n.leaf {
		// The recursive calls append to *out and may reallocate its backing
		// array, so index only after each call returns.
		l := flatten(n.left, out)
		(*out)[idx].Left = l
		r := flatten(n.right, out)
		(*out)[idx].Right = r
	}
	return idx
}

func unflatten(nodes []flatNode, idx int, visited []bool) (*node, error) {
	if idx < 0 || idx >= len(nodes) {
		return nil, errors.New("dtree: corrupt tree encoding: node index out of range")
	}
	// A preorder flattening of a tree visits every index exactly once and
	// puts children strictly after their parent; revisits (DAG sharing) or
	// backward edges (cycles) would blow up the reconstruction.
	if visited[idx] {
		return nil, errors.New("dtree: corrupt tree encoding: node referenced twice")
	}
	visited[idx] = true
	fn := nodes[idx]
	if !fn.Leaf && (fn.Left <= idx || fn.Right <= idx) {
		return nil, errors.New("dtree: corrupt tree encoding: non-preorder child index")
	}
	n := &node{leaf: fn.Leaf, class: fn.Class, feature: fn.Feature, thresh: fn.Thresh}
	if fn.Leaf {
		return n, nil
	}
	var err error
	if n.left, err = unflatten(nodes, fn.Left, visited); err != nil {
		return nil, err
	}
	if n.right, err = unflatten(nodes, fn.Right, visited); err != nil {
		return nil, err
	}
	return n, nil
}

// GobEncode implements gob.GobEncoder.
func (t *Tree) GobEncode() ([]byte, error) {
	if t.root == nil {
		return nil, errors.New("dtree: cannot encode an untrained tree")
	}
	st := treeState{Classes: t.Classes, Features: t.Features}
	flatten(t.root, &st.Nodes)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. Corrupt encodings fail here, at
// load time, rather than panicking later inside Predict on a worker
// goroutine: the node graph must be a preorder tree, every node's class
// must fall in [0, Classes), and feature indices must be non-negative
// (their upper bound is the caller's feature dimension — see MaxFeature).
func (t *Tree) GobDecode(b []byte) error {
	var st treeState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	if len(st.Nodes) == 0 || st.Classes <= 0 {
		return errors.New("dtree: corrupt tree encoding: empty tree")
	}
	for _, fn := range st.Nodes {
		if fn.Leaf && (fn.Class < 0 || fn.Class >= st.Classes) {
			return errors.New("dtree: corrupt tree encoding: leaf class out of range")
		}
		if !fn.Leaf && fn.Feature < 0 {
			return errors.New("dtree: corrupt tree encoding: negative feature index")
		}
	}
	root, err := unflatten(st.Nodes, 0, make([]bool, len(st.Nodes)))
	if err != nil {
		return err
	}
	t.Classes, t.Features, t.root = st.Classes, st.Features, root
	return nil
}

// MaxFeature returns the largest feature index the tree consults, or -1
// for a leaf-only tree. Artifact loaders use it to check a deserialized
// tree against the feature dimension it will be applied to.
func (t *Tree) MaxFeature() int {
	max := -1
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil || n.leaf {
			return
		}
		if n.feature > max {
			max = n.feature
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return max
}

// Config controls tree growth; zero values reproduce sklearn defaults.
type Config struct {
	MaxDepth int // 0 = unlimited
	Features []int
}

// minSamplesSplit is sklearn's default: a node with fewer samples is a
// leaf.
const minSamplesSplit = 2

// Train fits a tree on features X and labels y (0-based classes).
func Train(x [][]float64, y []int, cfg Config) *Tree {
	classes := 0
	for _, l := range y {
		if l+1 > classes {
			classes = l + 1
		}
	}
	feats := cfg.Features
	if feats == nil {
		feats = make([]int, len(x[0]))
		for i := range feats {
			feats[i] = i
		}
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{Classes: classes, Features: cfg.Features}
	t.root = grow(x, y, idx, feats, classes, cfg, 0)
	return t
}

func majority(y []int, idx []int, classes int) int {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	best, bi := -1, 0
	for c, n := range counts {
		if n > best {
			best, bi = n, c
		}
	}
	return bi
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	return s
}

func pure(y []int, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func grow(x [][]float64, y []int, idx, feats []int, classes int, cfg Config, depth int) *node {
	if len(idx) < minSamplesSplit || pure(y, idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return &node{leaf: true, class: majority(y, idx, classes)}
	}
	bestGain := -1.0
	bestFeat := -1
	bestThresh := 0.0
	total := make([]int, classes)
	for _, i := range idx {
		total[y[i]]++
	}
	parentGini := gini(total, len(idx))

	order := make([]int, len(idx))
	left := make([]int, classes)
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		for c := range left {
			left[c] = 0
		}
		for k := 0; k+1 < len(order); k++ {
			left[y[order[k]]]++
			v, vn := x[order[k]][f], x[order[k+1]][f]
			if v == vn {
				continue
			}
			nl := k + 1
			nr := len(order) - nl
			right := make([]int, classes)
			for c := range right {
				right[c] = total[c] - left[c]
			}
			g := parentGini -
				(float64(nl)*gini(left, nl)+float64(nr)*gini(right, nr))/float64(len(order))
			if g > bestGain {
				bestGain = g
				bestFeat = f
				bestThresh = (v + vn) / 2
			}
		}
	}
	// Keep splitting as long as any valid threshold exists (sklearn
	// semantics): zero-gain splits still partition the node, which is what
	// lets CART solve XOR-shaped problems.
	if bestFeat < 0 {
		return &node{leaf: true, class: majority(y, idx, classes)}
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &node{leaf: true, class: majority(y, idx, classes)}
	}
	return &node{
		feature: bestFeat,
		thresh:  bestThresh,
		left:    grow(x, y, li, feats, classes, cfg, depth+1),
		right:   grow(x, y, ri, feats, classes, cfg, depth+1),
	}
}

// Predict classifies one feature vector.
func (t *Tree) Predict(v []float64) int {
	n := t.root
	for !n.leaf {
		if v[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Accuracy scores the tree on a labelled set.
func (t *Tree) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	correct := 0
	for i, v := range x {
		if t.Predict(v) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}
