package dtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// depth is the maximum depth below n.
func depth(n *node) int {
	if n.leaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

// leaves counts the leaf nodes below n.
func leaves(n *node) int {
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

func TestLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b, rng.Float64()})
		if a > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tree := Train(x, y, Config{})
	if acc := tree.Accuracy(x, y); acc < 0.999 {
		t.Errorf("training accuracy %f on separable data", acc)
	}
	if tree.Predict([]float64{0.9, 0.1, 0.5}) != 1 {
		t.Error("misclassified obvious point")
	}
	if tree.Predict([]float64{0.1, 0.9, 0.5}) != 0 {
		t.Error("misclassified obvious point")
	}
}

func TestXorNeedsDepthTwo(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	tree := Train(x, y, Config{})
	if acc := tree.Accuracy(x, y); acc != 1 {
		t.Errorf("XOR accuracy = %f", acc)
	}
	if depth(tree.root) < 2 {
		t.Errorf("XOR depth = %d, want >= 2", depth(tree.root))
	}
}

func TestMaxDepthLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		v := []float64{rng.Float64(), rng.Float64()}
		x = append(x, v)
		y = append(y, rng.Intn(3))
	}
	tree := Train(x, y, Config{MaxDepth: 3})
	if depth(tree.root) > 3 {
		t.Errorf("depth %d exceeds limit", depth(tree.root))
	}
}

func TestFeatureSubset(t *testing.T) {
	// Only feature 2 is informative; restricting to features {0,1} must
	// lose accuracy, restricting to {2} must keep it.
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		c := rng.Intn(2)
		x = append(x, []float64{rng.Float64(), rng.Float64(), float64(c)})
		y = append(y, c)
	}
	good := Train(x, y, Config{Features: []int{2}})
	if acc := good.Accuracy(x, y); acc != 1 {
		t.Errorf("informative-feature accuracy = %f", acc)
	}
	bad := Train(x, y, Config{Features: []int{0, 1}, MaxDepth: 2})
	if acc := bad.Accuracy(x, y); acc > 0.85 {
		t.Errorf("uninformative features reached %f", acc)
	}
}

func TestPureLeafStopsGrowth(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tree := Train(x, y, Config{})
	if depth(tree.root) != 0 || leaves(tree.root) != 1 {
		t.Errorf("pure data grew depth=%d leaves=%d", depth(tree.root), leaves(tree.root))
	}
}

// Property: the tree always predicts a label it has seen.
func TestQuickPredictInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, rng.Intn(4))
	}
	tree := Train(x, y, Config{})
	f := func(a, b float64) bool {
		p := tree.Predict([]float64{a, b})
		return p >= 0 && p < 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: training is invariant to sample order.
func TestQuickOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	for i := 0; i < 80; i++ {
		v := rng.Float64()
		x = append(x, []float64{v, rng.Float64()})
		if v > 0.4 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	t1 := Train(x, y, Config{})
	// Reverse order.
	rx := make([][]float64, len(x))
	ry := make([]int, len(y))
	for i := range x {
		rx[len(x)-1-i] = x[i]
		ry[len(y)-1-i] = y[i]
	}
	t2 := Train(rx, ry, Config{})
	for i := 0; i < 50; i++ {
		v := []float64{rng.Float64(), rng.Float64()}
		if t1.Predict(v) != t2.Predict(v) {
			t.Fatal("prediction depends on sample order")
		}
	}
}
