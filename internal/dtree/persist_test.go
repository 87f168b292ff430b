package dtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

func encodeState(t *testing.T, st treeState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGobRoundTrip(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	tr := Train(x, y, Config{})
	raw, err := tr.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if got, want := back.Predict(v), tr.Predict(v); got != want {
			t.Fatalf("sample %d: decoded tree predicts %d, original %d", i, got, want)
		}
	}
}

func TestGobDecodeRejectsEmptyTree(t *testing.T) {
	var tr Tree
	if err := tr.GobDecode(encodeState(t, treeState{Classes: 2})); err == nil {
		t.Fatal("empty node list accepted")
	}
}

func TestGobDecodeRejectsSharedChild(t *testing.T) {
	// Node 0 points both children at node 1: indices strictly increase (so
	// the preorder check alone passes) but the node is referenced twice —
	// a DAG, which must be rejected rather than expanded exponentially.
	st := treeState{Classes: 2, Nodes: []flatNode{
		{Feature: 0, Thresh: 0.5, Left: 1, Right: 1},
		{Leaf: true, Class: 0, Left: -1, Right: -1},
	}}
	var tr Tree
	if err := tr.GobDecode(encodeState(t, st)); err == nil {
		t.Fatal("shared child accepted")
	}
}

func TestGobDecodeRejectsCycle(t *testing.T) {
	st := treeState{Classes: 2, Nodes: []flatNode{
		{Feature: 0, Thresh: 0.5, Left: 1, Right: 2},
		{Feature: 1, Thresh: 0.5, Left: 0, Right: 2},
		{Leaf: true, Class: 0, Left: -1, Right: -1},
	}}
	var tr Tree
	if err := tr.GobDecode(encodeState(t, st)); err == nil {
		t.Fatal("cyclic encoding accepted")
	}
}

func TestGobDecodeRejectsBadClassAndFeature(t *testing.T) {
	leafOOR := treeState{Classes: 2, Nodes: []flatNode{
		{Leaf: true, Class: 7, Left: -1, Right: -1},
	}}
	var tr Tree
	if err := tr.GobDecode(encodeState(t, leafOOR)); err == nil {
		t.Fatal("out-of-range leaf class accepted")
	}
	negFeat := treeState{Classes: 2, Nodes: []flatNode{
		{Feature: -3, Thresh: 0.5, Left: 1, Right: 2},
		{Leaf: true, Class: 0, Left: -1, Right: -1},
		{Leaf: true, Class: 1, Left: -1, Right: -1},
	}}
	if err := tr.GobDecode(encodeState(t, negFeat)); err == nil {
		t.Fatal("negative feature index accepted")
	}
}

func TestGobEncodeRejectsUntrained(t *testing.T) {
	var tr Tree
	if _, err := tr.GobEncode(); err == nil {
		t.Fatal("untrained tree encoded")
	}
}

func TestMaxFeature(t *testing.T) {
	x := [][]float64{{0, 0, 0}, {0, 0, 1}}
	tr := Train(x, []int{0, 1}, Config{})
	if got := tr.MaxFeature(); got != 2 {
		t.Fatalf("MaxFeature = %d, want 2", got)
	}
}

// trainDigest is the SHA-256 of the encoded tree TestTrainDigest grows.
// make test-procs runs the test at GOMAXPROCS 1 and 4.
const trainDigest = "19362b1780a0d14689d4c004f01be977635abd2bf2732ddbccdb94db52b448df"

// TestTrainDigest pins a tree grown on fixed pseudo-random data (three
// classes, 24 features, some splits tied) to a committed digest of its
// encoding: growth must give the same tree whatever the core count.
func TestTrainDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, 300)
	y := make([]int, len(x))
	for i := range x {
		x[i] = make([]float64, 24)
		for j := range x[i] {
			x[i][j] = math.Round(rng.NormFloat64()*8) / 8
		}
		y[i] = rng.Intn(3)
		if x[i][0]+x[i][3]*x[i][5] > 0.1 {
			y[i] = 0
		}
	}
	raw, err := Train(x, y, Config{}).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != trainDigest {
		t.Fatalf("tree training digest %s, want %s", got, trainDigest)
	}
}
