package core

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"strings"
	"testing"

	"mpidetect/internal/dataset"
	"mpidetect/internal/dtree"
	"mpidetect/internal/gnn"
	"mpidetect/internal/ir2vec"
)

// trainCorpus returns a small deterministic corpus plus a held-out set the
// detector did not see during training (to exercise the fallback path of
// the encoder after a reload).
func trainCorpus(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train := dataset.GenerateCorrBench(1, false)
	held := dataset.GenerateCorrBench(2, false)
	if len(train.Codes) == 0 || len(held.Codes) == 0 {
		t.Fatal("empty corpus")
	}
	return train, held
}

func fastIR2VecConfig() IR2VecConfig {
	cfg := DefaultIR2VecConfig()
	cfg.Dim = 32
	return cfg
}

func fastGNNConfig() GNNDetectorConfig {
	cfg := DefaultGNNConfig()
	cfg.Model.Epochs = 1
	cfg.Model.Hidden = []int{8, 8}
	cfg.Model.EmbedDim = 8
	return cfg
}

// checkSameVerdicts asserts both detectors agree on every code of the set.
func checkSameVerdicts(t *testing.T, want, got Detector, d *dataset.Dataset) {
	t.Helper()
	for _, c := range d.Codes {
		vw, err := CheckProgram(want, c.Prog)
		if err != nil {
			t.Fatalf("original detector on %s: %v", c.Name, err)
		}
		vg, err := CheckProgram(got, c.Prog)
		if err != nil {
			t.Fatalf("reloaded detector on %s: %v", c.Name, err)
		}
		if vw != vg {
			t.Fatalf("verdict drift on %s after reload: trained %+v, loaded %+v", c.Name, vw, vg)
		}
	}
}

func TestIR2VecRoundTrip(t *testing.T) {
	train, held := trainCorpus(t)
	det, err := TrainIR2Vec(train, fastIR2VecConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ir2vec.bin")
	if err := SaveDetectorFile(path, det); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != det.Name() {
		t.Fatalf("loaded detector name %q, want %q", loaded.Name(), det.Name())
	}
	checkSameVerdicts(t, det, loaded, train)
	checkSameVerdicts(t, det, loaded, held)
}

func TestIR2VecMultiClassRoundTrip(t *testing.T) {
	train, _ := trainCorpus(t)
	cfg := fastIR2VecConfig()
	cfg.MultiClass = true
	det, err := TrainIR2Vec(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDetector(&buf, det); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSameVerdicts(t, det, loaded, train)
}

func TestGNNRoundTrip(t *testing.T) {
	train, held := trainCorpus(t)
	det, err := TrainGNN(train, fastGNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gnn.bin")
	if err := SaveDetectorFile(path, det); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkSameVerdicts(t, det, loaded, train)
	checkSameVerdicts(t, det, loaded, held)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadDetector(strings.NewReader("not a model")); err == nil {
		t.Fatal("expected an error loading garbage")
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifactHeader{"SOMETHING-ELSE", ArtifactVersion, kindIR2Vec}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDetector(&buf)
	if err == nil || !strings.Contains(err.Error(), "not an mpidetect model") {
		t.Fatalf("want magic rejection, got %v", err)
	}
}

func TestLoadRejectsStaleVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifactHeader{artifactMagic, ArtifactVersion + 1, kindIR2Vec}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDetector(&buf)
	if err == nil || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("want stale-version rejection, got %v", err)
	}
}

func TestLoadRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifactHeader{artifactMagic, ArtifactVersion, "transformer"}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDetector(&buf)
	if err == nil || !strings.Contains(err.Error(), "unknown model kind") {
		t.Fatalf("want unknown-kind rejection, got %v", err)
	}
}

func TestGNNModelGobValidation(t *testing.T) {
	bad := gnn.Model{}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&bad); err == nil {
		// An empty model has no layers; encoding succeeds but decoding the
		// zero shape must fail rather than panic inside NewModel.
		var out gnn.Model
		if err := gob.NewDecoder(&buf).Decode(&out); err == nil {
			t.Fatal("expected shape validation error decoding an empty model")
		}
	}
}

// legacyGob wraps pre-encoded legacy gob bytes so they can be spliced into
// an artifact in place of a real encoder value.
type legacyGob []byte

func (l legacyGob) GobEncode() ([]byte, error) { return l, nil }

// legacyEncoderState mirrors the ArtifactVersion-1 ir2vec encoder layout
// (map-keyed entity and relation tables).
type legacyEncoderState struct {
	Dim  int
	Seed int64
	Ent  map[string][]float64
	Rel  map[string][]float64
}

// legacyIr2vecArtifactState mirrors ir2vecState with the encoder swapped
// for raw legacy bytes (gob matches struct fields by name, so the decoder
// feeds the blob straight into ir2vec.Encoder.GobDecode).
type legacyIr2vecArtifactState struct {
	Cfg    IR2VecConfig
	Enc    legacyGob
	Norm   *ir2vec.Normalizer
	Tree   *dtree.Tree
	Labels []dataset.Label
}

// TestLoadAcceptsVersion1Artifact builds a byte-faithful ArtifactVersion-1
// artifact — version-1 header and a map-keyed (pre-interning) encoder
// body — and checks the current binary still loads and serves it, and
// that re-saving produces a current-version artifact that classifies
// identically.
func TestLoadAcceptsVersion1Artifact(t *testing.T) {
	train, held := trainCorpus(t)
	det, err := TrainIR2Vec(train, fastIR2VecConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Extract the trained encoder's tables into the legacy map shape by
	// gob round-tripping it through its exported state.
	blob, err := det.enc.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Dim  int
		Seed int64
		Rel  map[string][]float64
		Toks []string
		Vecs []float64
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	legacy := legacyEncoderState{Dim: st.Dim, Seed: st.Seed,
		Ent: map[string][]float64{}, Rel: st.Rel}
	for i, tok := range st.Toks {
		legacy.Ent[tok] = st.Vecs[i*st.Dim : (i+1)*st.Dim]
	}
	var encBuf bytes.Buffer
	if err := gob.NewEncoder(&encBuf).Encode(legacy); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(artifactHeader{artifactMagic, 1, kindIR2Vec}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(legacyIr2vecArtifactState{
		Cfg: det.cfg, Enc: legacyGob(encBuf.Bytes()),
		Norm: det.norm, Tree: det.tree, Labels: det.labels}); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadDetector(&buf)
	if err != nil {
		t.Fatalf("loading a version-1 artifact: %v", err)
	}
	checkSameVerdicts(t, det, loaded, train)
	checkSameVerdicts(t, det, loaded, held)

	// Re-save: the artifact comes back out at the current version and
	// still classifies identically.
	var resaved bytes.Buffer
	if err := SaveDetector(&resaved, loaded); err != nil {
		t.Fatal(err)
	}
	var h artifactHeader
	peek := bytes.NewReader(resaved.Bytes())
	if err := gob.NewDecoder(peek).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != ArtifactVersion {
		t.Fatalf("re-saved artifact has version %d, want %d", h.Version, ArtifactVersion)
	}
	reloaded, err := LoadDetector(&resaved)
	if err != nil {
		t.Fatal(err)
	}
	checkSameVerdicts(t, det, reloaded, held)
}
