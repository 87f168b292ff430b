package serve

import (
	"context"
	"strings"
	"testing"

	"mpidetect/internal/core"
	"mpidetect/internal/ir"
)

// mkJobs parses programs into worker jobs sharing one detector and one
// outcome channel, as Classify would enqueue them.
func mkJobs(t *testing.T, det core.Detector, progs []Program) ([]job, chan outcome) {
	t.Helper()
	out := make(chan outcome, len(progs))
	js := make([]job, len(progs))
	for i, p := range progs {
		m, err := ir.Parse(p.IR)
		if err != nil {
			t.Fatal(err)
		}
		js[i] = job{ctx: context.Background(), det: det, mod: m, idx: i, out: out}
	}
	return js, out
}

// TestWorkerDrainFusedBitForBit drives the drained-batch path directly:
// a batch classified through the fused CheckModules pass must produce
// verdicts identical to the per-program pipeline, count as batched
// predictions, and land in the right fill-histogram bucket.
func TestWorkerDrainFusedBitForBit(t *testing.T) {
	det := trained(t)
	reg := NewRegistry()
	reg.Register("ir2vec", det)
	eng := NewEngine(reg, Config{Workers: 1})
	defer eng.Close()

	progs, _ := corpusIR(t, 6)
	want := make([]Result, len(progs))
	for i, p := range progs {
		v, err := core.CheckIR(det, p.IR)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultOf(v)
	}

	js, out := mkJobs(t, det, progs)
	eng.runDrained(js)
	got := make([]Result, len(progs))
	for range progs {
		o := <-out
		got[o.idx] = o.res
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("program %d: batched %+v, singleton pipeline %+v", i, got[i], want[i])
		}
	}

	ps := eng.Stats().Pipeline
	if ps.BatchedPredictions != int64(len(progs)) || ps.SingletonPredictions != 0 {
		t.Fatalf("batched/singleton = %d/%d, want %d/0",
			ps.BatchedPredictions, ps.SingletonPredictions, len(progs))
	}
	if ps.BatchFill5to8 != 1 || ps.BatchFill1 != 0 || ps.BatchFillFull != 0 {
		t.Fatalf("fill histogram %+v, want exactly one 5-8 drain", ps)
	}
	if execs := eng.Stats().Engine.PipelineExecs; execs != int64(len(progs)) {
		t.Fatalf("pipeline_execs = %d, want %d", execs, len(progs))
	}

	// A singleton drain and a full drain land in their own buckets.
	js, out = mkJobs(t, det, progs[:1])
	eng.runDrained(js)
	<-out
	full, _ := corpusIR(t, eng.cfg.PredictBatch)
	js, out = mkJobs(t, det, full)
	eng.runDrained(js)
	for range full {
		<-out
	}
	ps = eng.Stats().Pipeline
	if ps.BatchFill1 != 1 || ps.BatchFillFull != 1 {
		t.Fatalf("fill histogram %+v, want one singleton and one full drain", ps)
	}
}

// chaosBatchDetector fails every fused pass and panics on one poisoned
// module, to exercise the fallback path's member isolation.
type chaosBatchDetector struct {
	core.Detector
	poison *ir.Module
}

func (d chaosBatchDetector) CheckModules(ms []*ir.Module) ([]core.Verdict, error) {
	if len(ms) > 1 {
		panic("fused pass exploded")
	}
	if ms[0] == d.poison {
		panic("poisoned module")
	}
	return d.Detector.CheckModules(ms)
}

// TestWorkerBatchFallbackIsolatesPanickingMember: a panic in the fused
// pass retries every member individually, and a member panicking there
// fails only its own request — neighbours still get real verdicts.
func TestWorkerBatchFallbackIsolatesPanickingMember(t *testing.T) {
	inner := trained(t)
	reg := NewRegistry()
	eng := NewEngine(reg, Config{Workers: 1})
	defer eng.Close()

	progs, _ := corpusIR(t, 4)
	det := chaosBatchDetector{Detector: inner}
	js, out := mkJobs(t, det, progs)
	det.poison = js[2].mod
	for i := range js {
		js[i].det = det // poison set after mkJobs: restamp
	}
	eng.runDrained(js)

	got := make([]Result, len(progs))
	for range progs {
		o := <-out
		got[o.idx] = o.res
	}
	for i, p := range progs {
		if i == 2 {
			if !strings.Contains(got[2].Err, "internal: classify panic") {
				t.Fatalf("poisoned member result %+v, want structured panic error", got[2])
			}
			continue
		}
		v, err := core.CheckIR(inner, p.IR)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != resultOf(v) {
			t.Fatalf("member %d: %+v, want clean verdict %+v", i, got[i], resultOf(v))
		}
	}
	ps := eng.Stats().Pipeline
	if ps.BatchedPredictions != 0 || ps.SingletonPredictions != int64(len(progs)) {
		t.Fatalf("batched/singleton = %d/%d, want 0/%d (fallback path)",
			ps.BatchedPredictions, ps.SingletonPredictions, len(progs))
	}
	if got := eng.Stats().Resilience.ClassifyPanics; got != 1 {
		t.Fatalf("classify_panics = %d, want 1 (only the poisoned member)", got)
	}
}
