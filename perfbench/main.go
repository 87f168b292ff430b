// Command perfbench is mpidetect's serving benchmark. It drives
// serve.Engine in-process for a fixed amount of work per workload,
// checks every served verdict against an oracle, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced replay (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed (0 <= seed < 2^40)")
	seconds := flag.Int("seconds", 15, "run length on a 2-vCPU host; sets the fixed pass count")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = timed end-to-end run")
	dir := flag.String("dir", ".bench_build", "directory for artifacts, scratch stores and span files")
	flag.Parse()

	s := specByName(*workload)
	switch {
	case s == nil:
		fail(fmt.Errorf("unknown workload %q", *workload))
	case *seed < 0 || *seed >= maxSeed:
		fail(fmt.Errorf("seed %d out of range", *seed))
	case *seconds < 1:
		fail(fmt.Errorf("seconds must be positive"))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("trace must be 0 or 1"))
	}
	rep, err := run(s, *seed, *seconds, *trace == 1, *dir)
	if errors.Is(err, errIncorrect) {
		// The outputs are wrong: say so in the result line as well.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		fmt.Println(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		os.Exit(1)
	}
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func run(s *spec, seed int64, seconds int, traced bool, dir string) (*report, error) {
	host0 := readHostTicks()
	art, err := ensureArtifacts(dir)
	if err != nil {
		return nil, fmt.Errorf("preparing artifacts: %w", err)
	}
	scratch := filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// A run stopped by a signal still removes its scratch stores.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(scratch)
		os.Exit(1)
	}()
	b, err := prepare(s, seed, scratch, art)
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", s.name, err)
	}
	if traced {
		return b.traceRun(dir, host0)
	}
	return b.timedRun(s.passes(seconds), host0)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
