package main

import (
	"fmt"
	"runtime"
	"time"

	"mpidetect/internal/serve"
)

// passResult is one pass: a fresh boot, then every request of the list.
type passResult struct {
	setup  time.Duration
	wall   time.Duration // first request sent to last verdict back
	cpu    time.Duration // process CPU, timed phase through the write-behind drain
	allocs uint64        // heap allocations over the same window
	rssMB  float64
	gc     float64
	lat    []time.Duration
	v      verdicts
	delta  statsDelta
}

// pass boots an engine, drives the request list through it on the
// closed-loop clients, drains it, and checks every verdict. keep leaves
// a cold workload's store on disk for the traced run's store phase.
func (b *bench) pass(keep bool) (passResult, *instance, error) {
	var r passResult
	runtime.GC()
	t0 := time.Now()
	in, err := b.boot()
	if err != nil {
		return r, nil, err
	}
	r.setup = time.Since(t0)
	out := make([]outcome, len(b.reqs))
	before := in.eng.Stats()
	rss := startRSS()
	gc0, cpu0, m0 := readGCClock(), cpuTime(), mallocs()
	start := time.Now()
	r.lat = closedLoop(len(b.reqs), func(i int) { b.do(in, i, out) })
	r.wall = time.Since(start)
	in.eng.Close()
	r.cpu, r.allocs = cpuTime()-cpu0, mallocs()-m0
	r.gc = gcShare(gc0, readGCClock())
	r.rssMB = rss.stopMB()
	r.delta = deltaOf(before, in.eng.Stats())
	if !keep {
		in.release()
		in = nil
	}
	if r.v, err = b.check(out); err != nil {
		return r, in, err
	}
	return r, in, b.checkWork(r.delta)
}

// checkWork fails a run whose pass did other work than the workload
// promises: a cache hit on a cold workload means the stream wrapped, and
// a pipeline run or simulation on ci_recheck means a verdict was not
// served from the cache or the store.
func (b *bench) checkWork(d statsDelta) error {
	switch {
	case b.spec.recheck && (d.pipelineExecs != 0 || d.simExecs != 0):
		return fmt.Errorf("ci_recheck ran %d pipelines and %d simulations: %w", d.pipelineExecs, d.simExecs, errIncorrect)
	case !b.spec.recheck && (d.hits != 0 || d.toolHits != 0):
		return fmt.Errorf("%s served %d cache hits, the cold stream repeated a program: %w", b.spec.name, d.hits+d.toolHits, errIncorrect)
	}
	return nil
}

// statsDelta is the change of the engine counters over one pass.
type statsDelta struct {
	hits, misses, hydrations, evictions, toolHits int64
	pipelineExecs, drains, batched, singleton     int64
	shed, simExecs, simTimeouts                   int64
	appends, persistDropped                       int64
}

func deltaOf(a, b serve.StatsSnapshot) statsDelta {
	d := statsDelta{
		pipelineExecs: b.Engine.PipelineExecs - a.Engine.PipelineExecs,
		drains: b.Pipeline.BatchFill1 + b.Pipeline.BatchFill2to4 + b.Pipeline.BatchFill5to8 + b.Pipeline.BatchFillFull -
			(a.Pipeline.BatchFill1 + a.Pipeline.BatchFill2to4 + a.Pipeline.BatchFill5to8 + a.Pipeline.BatchFillFull),
		batched:   b.Pipeline.BatchedPredictions - a.Pipeline.BatchedPredictions,
		singleton: b.Pipeline.SingletonPredictions - a.Pipeline.SingletonPredictions,
		shed:      b.Resilience.ShedRequests - a.Resilience.ShedRequests,
	}
	if a.Cache != nil && b.Cache != nil {
		d.hits = b.Cache.Hits - a.Cache.Hits
		d.misses = b.Cache.Misses - a.Cache.Misses
		d.hydrations = b.Cache.Hydrations - a.Cache.Hydrations
		d.evictions = b.Cache.Evictions - a.Cache.Evictions
	}
	if a.ToolCache != nil && b.ToolCache != nil {
		d.toolHits = b.ToolCache.Hits - a.ToolCache.Hits
	}
	if a.Analyze != nil && b.Analyze != nil {
		d.simExecs = b.Analyze.SimExecs - a.Analyze.SimExecs
		d.simTimeouts = b.Analyze.SimTimeouts - a.Analyze.SimTimeouts
	}
	if a.Store != nil && b.Store != nil {
		d.appends = b.Store.Log.Appends - a.Store.Log.Appends
		d.persistDropped = tierDrops(b.Store) - tierDrops(a.Store)
	}
	return d
}

func tierDrops(s *serve.StoreStats) int64 {
	n := s.Classify.Dropped + s.Classify.DegradedDrops
	if s.Tool != nil {
		n += s.Tool.Dropped + s.Tool.DegradedDrops
	}
	return n
}

// timedRun is the end-to-end run: a fixed number of passes, tracing off.
func (b *bench) timedRun(passes int, host0 hostTicks) (*report, error) {
	var (
		setups, tput, cpu, allocs, rss, gc, p50 []float64
		lat                                     []time.Duration
		attempted, failed, distinct, match      int
		wallTimeouts                            int
		shed, dropped                           int64
	)
	// An untimed warm-up pass first: the process's own one-time costs
	// (heap growth, first page faults) are not the workload's. Its
	// verdicts are checked like every other pass's, and its accuracy is
	// the one every timed pass must repeat.
	warm, _, err := b.pass(false)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	for p := 0; p < passes; p++ {
		r, _, err := b.pass(false)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		if r.v.failed == 0 && warm.v.failed == 0 && r.v.matches != warm.v.matches {
			return nil, fmt.Errorf("pass %d: accuracy differs from the warm-up pass: %w", p, errIncorrect)
		}
		setups = append(setups, r.setup.Seconds())
		n := float64(max(r.v.programs, 1))
		tput = append(tput, float64(r.v.programs)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond)/n)
		allocs = append(allocs, float64(r.allocs)/n)
		rss = append(rss, r.rssMB)
		gc = append(gc, r.gc)
		for i := range r.lat {
			if r.v.failedReq[i] {
				r.lat[i] = requestBudget
			}
		}
		lat = append(lat, r.lat...)
		sortDurations(r.lat)
		p50 = append(p50, ms(quantile(r.lat, 0.50)))
		attempted += len(r.lat)
		failed += r.v.failed
		distinct += r.v.distinct
		match += r.v.matches
		wallTimeouts += r.v.wallTimeouts
		shed += r.delta.shed
		dropped += r.delta.persistDropped
	}
	// setup_s is a median over at least minBoots boots.
	for len(setups) < minBoots {
		runtime.GC()
		t0 := time.Now()
		in, err := b.boot()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		in.close()
	}
	steal := stealRatio(host0, readHostTicks())
	sortDurations(lat)

	fmt.Printf("perfbench %s seed=%d passes=%d programs/pass=%d requests/pass=%d clients=%d\n",
		b.spec.name, b.seed, passes, len(b.progs), len(b.reqs), clients)
	fmt.Printf("  why: %s\n", b.spec.why)
	fmt.Printf("  input: %d programs, %.2f MB of IR; setup boots=%d\n",
		len(b.progs), float64(irBytes(b.progs))/(1<<20), len(setups))
	// p99 is reported here, not gated: on a shared 2-vCPU host it tracks
	// hypervisor steal bursts more than the program (see README.md).
	fmt.Printf("  latency over %d requests: p50=%.3fms p99=%.3fms (%d samples beyond p99)\n",
		len(lat), ms(quantile(lat, 0.50)), ms(quantile(lat, 0.99)), len(lat)-int(0.99*float64(len(lat))+0.5))
	fmt.Printf("  requests attempted=%d succeeded=%d failed=%d (shed=%d); failed operations: store.persist_dropped=%d mpisim.sim_timeouts=%d\n",
		attempted, attempted-failed, failed, shed, dropped, wallTimeouts)
	fmt.Printf("  host.steal_ratio=%.4f runtime.gc_cpu_share=%.4f\n", steal, median(gc))

	ok := attempted - failed
	return &report{
		Correct: true, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"throughput_pps":  {median(tput), "prog/s"},
			"cpu_us_per_prog": {median(cpu), "us"},
			"p50_ms":          {median(p50), "ms"},
			"allocs_per_prog": {median(allocs), "count"},
			"rss_peak_mb":     {median(rss), "MB"},
			"accuracy":        {float64(match) / float64(max(distinct, 1)), "ratio"},
			"success_ratio":   {float64(ok) / float64(attempted), "ratio"},
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
