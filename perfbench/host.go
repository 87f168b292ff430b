package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time (getrusage). Hypervisor
// steal does not accrue to it, unlike wall-clock time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative heap allocation count. ReadMemStats stops
// the world, so it is only called at phase boundaries.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapRetainedMB is the heap memory the runtime holds from the OS.
func heapRetainedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys-ms.HeapReleased) / (1 << 20)
}

// gcClock reads the runtime's estimate of GC CPU time and total CPU time
// available to the process, for the GC share of a phase.
type gcClock struct{ gc, total float64 }

func readGCClock() gcClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c gcClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

func gcShare(from, to gcClock) float64 {
	if d := to.total - from.total; d > 0 {
		return (to.gc - from.gc) / d
	}
	return 0
}

// hostTicks is the host-wide CPU time split from /proc/stat: ticks
// stolen by the hypervisor and all ticks. It is diagnostic only.
type hostTicks struct{ steal, total uint64 }

func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func stealRatio(from, to hostTicks) float64 {
	if d := to.total - from.total; d > 0 {
		return float64(to.steal-from.steal) / float64(d)
	}
	return 0
}

// rssSampler polls the process's resident set while a phase runs and
// keeps the peak.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak int64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{})}
	r.peak = readRSS()
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				if v := readRSS(); v > r.peak {
					r.peak = v
				}
			}
		}
	}()
	return r
}

// stopMB ends sampling and returns the peak in MiB.
func (r *rssSampler) stopMB() float64 {
	close(r.stop)
	r.done.Wait()
	if v := readRSS(); v > r.peak {
		r.peak = v
	}
	return float64(r.peak) / (1 << 20)
}

var pageSize = int64(os.Getpagesize())

func readRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * pageSize
}

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
