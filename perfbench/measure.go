package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memSnap is a runtime allocation/GC snapshot; deltas between two give a
// phase's allocation and collection cost.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func (s memSnap) minus(o memSnap) memSnap {
	return memSnap{totalAlloc: s.totalAlloc - o.totalAlloc, numGC: s.numGC - o.numGC, pauseNs: s.pauseNs - o.pauseNs}
}

func (s memSnap) plus(o memSnap) memSnap {
	return memSnap{totalAlloc: s.totalAlloc + o.totalAlloc, numGC: s.numGC + o.numGC, pauseNs: s.pauseNs + o.pauseNs}
}

// runtimeMetrics reports the allocation per operation and the GC work of d,
// the runtime statistics accumulated over the traced windows.
func runtimeMetrics(m map[string]Metric, d memSnap, ops int64) {
	m["runtime.alloc_kb_per_op"] = Metric{ratio(float64(d.totalAlloc)/1024, float64(ops)), "KB/op"}
	m["runtime.gc_cycles"] = Metric{float64(d.numGC), "count"}
	m["runtime.gc_pause_ms"] = Metric{float64(d.pauseNs) / 1e6, "ms"}
}

// timedSetup runs build reps times and reports the median wall time of a
// repetition. Every repetition but the last is closed again; the last one's
// value is returned for measuring. Setting up several times makes setup_s a
// median rather than one sample of a noisy quantity.
func timedSetup[T any](reps int, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			closeFn(v)
			continue
		}
		last = v
	}
	return last, median(times), nil
}
