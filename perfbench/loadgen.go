package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is one timed phase's accounting.
type Phase struct {
	Name      string
	Attempted int64
	// Failed counts operations that returned an error; answer checks add
	// their own failures later.
	Failed int64
	// LatMs holds one latency per completed operation (ms). Open-loop
	// latencies are timed from the operation's due time.
	LatMs []float64
	Wall  time.Duration
	CPU   time.Duration
	// MaxLateMs is how late the generator started the most delayed
	// operation (open loop only).
	MaxLateMs float64
	// FirstErr is the first operation error seen, for the phase line.
	FirstErr error

	errOnce sync.Once
}

// fail counts a failed operation and keeps the first error.
func (p *Phase) fail(failed *atomic.Int64, err error) {
	failed.Add(1)
	p.errOnce.Do(func() { p.FirstErr = err })
}

// Print writes the phase's accounting line.
func (p *Phase) Print(seed int64, checkFailed int64) {
	failed := p.Failed + checkFailed
	fmt.Printf("phase %s: seed=%d attempted=%d succeeded=%d failed=%d wall_s=%.3f max_late_ms=%.3f\n",
		p.Name, seed, p.Attempted, p.Attempted-failed, failed, p.Wall.Seconds(), p.MaxLateMs)
	if p.FirstErr != nil {
		fmt.Printf("phase %s: first failed operation: %v\n", p.Name, p.FirstErr)
	}
}

// arrivals returns n Poisson arrival offsets at rate per second.
func arrivals(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends operation i at offsets[i] from the phase start, whether or
// not earlier ones have finished, and waits for all of them. do reports
// whether the operation failed.
func openLoop(name string, offsets []time.Duration, do func(i int) error) *Phase {
	p := &Phase{Name: name, Attempted: int64(len(offsets)), LatMs: make([]float64, len(offsets))}
	var failed atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := float64(time.Since(due)) / 1e6; late > p.MaxLateMs {
			p.MaxLateMs = late
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			if err := do(i); err != nil {
				p.fail(&failed, err)
			}
			p.LatMs[i] = float64(time.Since(due)) / 1e6
		}(i, due)
	}
	wg.Wait()
	p.Wall = time.Since(start)
	p.CPU = cpuTime() - cpu0
	p.Failed = failed.Load()
	return p
}

// closedLoop runs callers goroutines, each sending its next operation as
// soon as the previous one returned, until d has passed. Operation indices
// are handed out in order, so the operations attempted are a prefix of the
// same sequence in every run. It returns the phase and the number of
// operations started.
func closedLoop(name string, callers int, d time.Duration, do func(i int) error) *Phase {
	p := &Phase{Name: name}
	var next, failed atomic.Int64
	lat := make([][]float64, callers)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if err := do(i); err != nil {
					p.fail(&failed, err)
				}
				lat[c] = append(lat[c], float64(time.Since(t0))/1e6)
			}
		}(c)
	}
	wg.Wait()
	p.Wall = time.Since(start)
	p.CPU = cpuTime() - cpu0
	p.Attempted = next.Load()
	p.Failed = failed.Load()
	for _, l := range lat {
		p.LatMs = append(p.LatMs, l...)
	}
	return p
}

// mergeWindows pools the windows of one kind of phase into one phase.
func mergeWindows(name string, ws []*Phase) *Phase {
	p := &Phase{Name: name}
	for _, w := range ws {
		p.Attempted += w.Attempted
		p.Failed += w.Failed
		p.LatMs = append(p.LatMs, w.LatMs...)
		p.Wall += w.Wall
		p.CPU += w.CPU
		p.MaxLateMs = max(p.MaxLateMs, w.MaxLateMs)
		if p.FirstErr == nil {
			p.FirstErr = w.FirstErr
		}
	}
	return p
}

// printRounds prints one value per round, to show how a run moved over time.
func printRounds(what string, ws []*Phase, f func(*Phase) float64) {
	fmt.Printf("rounds %s:", what)
	for _, w := range ws {
		fmt.Printf(" %.4g", f(w))
	}
	fmt.Println()
}
