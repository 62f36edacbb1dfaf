package main

import (
	"sync"
	"time"

	"bat/internal/serving"
)

// stagePoller collects the serving cores' request traces while the traced
// windows run, so the serving.* stage quantiles cover those windows only:
// the stage histograms the program exports span the plane's whole life,
// warm-up at full concurrency included. The trace ring (the source of
// GET /debug/trace) keeps the last 128 traces; polling every 50 ms keeps up
// with the workloads' open-loop rates.
type stagePoller struct {
	rings []*serving.TraceRing

	mu     sync.Mutex
	seen   map[[2]uint64]bool
	stages map[string][]float64
	on     bool

	stop chan struct{}
	done chan struct{}
}

const stagePollEvery = 50 * time.Millisecond

func newStagePoller(rings []*serving.TraceRing) *stagePoller {
	p := &stagePoller{
		rings:  rings,
		seen:   make(map[[2]uint64]bool),
		stages: make(map[string][]float64),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *stagePoller) run() {
	defer close(p.done)
	t := time.NewTicker(stagePollEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.poll()
		}
	}
}

// poll marks every retained trace as seen and, while collecting, keeps the
// stage spans of those not seen before.
func (p *stagePoller) poll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rings {
		for _, tr := range r.Snapshot(0) {
			key := [2]uint64{uint64(i), tr.Seq}
			if p.seen[key] {
				continue
			}
			p.seen[key] = true
			if !p.on {
				continue
			}
			for _, s := range tr.Spans {
				p.stages[s.Stage] = append(p.stages[s.Stage], s.DurMs)
			}
		}
	}
}

// collect starts or stops keeping spans, between windows when no request
// is in flight. It polls first: traces retained before a start are marked
// seen and never kept; those finished before a stop are kept.
func (p *stagePoller) collect(on bool) {
	p.poll()
	p.mu.Lock()
	p.on = on
	p.mu.Unlock()
}

// stageMs returns the q-quantile (ms) of one stage's collected spans.
func (p *stagePoller) stageMs(stage string, q float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return quantile(p.stages[stage], q)
}

// close stops polling.
func (p *stagePoller) close() {
	close(p.stop)
	<-p.done
}
