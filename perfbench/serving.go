package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"bat/internal/ranking"
	"bat/internal/serving"
)

// counters are a serving plane's cumulative counters, read from the stats
// the program exports. Fields a plane does not have stay zero.
type counters struct {
	requests, userPrefix, itemPrefix      int64
	reused, computed, deduped             int64
	batches                               int64
	batchedRequests                       float64
	rxBytes, txBytes, hedged, deltaStores int64
	poolHits, poolMisses, evictions       int64
	affinityDecisions, failovers          int64
}

// servingStack is one serving plane under test.
type servingStack interface {
	// rank serves one request through the plane's public entry point. Any
	// answer other than a full one (an error, a shed) is an error.
	rank(ctx context.Context, req serving.RankRequest) (*serving.RankResponse, error)
	counters() counters
	// rings are the plane's serving-core trace rings.
	rings() []*serving.TraceRing
	close()
}

// servingSpec is what distinguishes the local and cluster workloads.
type servingSpec struct {
	// rate is the open-loop arrival rate (req/s), a constant well below
	// the knee; callers is the closed-loop caller count.
	rate    float64
	callers int
	// warm is the warm-up request count that brings caches to steady
	// state before anything is timed.
	warm  int
	build func(in *servingInputs, tr *Tracer) (servingStack, error)
}

const (
	setupReps      = 3
	referenceCheck = 150 // answers per phase re-ranked by the reference engine
	topK           = 10  // the serving planes' default ranking length
)

// servedVariant is the model both serving planes serve (the batserve and
// batdist default); the answer checker's reference ranker is built with the
// same variant, since another variant builds a different model.
var servedVariant = ranking.VariantBase

type servingRun struct {
	stack servingStack
	in    *servingInputs
}

// setupServing builds inputs and the plane and warms it up; it is the unit
// setup_s times.
func setupServing(spec servingSpec, opts Options, tr *Tracer, openN int) (servingRun, error) {
	warm := spec.warm
	if opts.Short {
		warm /= 4
	}
	in, err := newServingInputs(opts.Seed, warm, openN)
	if err != nil {
		return servingRun{}, err
	}
	st, err := spec.build(in, tr)
	if err != nil {
		return servingRun{}, err
	}
	var mu sync.Mutex
	var werr error
	closedLoopN(spec.callers, len(in.warm), func(i int) {
		if _, err := st.rank(context.Background(), in.warm[i]); err != nil {
			mu.Lock()
			werr = err
			mu.Unlock()
		}
	})
	if werr != nil {
		st.close()
		return servingRun{}, fmt.Errorf("warm-up: %w", werr)
	}
	return servingRun{stack: st, in: in}, nil
}

// closedLoopN runs operations 0..n-1 on callers goroutines.
func closedLoopN(callers, n int, do func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// recorder keeps a phase's answers for checking after the timed phases.
type recorder struct {
	mu      sync.Mutex
	answers []answer
}

// do returns the operation that serves reqs[(off+i) mod len(reqs)] and keeps
// its answer.
func (r *recorder) do(st servingStack, tr *Tracer, reqs []serving.RankRequest, off int) func(i int) error {
	return func(i int) error {
		req := reqs[(off+i)%len(reqs)]
		var resp *serving.RankResponse
		var err error
		tr.Do(context.Background(), "perfbench.request", func(ctx context.Context) {
			resp, err = st.rank(ctx, req)
		})
		r.mu.Lock()
		r.answers = append(r.answers, answer{req: req, resp: resp})
		r.mu.Unlock()
		return err
	}
}

// rounds is how many alternating windows a run's measured time is cut into.
// Every end-to-end rate and latency quantile is the median over the rounds
// of that round's value, so a stall on the shared host spoils one round
// rather than the run.
const rounds = 12

// openShare is the open-loop phases' share of the measured time. The tail
// quantile needs the samples; the closed-loop rates settle quickly.
const openShare = 0.75

// roundSeconds is one round's length.
func roundSeconds(opts Options) float64 { return opts.Seconds / rounds }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// openPerRound is the open-loop arrivals of one round. At the workloads'
// rates and the benchmark's run length a round holds at least 105
// requests, so its p90 has ten samples beyond it, and the pooled open loop
// at least 1260, so the printed p99 has twelve.
func openPerRound(spec servingSpec, opts Options, share float64) int {
	return max(1, int(math.Round(spec.rate*roundSeconds(opts)*share)))
}

// roundArrivals rebases round r's share of the run's arrival offsets to the
// round's own start.
func roundArrivals(all []time.Duration, r, per int) []time.Duration {
	out := append([]time.Duration(nil), all[r*per:(r+1)*per]...)
	if r > 0 {
		base := all[r*per-1]
		for i := range out {
			out[i] -= base
		}
	}
	return out
}

// phaseRounds is one kind of phase over all rounds: each round's window and
// the answers it produced.
type phaseRounds struct {
	name    string
	windows []*Phase
	recs    []*recorder
}

func newPhaseRounds(name string) *phaseRounds {
	p := &phaseRounds{name: name}
	for r := 0; r < rounds; r++ {
		p.recs = append(p.recs, &recorder{})
	}
	return p
}

func runServing(spec servingSpec, opts Options) (*Result, error) {
	if opts.Trace {
		return runServingTraced(spec, opts)
	}
	per := openPerRound(spec, opts, openShare)
	reps := setupReps
	if opts.Short {
		reps = 1
	}
	run, setupS, err := timedSetup(reps, func() (servingRun, error) {
		return setupServing(spec, opts, nil, rounds*per)
	}, func(r servingRun) { r.stack.close() })
	if err != nil {
		return nil, err
	}
	in := run.in
	arr := arrivals(opts.Seed, rounds*per, spec.rate)

	open, closed := newPhaseRounds("open-loop"), newPhaseRounds("closed-loop")
	used := 0 // closed-loop requests handed out so far
	for r := 0; r < rounds; r++ {
		open.windows = append(open.windows,
			openLoop(open.name, roundArrivals(arr, r, per), open.recs[r].do(run.stack, nil, in.open[r*per:], 0)))
		c := closedLoop(closed.name, spec.callers, seconds(roundSeconds(opts)*(1-openShare)), closed.recs[r].do(run.stack, nil, in.closed, used))
		used += int(c.Attempted)
		closed.windows = append(closed.windows, c)
	}
	run.stack.close()

	res, chk, err := checkServing(in, opts, []*phaseRounds{open, closed})
	if err != nil {
		return nil, err
	}
	var p50, p90, cpuPerReq, capacity, tokS []float64
	for r := 0; r < rounds; r++ {
		o, c := open.windows[r], closed.windows[r]
		p50 = append(p50, quantile(o.LatMs, 0.5))
		p90 = append(p90, quantile(o.LatMs, 0.9))
		cpuPerReq = append(cpuPerReq, ratio(float64(o.CPU)/1e6, float64(o.Attempted-o.Failed-chk[0][r])))
		capacity = append(capacity, float64(c.Attempted-c.Failed-chk[1][r])/c.Wall.Seconds())
		var computed int64
		for _, a := range closed.recs[r].answers {
			if a.resp != nil {
				computed += int64(a.resp.ComputedTokens)
			}
		}
		tokS = append(tokS, float64(computed)/c.Wall.Seconds())
	}
	printRounds("open-loop p50_ms", open.windows, func(w *Phase) float64 { return quantile(w.LatMs, 0.5) })
	printRounds("closed-loop capacity_rps", closed.windows, func(w *Phase) float64 { return float64(w.Attempted) / w.Wall.Seconds() })
	lat := mergeWindows(open.name, open.windows).LatMs
	fmt.Printf("open-loop latency_ms: n=%d p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f\n", len(lat),
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 1))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics = map[string]Metric{
		"setup_s":        {setupS, "s"},
		"p50_ms":         {median(p50), "ms"},
		"p90_ms":         {median(p90), "ms"},
		"capacity_rps":   {median(capacity), "req/s"},
		"cpu_ms_per_req": {median(cpuPerReq), "ms"},
		"prefill_tok_s":  {median(tokS), "tok/s"},
		"peak_rss_mb":    {rss, "MB"},
	}
	return res, nil
}

// checkServing checks every round's answers, prints each kind of phase's
// accounting and returns the result skeleton plus the check failures per
// kind and round. The reference re-ranking sample is spread over the rounds.
func checkServing(in *servingInputs, opts Options, kinds []*phaseRounds) (*Result, [][]int64, error) {
	chk, err := newChecker(in.ds, servedVariant, topK)
	if err != nil {
		return nil, nil, err
	}
	sample := referenceCheck
	if opts.Short {
		sample = 20
	}
	res := &Result{Correct: true}
	var failures [][]int64
	for k, pr := range kinds {
		var perRound []int64
		var total int64
		for r, rec := range pr.recs {
			failed, first := chk.checkAnswers(rec.answers, (sample+rounds-1)/rounds, opts.Seed+int64(k*rounds+r))
			if first != nil && res.Correct {
				fmt.Printf("phase %s: check failed: %v\n", pr.name, first)
				res.Correct = false
			}
			perRound = append(perRound, failed)
			total += failed
		}
		p := mergeWindows(pr.name, pr.windows)
		p.Print(opts.Seed, total)
		res.Attempted += p.Attempted
		res.Failed += p.Failed + total
		failures = append(failures, perRound)
	}
	return res, failures, nil
}

// runServingTraced is the traced run: rounds alternate an untraced and a
// traced open-loop window over the same plane, then the model layers are
// timed from outside. Counters, runtime statistics and spans cover the
// traced windows only. It prints the per-layer metrics.
func runServingTraced(spec servingSpec, opts Options) (*Result, error) {
	tr := newTracer()
	per := openPerRound(spec, opts, 0.5) // an untraced and a traced window per round
	run, err := setupServing(spec, opts, tr, rounds*per)
	if err != nil {
		return nil, err
	}
	in := run.in
	arr := arrivals(opts.Seed, rounds*per, spec.rate)

	plain, traced := newPhaseRounds("open-loop-untraced"), newPhaseRounds("open-loop-traced")
	var d counters
	var mem memSnap
	stages := newStagePoller(run.stack.rings())
	for r := 0; r < rounds; r++ {
		offsets := roundArrivals(arr, r, per)
		reqs := in.open[r*per:]
		plain.windows = append(plain.windows, openLoop(plain.name, offsets, plain.recs[r].do(run.stack, tr, reqs, 0)))
		c0, m0 := run.stack.counters(), readMem()
		stages.collect(true)
		tr.SetEnabled(true)
		traced.windows = append(traced.windows, openLoop(traced.name, offsets, traced.recs[r].do(run.stack, tr, reqs, 0)))
		tr.SetEnabled(false)
		stages.collect(false)
		c1, m1 := run.stack.counters(), readMem()
		d = d.plus(c1.minus(c0))
		mem = mem.plus(m1.minus(m0))
	}
	p, t := mergeWindows(plain.name, plain.windows), mergeWindows(traced.name, traced.windows)

	m := map[string]Metric{}
	ops := t.Attempted - t.Failed
	runtimeMetrics(m, mem, ops)
	stages.close()
	servingLayerMetrics(m, stages.stageMs, d)
	clusterLayerMetrics(m, tr.Spans(), d, ops)
	m["loadgen.max_late_ms"] = Metric{math.Max(p.MaxLateMs, t.MaxLateMs), "ms"}
	m["loadgen.trace_overhead_ms"] = Metric{quantile(t.LatMs, 0.5) - quantile(p.LatMs, 0.5), "ms"}
	if err := probeServingModel(m, in, opts.Short); err != nil {
		run.stack.close()
		return nil, err
	}
	run.stack.close()
	if err := tr.WriteFile(opts.SpanFile); err != nil {
		return nil, err
	}
	res, _, err := checkServing(in, opts, []*phaseRounds{plain, traced})
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// plus returns c + o (c minus the negation of o).
func (c counters) plus(o counters) counters {
	return c.minus(counters{}.minus(o))
}

func (c counters) minus(o counters) counters {
	return counters{
		requests: c.requests - o.requests, userPrefix: c.userPrefix - o.userPrefix, itemPrefix: c.itemPrefix - o.itemPrefix,
		reused: c.reused - o.reused, computed: c.computed - o.computed, deduped: c.deduped - o.deduped,
		batches: c.batches - o.batches, batchedRequests: c.batchedRequests - o.batchedRequests,
		rxBytes: c.rxBytes - o.rxBytes, txBytes: c.txBytes - o.txBytes, hedged: c.hedged - o.hedged,
		deltaStores: c.deltaStores - o.deltaStores, poolHits: c.poolHits - o.poolHits,
		poolMisses: c.poolMisses - o.poolMisses, evictions: c.evictions - o.evictions,
		affinityDecisions: c.affinityDecisions - o.affinityDecisions, failovers: c.failovers - o.failovers,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servingLayerMetrics reports the serving core's stage quantiles and the
// counters every serving plane exports.
func servingLayerMetrics(m map[string]Metric, stageMs func(stage string, q float64) float64, d counters) {
	ms := func(name, stage string, q float64) { m[name] = Metric{stageMs(stage, q), "ms"} }
	ms("serving.queue_ms.p50", serving.StageQueue, 0.5)
	ms("serving.queue_ms.p99", serving.StageQueue, 0.99)
	ms("serving.window_ms.p50", serving.StageWindow, 0.5)
	ms("serving.plan_ms.p50", serving.StagePlan, 0.5)
	ms("serving.execute_ms.p50", serving.StageExecute, 0.5)
	ms("serving.execute_ms.p99", serving.StageExecute, 0.99)
	ms("serving.commit_ms.p50", serving.StageCommit, 0.5)
	ms("serving.fetch_ms.p50", serving.StageFetch, 0.5)
	ms("serving.fetch_ms.p99", serving.StageFetch, 0.99)
	m["serving.batch_size.mean"] = Metric{ratio(d.batchedRequests, float64(d.batches)), "req"}
	m["serving.batches"] = Metric{float64(d.batches), "count"}
	m["scheduler.user_prefix_share"] = Metric{ratio(float64(d.userPrefix), float64(d.userPrefix+d.itemPrefix)), "ratio"}
	m["server.token_hit_rate"] = Metric{ratio(float64(d.reused), float64(d.reused+d.computed)), "ratio"}
	m["server.deduped_tokens"] = Metric{float64(d.deduped), "count"}
	m["bipartite.computed_tokens_per_req"] = Metric{ratio(float64(d.computed), float64(d.requests)), "tok/req"}
	m["bipartite.reused_tokens_per_req"] = Metric{ratio(float64(d.reused), float64(d.requests)), "tok/req"}
}
