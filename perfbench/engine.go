package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bat/internal/bipartite"
	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/tensor"
)

// engine-prefill input make-up: paper-shaped BenchGR weights and prompts
// whose user and item token counts are about equal, as in the paper's
// datasets (user profiles of 1.2-2K tokens against 100 candidates of
// 10-18 tokens), scaled down so a packed execute stays well under a second
// in pure Go.
const (
	engineUsers      = 64
	engineItems      = 400
	engineHistoryMin = 24
	engineHistoryMax = 56
	engineCandidates = 12
	enginePool       = 16 // distinct layouts; every execute draws from them
	engineBatch      = 2  // layouts per packed execute
)

// engineRun is one set-up engine workload: weights and a layout pool with
// the prefix caches a serving plan would supply, both fixed like the serving
// corpus, and the seeded schedule of which layouts are packed together.
type engineRun struct {
	w       *model.Weights
	layouts []*bipartite.Layout
	caches  []bipartite.CacheSet
	items   [][]int
	rng     *rand.Rand
}

func setupEngine(opts Options) (*engineRun, error) {
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "perfbench-engine", Items: engineItems, Users: engineUsers, Clusters: 8, LatentDim: 8,
		HistoryMin: engineHistoryMin, HistoryMax: engineHistoryMax, ItemAttrTokens: itemAttrTokens,
		ClusterNoise: 0.15, Candidates: engineCandidates, HardNegatives: 4, Seed: corpusSeed,
	})
	if err != nil {
		return nil, err
	}
	e := &engineRun{
		w:   model.NewWeights(model.BenchGR(ds.VocabSize()), corpusSeed),
		rng: rand.New(rand.NewSource(opts.Seed)),
	}
	// The reference ranker only lays prompts out; its weights are unused.
	r := &ranking.Ranker{DS: ds}
	n := enginePool
	if opts.Short {
		n = engineBatch
	}
	// Exactly half of the pool is user-as-prefix.
	pool := rand.New(rand.NewSource(corpusSeed))
	kinds := make([]bipartite.PrefixKind, n)
	for i := range kinds {
		kinds[i] = bipartite.PrefixKind(i % 2)
	}
	pool.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, kind := range kinds {
		req := ranking.EvalRequest{User: pool.Intn(engineUsers), Candidates: pool.Perm(engineItems)[:engineCandidates]}
		l, err := r.BuildLayout(req, kind, false)
		if err != nil {
			return nil, err
		}
		e.layouts = append(e.layouts, l)
		e.caches = append(e.caches, planCaches(e.w, l))
		for _, it := range req.Candidates[:2] {
			e.items = append(e.items, ds.ItemTokens[it])
		}
	}
	// Warm-up: one packed execute brings the tensor pool and scratch
	// buffers to steady state.
	if _, _, err := e.execute(); err != nil {
		return nil, err
	}
	return e, nil
}

// execute runs the next seeded batch as one packed ExecuteBatch.
func (e *engineRun) execute() ([]int, []*bipartite.Run, error) {
	idx := make([]int, engineBatch)
	items := make([]bipartite.BatchItem, engineBatch)
	for i := range idx {
		idx[i] = e.rng.Intn(len(e.layouts))
		items[i] = bipartite.BatchItem{Layout: e.layouts[idx[i]], Caches: e.caches[idx[i]]}
	}
	runs, err := bipartite.ExecuteBatch(e.w, items)
	return idx, runs, err
}

// engineResult is one executed layout, kept for checking.
type engineResult struct {
	layout           int
	disc             []float32
	reused, computed int
}

// engineLoop executes packed batches back to back for d and records every
// layout's discriminant.
func (e *engineRun) loop(name string, d time.Duration, tr *Tracer) (*Phase, [][]engineResult) {
	var results [][]engineResult
	p := closedLoop(name, 1, d, func(int) error {
		var idx []int
		var runs []*bipartite.Run
		var err error
		tr.Do(context.Background(), "bipartite.execute_batch", func(context.Context) {
			idx, runs, err = e.execute()
		})
		if err != nil {
			results = append(results, nil)
			return err
		}
		out := make([]engineResult, len(runs))
		for i, r := range runs {
			out[i] = engineResult{layout: idx[i], disc: append([]float32(nil), r.Discriminant...), reused: r.ReusedTokens, computed: r.ComputedTokens}
		}
		results = append(results, out)
		return nil
	})
	return p, results
}

// checkEngine compares every executed discriminant with ForwardReference's
// over the full layout (MaxAbsDiff must be 0) and every run's token
// accounting with the layout length. It returns the failed executes.
func (e *engineRun) check(results [][]engineResult) (int64, error) {
	ref := make([][]float32, len(e.layouts))
	for i, l := range e.layouts {
		h := e.w.ForwardReference(l.Tokens, l.Pos, l.Mask(), nil)
		ref[i] = h.Row(l.DiscriminantIndex())
	}
	var failed int64
	var first error
	for _, batch := range results {
		var bad error
		for _, r := range batch {
			l := e.layouts[r.layout]
			if r.reused+r.computed != l.Len() {
				bad = fmt.Errorf("layout %d: reused %d + computed %d tokens, layout has %d", r.layout, r.reused, r.computed, l.Len())
			} else if diff := tensor.MaxAbsDiff(r.disc, ref[r.layout]); diff != 0 {
				bad = fmt.Errorf("layout %d: discriminant differs from the reference by %g", r.layout, diff)
			}
		}
		if bad != nil {
			failed++
			if first == nil {
				first = bad
			}
		}
	}
	return failed, first
}

func runEngine(opts Options) (*Result, error) {
	if opts.Trace {
		return runEngineTraced(opts)
	}
	reps := setupReps
	if opts.Short {
		reps = 1
	}
	e, setupS, err := timedSetup(reps, func() (*engineRun, error) { return setupEngine(opts) }, func(*engineRun) {})
	if err != nil {
		return nil, err
	}
	// The closed loop runs in rounds; rates are medians over the rounds,
	// latency quantiles pool every execute.
	var windows []*Phase
	var results [][]engineResult
	var capacity, cpuPerReq, tokS []float64
	for r := 0; r < rounds; r++ {
		w, res := e.loop("closed-loop", seconds(roundSeconds(opts)), nil)
		var layouts, computed int64
		for _, b := range res {
			for _, x := range b {
				layouts++
				computed += int64(x.computed)
			}
		}
		capacity = append(capacity, float64(layouts)/w.Wall.Seconds())
		cpuPerReq = append(cpuPerReq, ratio(float64(w.CPU)/1e6, float64(layouts)))
		tokS = append(tokS, float64(computed)/w.Wall.Seconds())
		windows = append(windows, w)
		results = append(results, res...)
	}
	phase := mergeWindows("closed-loop", windows)
	res, err := e.result(opts, []*Phase{phase}, [][][]engineResult{results})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics = map[string]Metric{
		"setup_s":        {setupS, "s"},
		"p50_ms":         {quantile(phase.LatMs, 0.5), "ms"},
		"p90_ms":         {quantile(phase.LatMs, 0.9), "ms"},
		"capacity_rps":   {median(capacity), "req/s"},
		"cpu_ms_per_req": {median(cpuPerReq), "ms"},
		"prefill_tok_s":  {median(tokS), "tok/s"},
		"peak_rss_mb":    {rss, "MB"},
	}
	return res, nil
}

// result checks every phase and prints its accounting.
func (e *engineRun) result(opts Options, phases []*Phase, results [][][]engineResult) (*Result, error) {
	res := &Result{Correct: true}
	for i, p := range phases {
		failed, first := e.check(results[i])
		if first != nil {
			fmt.Printf("phase %s: check failed: %v\n", p.Name, first)
			res.Correct = false
		}
		p.Print(opts.Seed, failed)
		res.Attempted += p.Attempted
		res.Failed += p.Failed + failed
	}
	return res, nil
}

// runEngineTraced alternates untraced and traced closed-loop windows, then
// times the model layers on the workload's own shapes. The serving, routing
// and pool layers do not run here and read zero.
func runEngineTraced(opts Options) (*Result, error) {
	tr := newTracer()
	e, err := setupEngine(opts)
	if err != nil {
		return nil, err
	}
	var plainW, tracedW []*Phase
	var plainRes, tracedRes [][]engineResult
	var mem memSnap
	for r := 0; r < rounds; r++ {
		w, res := e.loop("closed-loop-untraced", seconds(roundSeconds(opts)/2), tr)
		plainW, plainRes = append(plainW, w), append(plainRes, res...)
		m0 := readMem()
		tr.SetEnabled(true)
		w, res = e.loop("closed-loop-traced", seconds(roundSeconds(opts)/2), tr)
		tr.SetEnabled(false)
		mem = mem.plus(readMem().minus(m0))
		tracedW, tracedRes = append(tracedW, w), append(tracedRes, res...)
	}
	plain, traced := mergeWindows("closed-loop-untraced", plainW), mergeWindows("closed-loop-traced", tracedW)

	m := map[string]Metric{}
	var d counters
	for _, b := range tracedRes {
		for _, r := range b {
			d.requests++
			d.reused += int64(r.reused)
			d.computed += int64(r.computed)
			if e.layouts[r.layout].Kind == bipartite.UserPrefix {
				d.userPrefix++
			} else {
				d.itemPrefix++
			}
		}
	}
	runtimeMetrics(m, mem, d.requests)
	servingLayerMetrics(m, func(string, float64) float64 { return 0 }, d)
	clusterLayerMetrics(m, nil, counters{}, d.requests)
	m["loadgen.max_late_ms"] = Metric{0, "ms"}
	m["loadgen.trace_overhead_ms"] = Metric{quantile(traced.LatMs, 0.5) - quantile(plain.LatMs, 0.5), "ms"}
	flops := 1e9
	if opts.Short {
		flops = 1e8
	}
	probeSet{w: e.w, layouts: e.layouts, caches: e.caches, items: e.items, flops: flops}.run(m)
	if err := tr.WriteFile(opts.SpanFile); err != nil {
		return nil, err
	}
	res, err := e.result(opts, []*Phase{plain, traced}, [][][]engineResult{plainRes, tracedRes})
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}
