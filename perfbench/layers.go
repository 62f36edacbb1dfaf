package main

import (
	"math/rand"
	"time"

	"bat/internal/bipartite"
	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/tensor"
)

// planCaches returns the prefix caches a serving plan would supply for l:
// the user cache of a user-prefix layout, or every candidate's item cache
// of an item-prefix one, computed exactly as a miss would compute them.
func planCaches(w *model.Weights, l *bipartite.Layout) bipartite.CacheSet {
	if l.Kind == bipartite.UserPrefix {
		return bipartite.CacheSet{User: bipartite.ComputeUserCache(w, l.Tokens[:l.PrefixLen])}
	}
	items := make(map[int]*model.KVCache)
	for _, seg := range l.ItemSegments() {
		items[seg.Item] = bipartite.ComputeItemCacheAt(w, l.Tokens[seg.Start:seg.Start+seg.Len], seg.PosStart)
	}
	return bipartite.CacheSet{Items: items}
}

// probeSet is a workload's own shapes for the outside layer timings.
type probeSet struct {
	w       *model.Weights
	layouts []*bipartite.Layout
	caches  []bipartite.CacheSet
	// items are item token sequences whose cache computation is timed.
	items [][]int
	// flops is the multiply-add budget of the GEMM timing.
	flops float64
}

// run times tensor.MatMul at the model's widest per-layer projection over
// the layouts' median length, Weights.Forward over whole layouts,
// ComputeItemCache, solo bipartite.Execute with plan caches, and the BKV2
// codec on the plan caches.
func (p probeSet) run(m map[string]Metric) {
	cfg := p.w.Config()
	var lens []float64
	for _, l := range p.layouts {
		lens = append(lens, float64(l.Len()))
	}
	rows, k := int(median(lens)), cfg.Hidden
	cols := max(cfg.FFNDim, cfg.Heads*cfg.HeadDim)
	rng := rand.New(rand.NewSource(1))
	fill := func(mx *tensor.Matrix) *tensor.Matrix {
		for i := range mx.Data {
			mx.Data[i] = float32(rng.NormFloat64())
		}
		return mx
	}
	a, b, dst := fill(tensor.NewMatrix(rows, k)), fill(tensor.NewMatrix(k, cols)), tensor.NewMatrix(rows, cols)
	perCall := 2 * float64(rows*k*cols)
	reps := max(3, int(p.flops/perCall))
	start := time.Now()
	for i := 0; i < reps; i++ {
		tensor.MatMul(dst, a, b)
	}
	m["tensor.matmul_gflops"] = Metric{perCall * float64(reps) / time.Since(start).Seconds() / 1e9, "GFLOP/s"}

	tokens := 0
	start = time.Now()
	for _, l := range p.layouts {
		p.w.Forward(l.Tokens, l.Pos, l.Mask(), model.NewKVCache(cfg))
		tokens += l.Len()
	}
	m["model.forward_tok_s"] = Metric{float64(tokens) / time.Since(start).Seconds(), "tok/s"}

	var solo []float64
	for i, l := range p.layouts {
		t0 := time.Now()
		if _, err := bipartite.Execute(p.w, l, p.caches[i]); err == nil {
			solo = append(solo, ms(time.Since(t0)))
		}
	}
	m["bipartite.solo_execute_ms.p50"] = Metric{median(solo), "ms"}

	var itemMs []float64
	for _, it := range p.items {
		t0 := time.Now()
		bipartite.ComputeItemCache(p.w, it)
		itemMs = append(itemMs, ms(time.Since(t0)))
	}
	m["bipartite.item_cache_ms.p50"] = Metric{median(itemMs), "ms"}

	// The codec passes run over every plan cache at once, several times, so
	// that the small item caches are not timed one microsecond at a time.
	var caches []*model.KVCache
	for _, cs := range p.caches {
		if cs.User != nil {
			caches = append(caches, cs.User)
		}
		for _, c := range cs.Items {
			caches = append(caches, c)
		}
	}
	const codecReps = 20
	encoded := make([][]byte, len(caches))
	start = time.Now()
	for r := 0; r < codecReps; r++ {
		for i, c := range caches {
			encoded[i], _ = c.MarshalBinary() // a failed encode leaves nil: no bytes, a decode that fails at once
		}
	}
	enc := time.Since(start)
	bytes := 0
	for _, e := range encoded {
		bytes += len(e)
	}
	start = time.Now()
	for r := 0; r < codecReps; r++ {
		for _, e := range encoded {
			_ = model.NewKVCache(cfg).UnmarshalBinary(e) // the encode pass already counted these bytes
		}
	}
	dec := time.Since(start)
	mb := float64(bytes*codecReps) / 1e6
	m["model.codec_encode_mb_s"] = Metric{ratio(mb, enc.Seconds()), "MB/s"}
	m["model.codec_decode_mb_s"] = Metric{ratio(mb, dec.Seconds()), "MB/s"}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeServingModel times the serving planes' ranking model on the
// workload's first requests, each laid out under the scheduler's token rule
// (user-as-prefix when the user has at least as many tokens as the items).
func probeServingModel(m map[string]Metric, in *servingInputs, short bool) error {
	r, err := ranking.NewRanker(in.ds, servedVariant)
	if err != nil {
		return err
	}
	n := 64
	if short {
		n = 8
	}
	p := probeSet{w: r.W, flops: 2e8}
	for _, req := range in.open[:min(n, len(in.open))] {
		er := evalRequest(req)
		userTokens, itemTokens := len(in.ds.UserHistory[req.UserID]), 0
		for _, it := range req.CandidateIDs {
			itemTokens += len(in.ds.ItemTokens[it])
			p.items = append(p.items, in.ds.ItemTokens[it])
		}
		kind := bipartite.ItemPrefix
		if userTokens >= itemTokens {
			kind = bipartite.UserPrefix
		}
		l, err := r.BuildLayout(er, kind, false)
		if err != nil {
			return err
		}
		p.layouts = append(p.layouts, l)
		p.caches = append(p.caches, planCaches(r.W, l))
	}
	p.run(m)
	return nil
}
