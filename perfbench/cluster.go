package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"bat/internal/admission"
	"bat/internal/distserve"
	"bat/internal/routing"
	"bat/internal/serving"
)

// clusterSpec sends the local trace shape into routing.Router.Handler in
// process. The router fronts two frontends over one meta service and three
// cache workers, all on loopback HTTP, so routing, the transfer engine, the
// workers and meta carry most of the work.
var clusterSpec = servingSpec{
	rate: 70, // under a fifth of the cluster's closed-loop capacity on 2 cores
	// Four callers stay clear of a frontend's degrade depth (4 queued) even
	// if affinity sends all of them to one frontend.
	callers: 4,
	warm:    1000,
	build:   buildCluster,
}

// clusterWorkerBytes is each cache worker's capacity. Three workers at RF 2
// hold about 300 of the 2000 users' caches, below the trace's working set,
// so after warm-up stores and evictions balance and the pool hit rate stays
// flat.
const (
	clusterWorkers     = 3
	clusterFrontends   = 2
	clusterWorkerBytes = 4 << 20
)

func runCluster(opts Options) (*Result, error) { return runServing(clusterSpec, opts) }

type clusterStack struct {
	handler   http.Handler // the router's handler, as the generator calls it
	router    *routing.Router
	frontends []*distserve.Frontend
	guards    []*distserve.PoolGuard
	workers   []*distserve.CacheWorker
	servers   []*httptest.Server
}

// buildCluster configures the planes the way cmd/batdist and cmd/batrouter
// do by default (RF 2, write-behind stores, hedged reads, pool guard and
// scrubber, the evict->unregister hook), except for the worker capacity.
// With a tracer, every handler is wrapped in timing middleware and the
// router and frontends get instrumented clients; the instrumented frontend
// client keeps the default bound of Transfer.Timeout.
func buildCluster(in *servingInputs, tr *Tracer) (servingStack, error) {
	s := &clusterStack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	serve := func(h http.Handler, name func(*http.Request) string) *httptest.Server {
		if tr != nil {
			h = tr.Handler(h, name)
		}
		srv := httptest.NewServer(h)
		s.servers = append(s.servers, srv)
		return srv
	}
	const timeout = 2 * time.Second // batdist -transfer-timeout

	meta := distserve.NewMetaServer(300, nil)
	metaSrv := serve(meta.Handler(), constName("distserve.meta.handle"))
	var workerURLs []string
	for i := 0; i < clusterWorkers; i++ {
		cw, err := distserve.NewCacheWorker(clusterWorkerBytes)
		if err != nil {
			return nil, err
		}
		cw.SetEvictHook(unregisterHook(metaSrv.URL, i, timeout))
		s.workers = append(s.workers, cw)
		workerURLs = append(workerURLs, serve(cw.Handler(), workerSpanName).URL)
	}

	var frontURLs []string
	for i := 0; i < clusterFrontends; i++ {
		var client *http.Client
		if tr != nil {
			client = &http.Client{Timeout: timeout, Transport: tr.Transport(http.DefaultTransport, poolCallName(metaSrv.URL))}
		}
		f, err := distserve.NewFrontend(distserve.FrontendConfig{
			Dataset:      in.ds,
			Variant:      servedVariant,
			MetaURL:      metaSrv.URL,
			CacheWorkers: workerURLs,
			Client:       client,
			Transfer: distserve.TransferConfig{
				Timeout:          timeout,
				MaxRetries:       2,
				BreakerThreshold: 5,
				BreakerCooldown:  2 * time.Second,
				FetchConcurrency: 16,
				StoreQueueDepth:  256,
				StoreWorkers:     2,
				HedgeQuantile:    0.99,
			},
			Replication:       2,
			CloseFlushTimeout: 2 * time.Second,
			Admission: admission.Config{
				MaxInFlight:       4,
				MaxQueue:          8,
				DefaultDeadline:   5 * time.Second,
				DegradeQueueDepth: 4,
			},
			BatchWindow:  2 * time.Millisecond,
			WindowPolicy: serving.WindowAdaptive,
			MaxBatch:     8,
			TraceRing:    128,
		})
		if err != nil {
			return nil, err
		}
		s.frontends = append(s.frontends, f)
		g := distserve.NewPoolGuard(f, distserve.PoolGuardConfig{
			ProbeInterval: 500 * time.Millisecond,
			RepairHot:     16,
			ScrubInterval: 2 * time.Second,
		})
		g.Start()
		s.guards = append(s.guards, g)
		frontURLs = append(frontURLs, serve(f.Handler(), constName("distserve.frontend.handle")).URL)
	}

	routerClient := &http.Client{Timeout: 10 * time.Second}
	if tr != nil {
		routerClient.Transport = tr.Transport(http.DefaultTransport, constName("routing.proxy"))
	}
	r, err := routing.NewRouter(routing.RouterConfig{
		Frontends: frontURLs,
		Seed:      1,
		Admission: admission.Config{
			MaxInFlight:     16,
			MaxQueue:        32,
			DefaultDeadline: 5 * time.Second,
		},
		Client:       routerClient,
		PollInterval: 500 * time.Millisecond,
		FailAfter:    2,
	})
	if err != nil {
		return nil, err
	}
	s.router = r
	s.handler = r.Handler()
	if tr != nil {
		s.handler = tr.Handler(s.handler, constName("routing.handle"))
	}
	ok = true
	return s, nil
}

// unregisterHook is cmd/batdist's evict->unregister hook: a worker's
// eviction drops the meta binding so /v1/locate never reports it.
func unregisterHook(metaURL string, worker int, timeout time.Duration) func(string) {
	client := &http.Client{Timeout: timeout}
	return func(key string) {
		kind, id, err := distserve.ParseCacheKey(key)
		if err != nil {
			return
		}
		body, err := json.Marshal(distserve.RegisterRequest{EntryRef: distserve.EntryRef{Kind: kind, ID: id}, Worker: worker})
		if err != nil {
			return
		}
		resp, err := client.Post(metaURL+"/v1/unregister", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}
}

func constName(n string) func(*http.Request) string { return func(*http.Request) string { return n } }

func isKV(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/kv/") }

func workerSpanName(r *http.Request) string {
	switch {
	case isKV(r) && r.Method == http.MethodGet:
		return "distserve.worker.get"
	case isKV(r) && (r.Method == http.MethodPut || r.Method == http.MethodPatch):
		return "distserve.worker.store"
	}
	return "distserve.worker.other"
}

// poolCallName names a frontend client call by its target and kind.
func poolCallName(metaURL string) func(*http.Request) string {
	metaHost := strings.TrimPrefix(metaURL, "http://")
	return func(r *http.Request) string {
		switch {
		case r.URL.Host == metaHost:
			return "distserve.client.meta"
		case isKV(r) && r.Method == http.MethodGet:
			return "distserve.client.kv_get"
		case isKV(r) && (r.Method == http.MethodPut || r.Method == http.MethodPatch):
			return "distserve.client.kv_store"
		}
		return "distserve.client.other"
	}
}

func (s *clusterStack) rank(ctx context.Context, req serving.RankRequest) (*serving.RankResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.handler.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("router answered %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
	}
	var resp serving.RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	return &resp, nil
}

func (s *clusterStack) counters() counters {
	var c counters
	for _, f := range s.frontends {
		st := f.Stats()
		c.requests += st.Requests
		c.userPrefix += st.UserPrefix
		c.itemPrefix += st.ItemPrefix
		c.reused += st.ReusedTokens
		c.computed += st.ComputedTokens
		c.deduped += st.DedupedTokens
		c.batches += st.Batches
		c.batchedRequests += st.AvgBatchSize * float64(st.Batches)
		c.rxBytes += st.RxBytes
		c.txBytes += st.TxBytes
		c.hedged += st.HedgedFetches
		c.deltaStores += st.DeltaStores
	}
	for _, w := range s.workers {
		st := w.Stats()
		c.poolHits += st.Hits
		c.poolMisses += st.Misses
		c.evictions += st.Evictions
	}
	rs := s.router.Stats()
	c.affinityDecisions = rs.Decisions[routing.CacheAffinity{}.Name()]
	c.failovers = rs.Failovers
	return c
}

func (s *clusterStack) rings() []*serving.TraceRing {
	var out []*serving.TraceRing
	for _, f := range s.frontends {
		out = append(out, f.Observer().Ring())
	}
	return out
}

// clusterLayerMetrics emits the routing, distserve and kvcache metrics; on
// a plane without those layers there are no such spans and the counters
// are zero, so they read zero.
func clusterLayerMetrics(m map[string]Metric, spans []Span, d counters, ops int64) {
	perOp := func(v float64) float64 { return ratio(v, float64(ops)) }
	p := func(name string, match func(string) bool, q float64) {
		m[name] = Metric{quantile(durations(spans, match), q), "ms"}
	}
	m["routing.self_ms.p50"] = Metric{median(selfTimes(spans, "routing.handle")), "ms"}
	m["routing.affinity_decisions"] = Metric{float64(d.affinityDecisions), "count"}
	m["routing.failovers"] = Metric{float64(d.failovers), "count"}
	m["distserve.pool_calls_per_req"] = Metric{perOp(float64(len(durations(spans, prefixed("distserve.client."))))), "call/req"}
	m["distserve.rx_kb_per_req"] = Metric{perOp(float64(d.rxBytes) / 1024), "KB/req"}
	m["distserve.tx_kb_per_req"] = Metric{perOp(float64(d.txBytes) / 1024), "KB/req"}
	m["distserve.hedged_fetches"] = Metric{float64(d.hedged), "count"}
	m["distserve.delta_stores"] = Metric{float64(d.deltaStores), "count"}
	p("distserve.kv_get_ms.p50", named("distserve.client.kv_get"), 0.5)
	p("distserve.kv_get_ms.p99", named("distserve.client.kv_get"), 0.99)
	p("distserve.meta_ms.p50", named("distserve.client.meta"), 0.5)
	p("distserve.worker.get_ms.p50", named("distserve.worker.get"), 0.5)
	p("distserve.meta.handle_ms.p50", named("distserve.meta.handle"), 0.5)
	p("distserve.kv_store_ms.p50", named("distserve.client.kv_store"), 0.5)
	p("distserve.worker.store_ms.p50", named("distserve.worker.store"), 0.5)
	m["kvcache.pool_hit_rate"] = Metric{ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses)), "ratio"}
	m["kvcache.evictions"] = Metric{float64(d.evictions), "count"}
}

// close stops the router, the pool guards and the frontends (flushing
// queued stores), then the servers.
func (s *clusterStack) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, g := range s.guards {
		g.Stop()
	}
	for _, f := range s.frontends {
		f.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}
