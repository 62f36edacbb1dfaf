package main

import (
	"context"
	"time"

	"bat/internal/server"
	"bat/internal/serving"
)

// localSpec is the single-node batserve plane driven through
// server.Server.RankCtx: no socket on the path, so the serving core and the
// packed execute of the ranking model carry the work.
var localSpec = servingSpec{
	rate:    150, // a seventh of the plane's closed-loop capacity on 2 cores
	callers: 16,  // two full batches (default MaxBatch 8): one queued while one executes
	warm:    1500,
	build:   buildLocal,
}

func runLocal(opts Options) (*Result, error) { return runServing(localSpec, opts) }

type localStack struct {
	srv *server.Server
	tr  *Tracer
}

// buildLocal configures the server the way cmd/batserve does by default.
// The tracer, when set, records a span around each RankCtx call.
func buildLocal(in *servingInputs, tr *Tracer) (servingStack, error) {
	srv, err := server.New(server.Config{
		Dataset:         in.ds,
		Variant:         servedVariant,
		PrecomputeItems: true,
		BatchWindow:     2 * time.Millisecond,
		WindowPolicy:    serving.WindowAdaptive,
		MaxBatch:        8,
		TraceRing:       128,
		Partition:       "static",
	})
	if err != nil {
		return nil, err
	}
	return &localStack{srv: srv, tr: tr}, nil
}

func (s *localStack) rank(ctx context.Context, req serving.RankRequest) (resp *serving.RankResponse, err error) {
	s.tr.Do(ctx, "server.rank", func(ctx context.Context) { resp, err = s.srv.RankCtx(ctx, req) })
	return resp, err
}

func (s *localStack) counters() counters {
	st := s.srv.Stats()
	return counters{
		requests: st.Requests, userPrefix: st.UserPrefix, itemPrefix: st.ItemPrefix,
		reused: st.ReusedTokens, computed: st.ComputedTokens, deduped: st.DedupedTokens,
		batches: st.Batches, batchedRequests: st.AvgBatchSize * float64(st.Batches),
	}
}

func (s *localStack) rings() []*serving.TraceRing {
	return []*serving.TraceRing{s.srv.Observer().Ring()}
}

func (s *localStack) close() { s.srv.Close() }
