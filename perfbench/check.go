package main

import (
	"fmt"
	"math/rand"

	"bat/internal/bipartite"
	"bat/internal/ranking"
	"bat/internal/serving"
)

// checker verifies serving answers apart from the serving path: its
// reference ranker is built by the benchmark from the dataset and the
// variant the plane serves, and re-ranks with the token-at-a-time reference
// engine over the full layout, with no caches.
type checker struct {
	ref  *ranking.Ranker
	topK int
}

func newChecker(ds *ranking.Dataset, v ranking.ModelVariant, topK int) (*checker, error) {
	r, err := ranking.NewRanker(ds, v)
	if err != nil {
		return nil, err
	}
	return &checker{ref: r, topK: topK}, nil
}

func prefixKind(s string) (bipartite.PrefixKind, error) {
	switch s {
	case bipartite.UserPrefix.String():
		return bipartite.UserPrefix, nil
	case bipartite.ItemPrefix.String():
		return bipartite.ItemPrefix, nil
	}
	return 0, fmt.Errorf("answer reports prefix %q", s)
}

// properties checks what every answer must satisfy: not degraded; min(TopK,
// |candidates|) distinct ids, all from the request; and reused plus
// computed tokens equal to the length of the layout for the prefix kind the
// answer reports.
func (c *checker) properties(req serving.RankRequest, resp *serving.RankResponse) error {
	if resp == nil {
		return fmt.Errorf("no answer")
	}
	if resp.Degraded {
		return fmt.Errorf("degraded answer (%s)", resp.DegradeReason)
	}
	want := min(c.topK, len(req.CandidateIDs))
	if len(resp.Ranking) != want {
		return fmt.Errorf("ranking holds %d ids, want %d", len(resp.Ranking), want)
	}
	inReq := make(map[int]bool, len(req.CandidateIDs))
	for _, id := range req.CandidateIDs {
		inReq[id] = true
	}
	seen := make(map[int]bool, len(resp.Ranking))
	for _, id := range resp.Ranking {
		if !inReq[id] {
			return fmt.Errorf("ranked id %d is not a candidate", id)
		}
		if seen[id] {
			return fmt.Errorf("ranked id %d twice", id)
		}
		seen[id] = true
	}
	kind, err := prefixKind(resp.Prefix)
	if err != nil {
		return err
	}
	layout, err := c.ref.BuildLayout(evalRequest(req), kind, false)
	if err != nil {
		return err
	}
	if got := resp.ReusedTokens + resp.ComputedTokens; got != layout.Len() {
		return fmt.Errorf("reused %d + computed %d tokens, layout has %d", resp.ReusedTokens, resp.ComputedTokens, layout.Len())
	}
	return nil
}

// reference re-ranks the request with ForwardReference over the full layout
// of the answer's prefix kind and requires the identical top-K.
func (c *checker) reference(req serving.RankRequest, resp *serving.RankResponse) error {
	kind, err := prefixKind(resp.Prefix)
	if err != nil {
		return err
	}
	er := evalRequest(req)
	layout, err := c.ref.BuildLayout(er, kind, false)
	if err != nil {
		return err
	}
	h := c.ref.W.ForwardReference(layout.Tokens, layout.Pos, layout.Mask(), nil)
	ranked := c.ref.ScoreDiscriminant(er, h.Row(layout.DiscriminantIndex()))
	for i, id := range resp.Ranking {
		if want := req.CandidateIDs[ranked[i]]; id != want {
			return fmt.Errorf("rank %d is item %d, reference says %d", i, id, want)
		}
	}
	return nil
}

func evalRequest(req serving.RankRequest) ranking.EvalRequest {
	return ranking.EvalRequest{User: req.UserID, Candidates: req.CandidateIDs}
}

// answer is one operation's outcome, kept for checking after the timed
// phases.
type answer struct {
	req  serving.RankRequest
	resp *serving.RankResponse
}

// checkAnswers checks every answer's properties and re-ranks a seeded sample
// of sample answers with the reference engine. It returns the number of
// operations that failed a check and the first failure seen. Answers with a
// nil response already failed (and were counted) when they ran.
func (c *checker) checkAnswers(answers []answer, sample int, seed int64) (int64, error) {
	var failed int64
	var first error
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	var ok []int
	for i, a := range answers {
		if a.resp == nil {
			continue
		}
		if err := c.properties(a.req, a.resp); err != nil {
			note(fmt.Errorf("user %d: %w", a.req.UserID, err))
			continue
		}
		ok = append(ok, i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	if len(ok) > sample {
		ok = ok[:sample]
	}
	for _, i := range ok {
		a := answers[i]
		if err := c.reference(a.req, a.resp); err != nil {
			note(fmt.Errorf("user %d: %w", a.req.UserID, err))
		}
	}
	return failed, first
}
