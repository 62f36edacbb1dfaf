package main

import (
	"math/rand"

	"bat/internal/ranking"
	"bat/internal/serving"
	"bat/internal/workload"
)

// The serving workloads' input make-up (README.md lists it with the
// resulting plan shares and hit rates). Users outnumber the local plane's
// 256-entry user-cache budget several times over; histories of 32-160
// tokens against 16 three-token candidates make item tokens about a third
// of the prompt, and users with short histories still take item-as-prefix
// plans.
const (
	servingUsers    = 2000
	servingItems    = 1200
	historyMin      = 32
	historyMax      = 160
	itemAttrTokens  = 2
	candidatesPer   = 16
	userZipfA       = 0.9
	itemZipfA       = 1.08
	requestPoolSize = 60000 // closed-loop phases wrap around this many requests
	// corpusSeed fixes the dataset and model weights: the corpus is the
	// deployment, and the traffic sent to it follows --seed.
	corpusSeed = 1
)

// servingInputs is everything a serving workload feeds the program: the
// dataset (fixed) and the request sequences of each phase (from the seed).
type servingInputs struct {
	ds *ranking.Dataset
	// warm, open and closed are the warm-up, open-loop and closed-loop
	// request sequences.
	warm, open, closed []serving.RankRequest
}

func newServingInputs(seed int64, warm, open int) (*servingInputs, error) {
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "perfbench", Items: servingItems, Users: servingUsers, Clusters: 8, LatentDim: 8,
		HistoryMin: historyMin, HistoryMax: historyMax, ItemAttrTokens: itemAttrTokens,
		ClusterNoise: 0.15, Candidates: candidatesPer, HardNegatives: 4, Seed: corpusSeed,
	})
	if err != nil {
		return nil, err
	}
	users := workload.NewZipf(servingUsers, userZipfA)
	items := workload.NewZipf(servingItems, itemZipfA)
	// Popularity ranks map to ids through fixed permutations, so hotness is
	// not tied to how the dataset numbers users and items; who is popular
	// belongs to the corpus, which requests arrive to the seed.
	corpus := rand.New(rand.NewSource(corpusSeed))
	userOf := corpus.Perm(servingUsers)
	itemOf := corpus.Perm(servingItems)
	// Arrival times draw on the same seed; the xor keeps the two streams apart.
	rng := rand.New(rand.NewSource(seed ^ 0x7265717565737473))
	gen := func(n int) []serving.RankRequest {
		out := make([]serving.RankRequest, n)
		for i := range out {
			seen := make(map[int]bool, candidatesPer)
			cands := make([]int, 0, candidatesPer)
			for len(cands) < candidatesPer {
				it := itemOf[items.Rank(rng.Float64())-1]
				if !seen[it] {
					seen[it] = true
					cands = append(cands, it)
				}
			}
			out[i] = serving.RankRequest{UserID: userOf[users.Rank(rng.Float64())-1], CandidateIDs: cands}
		}
		return out
	}
	return &servingInputs{ds: ds, warm: gen(warm), open: gen(open), closed: gen(requestPoolSize)}, nil
}
