package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsShort runs a shortened form of every workload, untraced and
// traced, with every answer check on, and requires zero failed operations
// and exactly the metrics BENCHMARK.json declares.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			opts := Options{Workload: name, Seed: 3, Seconds: 1, Trace: trace, Short: true,
				SpanFile: filepath.Join(t.TempDir(), "spans.jsonl")}
			res, err := workloads[name](opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for k, unit := range want {
				if got, ok := res.Metrics[k]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, k, got, unit)
				}
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestCheckerRejectsWrongAnswers feeds the checker a real answer, then the
// same answer with a wrong ranking and with a wrong token count.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	in, err := newServingInputs(5, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildLocal(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	chk, err := newChecker(in.ds, servedVariant, topK)
	if err != nil {
		t.Fatal(err)
	}
	req := in.open[0]
	resp, err := st.rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := chk.checkAnswers([]answer{{req, resp}}, 1, 1); n != 0 {
		t.Fatalf("a served answer failed its checks: %v", err)
	}

	swapped := *resp
	swapped.Ranking = append([]int(nil), resp.Ranking...)
	swapped.Ranking[0], swapped.Ranking[1] = swapped.Ranking[1], swapped.Ranking[0]
	if n, _ := chk.checkAnswers([]answer{{req, &swapped}}, 1, 1); n != 1 {
		t.Error("a wrong ranking passed the reference check")
	}

	miscounted := *resp
	miscounted.ComputedTokens++
	if n, _ := chk.checkAnswers([]answer{{req, &miscounted}}, 1, 1); n != 1 {
		t.Error("a wrong token count passed the property check")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "routing.handle", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "routing.proxy", Start: 2e6, End: 5e6},
		{ID: 3, Parent: 1, Name: "routing.proxy", Start: 4e6, End: 6e6},
		{ID: 4, Parent: 9, Name: "routing.proxy", Start: 0, End: 10e6},
	}
	got := selfTimes(spans, "routing.handle")
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("self time %v, want [6]", got)
	}
}
