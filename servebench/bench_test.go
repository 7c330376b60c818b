package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"argan/internal/graph"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := tailQuantile(seq(99), 0.9); ok {
		t.Fatal("p90 over 99 samples has only 9 beyond it, but was reported")
	}
	if v, ok := tailQuantile(seq(100), 0.9); !ok || v != 90 {
		t.Fatalf("p90 over 1..100 = %v, %v; want 90 with 10 beyond", v, ok)
	}
	if v, ok := tailQuantile(seq(200), 0.9); !ok || v != 180 {
		t.Fatalf("p90 over 1..200 = %v, %v; want 180", v, ok)
	}
	if _, ok := tailQuantile(nil, 0.5); ok {
		t.Fatal("a percentile of nothing was reported")
	}
	if n := samplesFor(0.9); n != 100 {
		t.Fatalf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.5); n != 20 {
		t.Fatalf("samplesFor(0.5) = %d, want 20", n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// inputs draws everything a workload sends for one seed: the source set, a
// client's first queries and a chain of edge batches.
func inputs(g *graph.Graph, seed int64) ([]int, []jobOp, []graph.MutationBatch) {
	sources := pickSources(g, rand.New(rand.NewSource(seed)), numSources)
	s := newOpStream(seed, 0, sources)
	var ops []jobOp
	for i := 0; i < 50; i++ {
		ops = append(ops, s.next())
	}
	r := rand.New(rand.NewSource(seed + 7919))
	var batches []graph.MutationBatch
	for i := 0; i < 4; i++ {
		b := drawBatch(g, r)
		batches = append(batches, b)
		next, _, err := g.ApplyMutations(b)
		if err != nil {
			panic(err)
		}
		g = next
	}
	return sources, ops, batches
}

func TestSameSeedSameInputs(t *testing.T) {
	g := graph.MustDataset("LJ", 0.05)
	s1, o1, b1 := inputs(g, 42)
	s2, o2, b2 := inputs(g, 42)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("one seed produced two different input sets")
	}
	s3, _, b3 := inputs(g, 43)
	if reflect.DeepEqual(s1, s3) && reflect.DeepEqual(b1, b3) {
		t.Fatal("two seeds produced the same inputs")
	}
}

func TestBatchesNameOnlyValidEdges(t *testing.T) {
	g := graph.MustDataset("LJ", 0.05)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		b := drawBatch(g, r)
		if len(b.Deletes) != batchHalf || len(b.Inserts) != batchHalf {
			t.Fatalf("batch has %d deletes, %d inserts", len(b.Deletes), len(b.Inserts))
		}
		for _, e := range b.Deletes {
			if !g.HasEdge(e.Src, e.Dst) {
				t.Fatalf("delete of absent edge %v", e)
			}
		}
		for _, e := range b.Inserts {
			if g.HasEdge(e.Src, e.Dst) || e.Src == e.Dst {
				t.Fatalf("insert of present edge or loop %v", e)
			}
		}
		next, _, err := g.ApplyMutations(b)
		if err != nil {
			t.Fatal(err)
		}
		g = next
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 3, Parent: 0},
		{Name: "b", Start: 2, End: 5, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 7, End: 12, Parent: 0}, // clipped to the root
		{Name: "leaf", Start: 3, End: 4, Parent: 2},
	}
	got := selfTimes(spans)
	want := []float64{10 - 4 - 3, 2, 2, 5, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestWorkloadsSmoke runs every workload briefly in both modes. Tail
// percentiles need more samples than a short window gives, so only they
// may be missing; every operation must pass its validity gates.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service over full-size datasets")
	}
	opts := runOpts{seconds: 0.3, restart: openTimed}
	tails := map[string]bool{"job_p90_ms": true, "serve.queue_wait_ms.p90": true}
	for _, name := range []string{"traverse", "pagerank", "churn"} {
		for _, mode := range []string{"untraced", "traced"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "run")
				run := untraced
				if mode == "traced" {
					run = traced
				}
				res, err := run(workloads[name], 1, opts, dir, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := map[string]bool{}
				for _, m := range metricNames(mode) {
					want[m] = true
					if _, ok := res.Metrics[m]; !ok && !tails[m] {
						t.Errorf("metric %s missing", m)
					}
				}
				for m := range res.Metrics {
					if !want[m] {
						t.Errorf("metric %s is not declared in BENCHMARK.json", m)
					}
				}
				if name == "churn" && mode == "traced" && res.Metrics["serve.incremental_share"].Value != 1 {
					t.Errorf("incremental share %v, want 1", res.Metrics["serve.incremental_share"].Value)
				}
			})
		}
	}
}

// metricNames lists the metrics BENCHMARK.json declares for a mode.
func metricNames(mode string) []string {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		panic(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		panic(err)
	}
	list := spec.EndToEnd
	if mode == "traced" {
		list = spec.PerLayer
	}
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	return out
}
