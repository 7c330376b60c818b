package gap

import (
	"fmt"
	"math"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
)

func TestLiveSSSPMatchesSequential(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 3000, M: 24000, Directed: true, Seed: 21, MaxW: 30})
	want := algorithms.SeqSSSP(g, 0)
	for _, mode := range []Mode{ModeGAP, ModeAPGC, ModeAPVC} {
		for _, n := range []int{1, 4, 8} {
			fs := frags(t, g, n)
			res, lm, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{Source: 0}, LiveConfig{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range want {
				if res.Values[v] != d {
					t.Fatalf("%v n=%d: dist[%d] = %v, want %v", mode, n, v, res.Values[v], d)
				}
			}
			if lm.Updates == 0 || lm.WallTime <= 0 {
				t.Fatalf("%v n=%d: empty live metrics %+v", mode, n, lm)
			}
			if n > 1 && lm.MsgsSent == 0 {
				t.Fatalf("%v n=%d: no messages exchanged", mode, n)
			}
		}
	}
}

func TestLivePageRankMatchesSequential(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 2000, M: 16000, Directed: true, Seed: 22})
	want := algorithms.SeqPageRank(g, 1e-4)
	fs := frags(t, g, 6)
	res, _, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range want {
		if math.Abs(res.Values[v]-r) > 0.02*(r+1) {
			t.Fatalf("pr[%d] = %v, want ~%v", v, res.Values[v], r)
		}
	}
}

// TestLiveMatchesOracleAcrossDrivers covers the one live evaluation path —
// serial pop-loop on each worker goroutine, pooled combining batches — under
// the asynchronous live driver at workers {1, 2, 4}: SSSP, BFS and WCC must
// equal their sequential oracles bit for bit, PageRank within 0.02·(w+1).
// CheckEvery 16 interleaves flushes and drains densely, so under -race this
// is also the pipeline's race stress test.
func TestLiveMatchesOracleAcrossDrivers(t *testing.T) {
	g := testGraph(true, 12)
	gu := testGraph(false, 15)
	wantSSSP := algorithms.SeqSSSP(g, 0)
	wantBFS := algorithms.SeqBFS(g, 0)
	for v, d := range wantBFS {
		if d < 0 {
			wantBFS[v] = math.MaxInt32 // the live program's unreachable sentinel
		}
	}
	wantWCC := algorithms.SeqWCC(gu)
	wantPR := algorithms.SeqPageRank(g, 1e-4)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("async/w%d", n), func(t *testing.T) {
			fs, fsu := frags(t, g, n), frags(t, gu, n)
			assertExact(t, "sssp", runAsync(t, fs, algorithms.NewSSSP(), ace.Query{Source: 0}), wantSSSP)
			assertExact(t, "bfs", runAsync(t, fs, algorithms.NewBFS(), ace.Query{Source: 0}), wantBFS)
			assertExact(t, "wcc", runAsync(t, fsu, algorithms.NewWCC(), ace.Query{}), wantWCC)
			pr := runAsync(t, fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4})
			for v, w := range wantPR {
				if math.Abs(pr[v]-w) > 0.02*(w+1) {
					t.Fatalf("pr[%d] = %v, want ~%v", v, pr[v], w)
				}
			}
		})
	}
}

// runAsync runs one query under the live driver and returns its values.
func runAsync[V any](t *testing.T, fs []*graph.Fragment, f ace.Factory[V], q ace.Query) []V {
	t.Helper()
	res, _, err := RunLive(fs, f, q, LiveConfig{Mode: ModeGAP, CheckEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

func assertExact[V comparable](t *testing.T, app string, got, want []V) {
	t.Helper()
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("%s[%d] = %v, want %v", app, v, got[v], w)
		}
	}
}

func TestLiveColorProper(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 1500, M: 12000, Directed: true, Seed: 23})
	want := algorithms.SeqColor(g)
	fs := frags(t, g, 5)
	res, _, err := RunLive(fs, algorithms.NewColor(), ace.Query{}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range want {
		if res.Values[v] != c {
			t.Fatalf("color[%d] = %d, want %d", v, res.Values[v], c)
		}
	}
}

func TestLiveCoreAndSim(t *testing.T) {
	gu := graph.PowerLaw(graph.GenConfig{N: 1200, M: 9000, Directed: false, Seed: 24})
	wantCore := algorithms.SeqCore(gu)
	res, _, err := RunLive(frags(t, gu, 4), algorithms.NewCore(), ace.Query{}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range wantCore {
		if res.Values[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, res.Values[v], c)
		}
	}

	gl := graph.KnowledgeBase(graph.GenConfig{N: 1000, M: 5000, Seed: 25, Labels: 8})
	pat := algorithms.RandomPattern(gl, 4, 5, 77)
	wantSim := algorithms.SeqSim(gl, pat)
	resS, _, err := RunLive(frags(t, gl, 4), algorithms.NewSim(), ace.Query{Pattern: pat}, LiveConfig{Mode: ModeGAP})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range wantSim {
		if resS.Values[v] != m {
			t.Fatalf("sim[%d] = %b, want %b", v, resS.Values[v], m)
		}
	}
}

func TestLiveRejectsBarrierModes(t *testing.T) {
	g := graph.Chain(10, true)
	fs := frags(t, g, 2)
	if _, _, err := RunLive(fs, algorithms.NewSSSP(), ace.Query{}, LiveConfig{Mode: ModeBSP}); err == nil {
		t.Fatal("want error for BSP under the live driver")
	}
	if _, _, err := RunLive(nil, algorithms.NewSSSP(), ace.Query{}, LiveConfig{Mode: ModeGAP}); err == nil {
		t.Fatal("want error for no fragments")
	}
}
