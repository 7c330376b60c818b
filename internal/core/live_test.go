package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"argan/internal/ace"
	"argan/internal/gap"
	"argan/internal/graph"
)

// liveChurn draws a ~1% batch against g: half deletes of existing arcs,
// half fresh inserts.
func liveChurn(g *graph.Graph, seed int64) graph.MutationBatch {
	r := rand.New(rand.NewSource(seed))
	k := g.NumEdges() / 200
	if k < 1 {
		k = 1
	}
	var b graph.MutationBatch
	seen := map[[2]graph.VID]bool{}
	n := g.NumVertices()
	for len(b.Deletes) < k {
		u := graph.VID(r.Intn(n))
		adj := g.OutNeighbors(u)
		if len(adj) == 0 {
			continue
		}
		v := adj[r.Intn(len(adj))]
		if seen[[2]graph.VID{u, v}] {
			continue
		}
		seen[[2]graph.VID{u, v}] = true
		b.Deletes = append(b.Deletes, graph.Edge{Src: u, Dst: v})
	}
	for len(b.Inserts) < k {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]graph.VID{u, v}] {
			continue
		}
		seen[[2]graph.VID{u, v}] = true
		b.Inserts = append(b.Inserts, graph.Edge{Src: u, Dst: v, W: float64(1 + r.Intn(9))})
	}
	return b
}

// corrupt returns a copy of vals with vertex i set to x.
func corrupt[V any](vals []V, i int, x V) []V {
	c := append([]V(nil), vals...)
	c[i] = x
	return c
}

// handChecksum sums the outputs in vertex order, dropping the +Inf and
// MaxInt32 "unreachable" terms.
func handChecksum(t *testing.T, vals any) float64 {
	var sum float64
	switch vs := vals.(type) {
	case []float64:
		for _, v := range vs {
			if !math.IsInf(v, 1) {
				sum += v
			}
		}
	case []int32:
		for _, v := range vs {
			if v != math.MaxInt32 {
				sum += float64(v)
			}
		}
	case []uint32:
		for _, v := range vs {
			sum += float64(v)
		}
	default:
		t.Fatalf("unexpected value type %T", vals)
	}
	return sum
}

func TestLiveCatalog(t *testing.T) {
	g := graph.PowerLaw(graph.GenConfig{N: 1500, M: 9000, Directed: true, Seed: 13, MaxW: 20})
	frags, err := Env{Workers: 2}.Fragments(g)
	if err != nil {
		t.Fatal(err)
	}
	q := ace.Query{Source: 0, Eps: 1e-3}
	cfg := gap.LiveConfig{Mode: gap.ModeGAP}

	// A reachable non-source vertex and an unreachable one, from the
	// traversal reference.
	bfs, err := LiveApp("bfs")
	if err != nil {
		t.Fatal(err)
	}
	hops := bfs.Reference(g, q).([]int32)
	reach, unreach := -1, -1
	for v, d := range hops {
		if d > 0 && reach < 0 {
			reach = v
		}
		if d < 0 && unreach < 0 {
			unreach = v
		}
	}
	if reach < 0 || unreach < 0 {
		t.Fatalf("test graph needs reachable and unreachable vertices (got %d, %d)", reach, unreach)
	}

	b := liveChurn(g, 5)
	ng, _, err := g.ApplyMutations(b)
	if err != nil {
		t.Fatal(err)
	}
	touched := b.Endpoints()
	nfrags, _, err := graph.UpdateFragments(frags, ng, touched)
	if err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, app := range LiveApps() {
		names = append(names, app.Name())
		t.Run(app.Name(), func(t *testing.T) {
			if got, err := LiveApp(app.Name()); err != nil || got != app {
				t.Fatalf("LiveApp(%q) = %v, %v", app.Name(), got, err)
			}
			if !app.CanIncrement() {
				t.Fatal("every live app must support warm re-convergence")
			}
			cold, err := app.Run(frags, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := app.Reference(g, q)
			if w := app.Wrong(cold.Values, want); w != 0 {
				t.Fatalf("cold run: %d wrong vertices", w)
			}
			if !app.Holds(cold.Values) || !app.Holds(cold.Psi) {
				t.Fatalf("Holds rejects the app's own arrays (%T, %T)", cold.Values, cold.Psi)
			}
			if got, hand := cold.Checksum, handChecksum(t, cold.Values); got != hand {
				t.Fatalf("checksum %v, hand-computed %v", got, hand)
			}

			// One corrupted vertex is exactly one wrong one, and the app's
			// sentinel and tolerance edges land on the right side.
			switch vals := cold.Values.(type) {
			case []float64:
				w := want.([]float64)
				if app.Name() == "pr" {
					tol := 0.02 * (w[reach] + 1)
					if n := app.Wrong(corrupt(vals, reach, w[reach]+1.01*tol), want); n != 1 {
						t.Fatalf("value just outside the tolerance: %d wrong, want 1", n)
					}
					if n := app.Wrong(corrupt(vals, reach, w[reach]+0.99*tol), want); n != 0 {
						t.Fatalf("value just inside the tolerance: %d wrong, want 0", n)
					}
				} else if n := app.Wrong(corrupt(vals, reach, w[reach]+1), want); n != 1 {
					t.Fatalf("one corrupted distance: %d wrong, want 1", n)
				}
				if app.Holds([]int32{}) || app.Holds([]uint32{}) {
					t.Fatal("Holds accepts a foreign array type")
				}
			case []int32:
				if n := app.Wrong(corrupt(vals, reach, math.MaxInt32), want); n != 1 {
					t.Fatalf("reachable vertex at MaxInt32: %d wrong, want 1", n)
				}
				if vals[unreach] != math.MaxInt32 {
					t.Fatalf("unreachable vertex holds %d, want MaxInt32", vals[unreach])
				}
				if n := app.Wrong(corrupt(vals, unreach, math.MaxInt32), want); n != 0 {
					t.Fatalf("unreachable vertex left at MaxInt32: %d wrong, want 0", n)
				}
				if n := app.Wrong(corrupt(vals, unreach, 3), want); n != 1 {
					t.Fatalf("unreachable vertex given a distance: %d wrong, want 1", n)
				}
			case []uint32:
				if n := app.Wrong(corrupt(vals, reach, vals[reach]+1), want); n != 1 {
					t.Fatalf("one corrupted label: %d wrong, want 1", n)
				}
			}

			ws, err := app.Plan(g, ng, touched, cold.Values, cold.Psi, q)
			if err != nil {
				t.Fatal(err)
			}
			wq := q
			wq.Warm = ws
			warm, err := app.Run(nfrags, wq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w := app.Wrong(warm.Values, app.Reference(ng, q)); w != 0 {
				t.Fatalf("warm run after a %d-op churn batch: %d wrong vertices", b.Size(), w)
			}
		})
	}
	if strings.Join(names, ",") != "pr,sssp,bfs,wcc" {
		t.Fatalf("catalog order %v", names)
	}
	if _, err := LiveApp("color"); err == nil || !strings.Contains(err.Error(), "does not run under the live driver") {
		t.Fatalf("LiveApp(color) error = %v", err)
	}
}
