package main

import (
	"math"
	"math/rand"

	"argan/internal/algorithms"
	"argan/internal/graph"
)

// Every input the benchmark sends is drawn from the workload seed: query
// sources, the order of apps, and the edge batches. The service only ever
// sees the generated requests.

// traverseApps are the short traversal queries of the traverse workload.
var traverseApps = []string{"sssp", "bfs", "wcc"}

// numSources is the size of the seeded source set of the traverse workload.
const numSources = 8

// batchHalf is the number of deletes (and of inserts) in one edge batch.
const batchHalf = 32

// pickSources draws k distinct vertices with out-edges from g, so that every
// traversal from them does real work.
func pickSources(g *graph.Graph, r *rand.Rand, k int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		v := r.Intn(g.NumVertices())
		if seen[v] || g.OutDegree(graph.VID(v)) == 0 {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// jobOp is one traverse query.
type jobOp struct {
	App    string
	Source int
}

// opStream yields one client's traverse queries: the three apps round-robin
// in a seeded order, each from a seeded pick of the source set.
type opStream struct {
	r       *rand.Rand
	apps    []string
	sources []int
	i       int
}

func newOpStream(seed int64, client int, sources []int) *opStream {
	r := rand.New(rand.NewSource(seed*1000 + int64(client) + 1))
	apps := make([]string, len(traverseApps))
	for i, p := range r.Perm(len(traverseApps)) {
		apps[i] = traverseApps[p]
	}
	return &opStream{r: r, apps: apps, sources: sources}
}

func (s *opStream) next() jobOp {
	op := jobOp{App: s.apps[s.i%len(s.apps)], Source: s.sources[s.r.Intn(len(s.sources))]}
	s.i++
	return op
}

// drawBatch builds one edge batch against g: batchHalf deletes of present
// arcs and batchHalf inserts of absent ones, no arc named twice. It reads g
// only, so a client can draw from its own mirror of the served graph.
func drawBatch(g *graph.Graph, r *rand.Rand) graph.MutationBatch {
	n := g.NumVertices()
	seen := map[[2]graph.VID]bool{}
	var b graph.MutationBatch
	for len(b.Deletes) < batchHalf {
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
	for len(b.Inserts) < batchHalf {
		u, v := graph.VID(r.Intn(n)), graph.VID(r.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]graph.VID{u, v}] {
			continue
		}
		seen[[2]graph.VID{u, v}] = true
		b.Inserts = append(b.Inserts, graph.Edge{Src: u, Dst: v, W: float64(1 + r.Intn(100))})
	}
	return b
}

// expectation is the benchmark's own answer to one query: the checksum the
// service must report, computed from the benchmark's copy of the graph with
// the sequential oracle, and the tolerance PageRank's ε-convergence allows.
type expectation struct {
	checksum, tol float64
}

func (e expectation) matches(got float64) bool { return math.Abs(got-e.checksum) <= e.tol }

// expect computes the expected checksum of one query over g, summing the
// per-vertex values in vertex order exactly as the service does, so that the
// exact apps must match bit for bit.
func expect(g *graph.Graph, app string, source int, eps float64) expectation {
	var e expectation
	switch app {
	case "sssp":
		for _, d := range algorithms.SeqSSSP(g, graph.VID(source)) {
			if !math.IsInf(d, 1) {
				e.checksum += d
			}
		}
	case "bfs":
		for _, d := range algorithms.SeqBFS(g, graph.VID(source)) {
			if d >= 0 {
				e.checksum += float64(d)
			}
		}
	case "wcc":
		for _, c := range algorithms.SeqWCC(g) {
			e.checksum += float64(c)
		}
	case "pr":
		for _, x := range algorithms.SeqPageRank(g, eps) {
			e.checksum += x
		}
		// The service accepts each vertex within 2% of (rank+1); the sum
		// inherits that bound.
		e.tol = 0.02 * (e.checksum + float64(g.NumVertices()))
	}
	return e
}
