package core

import (
	"fmt"
	"math"
	"strings"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/gap"
	"argan/internal/graph"
)

// The live-app catalog: every application the live driver serves is
// declared here exactly once — its ACE program factory, its incremental
// planner, its sequential reference, the relation a live answer must hold
// to that reference, and its contribution to a result checksum. The
// service, the arganrun soak and the live experiments all reach an app
// through this table, so adding a live app means adding one entry.

// LiveRun is one finished live execution: the global-vertex Output and Ψ
// views (slices of the app's value type), the driver metrics, and the
// checksum of the outputs.
type LiveRun struct {
	Values  any
	Psi     any
	Metrics *gap.LiveMetrics
	// Checksum sums the outputs in vertex order; unreachable vertices
	// (SSSP +Inf, BFS MaxInt32) contribute 0.
	Checksum float64
}

// LiveEntry is the value-type-erased view of one catalog entry. Arrays cross
// it as `any` holding a slice of the app's value type.
type LiveEntry interface {
	Name() string
	// CanIncrement reports whether the program can re-converge from a
	// retained fixpoint (ace.CanIncrement).
	CanIncrement() bool
	// Run executes the program under the live driver; q.Warm, when set by
	// Plan, makes it a warm re-convergence.
	Run(frags []*graph.Fragment, q ace.Query, cfg gap.LiveConfig) (*LiveRun, error)
	// Plan adjusts a fixpoint computed on oldG for the churn between oldG
	// and newG (touched: endpoints of the mutated arcs) and returns the
	// warm state for Query.Warm, shape-checked against newG.
	Plan(oldG, newG *graph.Graph, touched []graph.VID, values, psi any, q ace.Query) (any, error)
	// Reference is the sequential answer on g.
	Reference(g *graph.Graph, q ace.Query) any
	// Wrong counts the vertices of values that do not match want.
	Wrong(values, want any) int
	// Holds reports whether arr is a slice of the app's value type — the
	// check a decoded snapshot array must pass before it seeds a warm start.
	Holds(arr any) bool
}

type liveApp[V any] struct {
	name    string
	factory ace.Factory[V]
	plan    func(oldG, newG *graph.Graph, touched []graph.VID, values, psi []V, q ace.Query) *ace.WarmState[V]
	ref     func(g *graph.Graph, q ace.Query) []V
	eq      func(got, want V) bool
	term    func(V) float64
}

var liveApps = []LiveEntry{
	&liveApp[float64]{
		name:    "pr",
		factory: algorithms.NewPageRank(),
		plan: func(oldG, newG *graph.Graph, touched []graph.VID, ranks, psi []float64, q ace.Query) *ace.WarmState[float64] {
			return algorithms.WarmPageRank(oldG, newG, touched, psi, ranks, q.Eps)
		},
		ref: func(g *graph.Graph, q ace.Query) []float64 { return algorithms.SeqPageRank(g, q.Eps) },
		// Async PageRank parks sub-eps deltas in a schedule-dependent way,
		// so it matches the oracle only within a tolerance.
		eq:   func(got, want float64) bool { return math.Abs(got-want) <= 0.02*(want+1) },
		term: func(v float64) float64 { return v },
	},
	&liveApp[float64]{
		name:    "sssp",
		factory: algorithms.NewSSSP(),
		plan: func(oldG, newG *graph.Graph, touched []graph.VID, dist, _ []float64, q ace.Query) *ace.WarmState[float64] {
			return algorithms.WarmSSSP(oldG, newG, touched, dist, q.Source)
		},
		ref: func(g *graph.Graph, q ace.Query) []float64 { return algorithms.SeqSSSP(g, q.Source) },
		eq:  func(got, want float64) bool { return got == want },
		term: func(v float64) float64 {
			if math.IsInf(v, 1) {
				return 0
			}
			return v
		},
	},
	&liveApp[int32]{
		name:    "bfs",
		factory: algorithms.NewBFS(),
		plan: func(oldG, newG *graph.Graph, touched []graph.VID, dist, _ []int32, q ace.Query) *ace.WarmState[int32] {
			return algorithms.WarmBFS(oldG, newG, touched, dist, q.Source)
		},
		ref: func(g *graph.Graph, q ace.Query) []int32 { return algorithms.SeqBFS(g, q.Source) },
		eq: func(got, want int32) bool {
			if want < 0 { // SeqBFS marks unreachable -1; the engine leaves Init's MaxInt32
				return got == math.MaxInt32
			}
			return got == want
		},
		term: func(v int32) float64 {
			if v == math.MaxInt32 {
				return 0
			}
			return float64(v)
		},
	},
	&liveApp[uint32]{
		name:    "wcc",
		factory: algorithms.NewWCC(),
		plan: func(oldG, newG *graph.Graph, touched []graph.VID, labels, _ []uint32, _ ace.Query) *ace.WarmState[uint32] {
			return algorithms.WarmWCC(oldG, newG, touched, labels)
		},
		ref:  func(g *graph.Graph, _ ace.Query) []uint32 { return algorithms.SeqWCC(g) },
		eq:   func(got, want uint32) bool { return got == want },
		term: func(v uint32) float64 { return float64(v) },
	},
}

// LiveApps lists the live catalog in a fixed order: pr, sssp, bfs, wcc —
// the order the incremental experiment has always measured (and written
// BENCH_incremental.json) in.
func LiveApps() []LiveEntry { return liveApps }

// LiveApp resolves an application name to its catalog entry.
func LiveApp(name string) (LiveEntry, error) {
	names := make([]string, len(liveApps))
	for i, a := range liveApps {
		if a.Name() == name {
			return a, nil
		}
		names[i] = a.Name()
	}
	last := len(names) - 1
	return nil, fmt.Errorf("app %q does not run under the live driver (want %s or %s)",
		name, strings.Join(names[:last], ", "), names[last])
}

func (a *liveApp[V]) Name() string { return a.name }

func (a *liveApp[V]) CanIncrement() bool { return ace.CanIncrement(a.factory()) }

func (a *liveApp[V]) Run(frags []*graph.Fragment, q ace.Query, cfg gap.LiveConfig) (*LiveRun, error) {
	res, lm, err := gap.RunLive(frags, a.factory, q, cfg)
	if err != nil {
		return nil, err
	}
	out := &LiveRun{Values: res.Values, Psi: res.Psi, Metrics: lm}
	for _, v := range res.Values {
		out.Checksum += a.term(v)
	}
	return out, nil
}

func (a *liveApp[V]) Plan(oldG, newG *graph.Graph, touched []graph.VID, values, psi any, q ace.Query) (any, error) {
	p, _ := psi.([]V) // only PageRank's planner reads Ψ
	ws := a.plan(oldG, newG, touched, values.([]V), p, q)
	if err := ws.Validate(newG.NumVertices()); err != nil {
		return nil, err
	}
	return ws, nil
}

func (a *liveApp[V]) Reference(g *graph.Graph, q ace.Query) any { return a.ref(g, q) }

func (a *liveApp[V]) Wrong(values, want any) int {
	got, w := values.([]V), want.([]V)
	wrong := 0
	for i := range w {
		if !a.eq(got[i], w[i]) {
			wrong++
		}
	}
	return wrong
}

func (a *liveApp[V]) Holds(arr any) bool {
	_, ok := arr.([]V)
	return ok
}
