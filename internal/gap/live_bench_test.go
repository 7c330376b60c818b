package gap

import (
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/graph"
	"argan/internal/partition"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return graph.PowerLaw(graph.GenConfig{N: 4000, M: 24_000, Directed: true, Seed: 21, MaxW: 20})
}

func benchFrags(b *testing.B, g *graph.Graph, n int) []*graph.Fragment {
	b.Helper()
	fs, err := partition.Partition(g, partition.Hash{}, n)
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkFragmentBuild measures partitioning a mid-size graph into four
// fragments — the fixed setup cost every live run pays.
func BenchmarkFragmentBuild(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(g, partition.Hash{}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalEval measures one worker's f_step sweep through the serial
// pop-loop on an identical re-seeded active set each iteration.
func BenchmarkLocalEval(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 4)
	st := newLiveState(0, fs[0], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, &batchPool[float64]{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
			st.active.Push(l)
		}
		for !st.active.Empty() {
			st.prog.Update(st.ctx, st.active.Pop())
		}
		for j := range st.out {
			if msgs := st.takeOut(j); msgs != nil {
				st.pool.put(msgs)
			}
		}
	}
}

// BenchmarkFlushIngest measures the flush → transport → h_in round trip
// between two workers through the pooled batch pipeline.
func BenchmarkFlushIngest(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 2)
	pool := &batchPool[float64]{}
	s0 := newLiveState(0, fs[0], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, pool)
	s1 := newLiveState(1, fs[1], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, pool)
	// Drain the InitialSync payloads so iterations start clean.
	for j := range s0.out {
		s0.takeOut(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint32(0); int(l) < s0.frag.NumOwned(); l++ {
			for _, r := range s0.frag.ReplicasOut(l) {
				s0.enqueue(int(r), l, s0.frag.Global(l), 0.5)
			}
		}
		msgs := s0.takeOut(1)
		if msgs == nil {
			b.Fatal("no cross-fragment traffic; enlarge the bench graph")
		}
		s1.ingest(msgs)
		pool.put(msgs)
	}
}

// BenchmarkCombiner measures outgoing coalescing: enqueueing the same
// border vertices repeatedly, which the dense slot index folds in place.
func BenchmarkCombiner(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 2)
	st := newLiveState(0, fs[0], algorithms.NewPageRank()(), ace.Query{Eps: 1e-4}, &batchPool[float64]{})
	for j := range st.out {
		st.takeOut(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < 8; rep++ {
			for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
				for _, r := range st.frag.ReplicasOut(l) {
					st.enqueue(int(r), l, st.frag.Global(l), 0.25)
				}
			}
		}
		for j := range st.out {
			if msgs := st.takeOut(j); msgs != nil {
				st.pool.put(msgs)
			}
		}
	}
}

// BenchmarkRunLivePageRank is the end-to-end run the perf experiment times:
// the async live driver over four workers.
func BenchmarkRunLivePageRank(b *testing.B) {
	g := benchGraph(b)
	fs := benchFrags(b, g, 4)
	cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunLive(fs, algorithms.NewPageRank(), ace.Query{Eps: 1e-4}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
