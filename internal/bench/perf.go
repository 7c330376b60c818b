package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/obs"
	"argan/internal/obs/crit"
)

// perfWorkers is the live worker count; the live driver spawns real
// goroutines, so unlike the sim sweeps this stays small.
const perfWorkers = 4

// PerfLiveResult is the measured live run.
type PerfLiveResult struct {
	WallMS   []float64 `json:"wall_ms"`
	BestMS   float64   `json:"best_ms"`
	Updates  int64     `json:"updates"`
	MsgsSent int64     `json:"msgs_sent"`
	Batches  int64     `json:"batches"`

	// Attribution maps bucket name (compute, wait, ...) to its fraction of
	// the total worker-time window, measured on one traced rep run after
	// the timed reps so the ring buffer never perturbs the wall-clock
	// numbers. Straggler is that rep's busiest worker.
	Attribution map[string]float64 `json:"attribution,omitempty"`
	Straggler   int                `json:"straggler"`
}

// PerfReport is the machine-readable result of the perf experiment,
// written to Options.JSONPath (BENCH_perf.json in CI).
type PerfReport struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Vertices   int     `json:"vertices"`
	Arcs       int     `json:"arcs"`
	Reps       int     `json:"reps"`

	Live      PerfLiveResult `json:"live"`
	SeqWallMS []float64      `json:"seq_wall_ms"`
	SeqBestMS float64        `json:"seq_best_ms"`
	// LiveSeqRatio is best live wall time over best SeqPageRank wall time
	// on the same graph in the same process: the run's COST, a ratio that
	// does not depend on the host's absolute speed. CI gates it.
	LiveSeqRatio float64 `json:"live_seq_ratio"`

	SSSPExact          bool    `json:"sssp_bit_identical"`
	PageRankMaxRelDiff float64 `json:"pagerank_max_rel_diff"`
	PageRankWithinTol  bool    `json:"pagerank_within_tolerance"`
}

// Perf benchmarks the live driver's hot path on the HW stand-in: async live
// PageRank at perfWorkers workers timed beside the sequential oracle
// (algorithms.SeqPageRank) on the same graph, reps interleaved so both see
// the same machine state. It also checks the live answers against the
// oracles — SSSP bit-identical to SeqSSSP, PageRank within 0.02·(w+1) of
// SeqPageRank — and fails on a violation. The report is rendered as a table
// and, when Options.JSONPath is set, written as JSON.
func Perf(o Options) error {
	o = o.withDefaults()
	g, err := graph.LoadDataset("HW", o.Scale)
	if err != nil {
		return err
	}
	env := core.Env{Workers: perfWorkers, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return err
	}
	reps := o.Queries
	if reps < 3 {
		reps = 3
	}
	prq := queryFor("pr", g, 0)
	cfg := gap.LiveConfig{Mode: gap.ModeGAP}

	rep := PerfReport{
		Experiment: "perf",
		Dataset:    "HW",
		Scale:      o.Scale,
		Workers:    perfWorkers,
		Vertices:   g.NumVertices(),
		Arcs:       g.NumEdges(),
		Reps:       reps,
	}
	fmt.Fprintf(o.Out, "== perf: async live PageRank over HW (|V|=%d, arcs=%d, n=%d, reps=%d) ==\n",
		g.NumVertices(), g.NumEdges(), perfWorkers, reps)

	r := &rep.Live
	var live *gap.Result[float64]
	var want []float64
	for k := 0; k < reps; k++ {
		res, lm, err := gap.RunLive(frags, algorithms.NewPageRank(), prq, cfg)
		if err != nil {
			return fmt.Errorf("perf live: %v", err)
		}
		live = res
		ms := float64(lm.WallTime) / float64(time.Millisecond)
		r.WallMS = append(r.WallMS, ms)
		r.BestMS = bestOf(r.BestMS, ms)
		r.Updates, r.MsgsSent, r.Batches = lm.Updates, lm.MsgsSent, lm.Batches

		t0 := time.Now()
		want = algorithms.SeqPageRank(g, prq.Eps)
		ms = float64(time.Since(t0)) / float64(time.Millisecond)
		rep.SeqWallMS = append(rep.SeqWallMS, ms)
		rep.SeqBestMS = bestOf(rep.SeqBestMS, ms)
	}
	rep.LiveSeqRatio = r.BestMS / rep.SeqBestMS

	// One extra traced rep attributes the window without contaminating
	// the timed reps above with recorder overhead.
	tcfg := cfg
	recorder := obs.NewRecorder(perfWorkers+1, 0)
	tcfg.Tracer = recorder
	if _, _, err := gap.RunLive(frags, algorithms.NewPageRank(), prq, tcfg); err != nil {
		return fmt.Errorf("perf live (traced): %v", err)
	}
	ar := crit.Analyze(recorder)
	r.Straggler = ar.Straggler
	if denom := float64(len(ar.Workers)) * ar.Wall; denom > 0 {
		r.Attribution = make(map[string]float64, crit.NumBuckets)
		for i, n := range crit.BucketNames() {
			r.Attribution[n] = ar.Totals[i] / denom
		}
	}

	fmt.Fprintf(o.Out, "%-16s %10s %12s %12s %10s\n", "run", "best ms", "updates", "msgs", "batches")
	fmt.Fprintf(o.Out, "%-16s %10.1f %12d %12d %10d\n", "live", r.BestMS, r.Updates, r.MsgsSent, r.Batches)
	fmt.Fprintf(o.Out, "%-16s %10.1f\n", "SeqPageRank", rep.SeqBestMS)
	if r.Attribution != nil {
		fmt.Fprintf(o.Out, "live attribution: compute=%.0f%% wait=%.0f%% (straggler: worker %d)\n",
			100*r.Attribution["compute"], 100*r.Attribution["wait"], r.Straggler)
	}
	fmt.Fprintf(o.Out, "live/seq wall ratio (COST): %.2f\n", rep.LiveSeqRatio)

	// Async PageRank parks sub-eps deltas in a schedule-dependent way, so
	// it matches the oracle only within the tolerance the live catalog
	// holds it to; SSSP (min-fold) reaches the same fixpoint under any
	// schedule, so its catalog relation is bit-identity.
	pr, err := core.LiveApp("pr")
	if err != nil {
		return err
	}
	rep.PageRankWithinTol = pr.Wrong(live.Values, want) == 0
	for v, w := range want {
		x := live.Values[v]
		if d := math.Abs(x-w) / math.Max(math.Max(math.Abs(x), math.Abs(w)), 1e-12); d > rep.PageRankMaxRelDiff {
			rep.PageRankMaxRelDiff = d
		}
	}
	fmt.Fprintf(o.Out, "PageRank within 0.02·(w+1) of SeqPageRank: %v (max rel diff %.3g)\n",
		rep.PageRankWithinTol, rep.PageRankMaxRelDiff)

	sssp, err := core.LiveApp("sssp")
	if err != nil {
		return err
	}
	sq := queryFor("sssp", g, 0)
	sres, err := sssp.Run(frags, sq, cfg)
	if err != nil {
		return err
	}
	rep.SSSPExact = sssp.Wrong(sres.Values, sssp.Reference(g, sq)) == 0
	fmt.Fprintf(o.Out, "SSSP bit-identical to SeqSSSP: %v\n", rep.SSSPExact)

	if !rep.SSSPExact || !rep.PageRankWithinTol {
		return fmt.Errorf("perf: live answers disagree with the sequential oracles (sssp_exact=%v pagerank_within_tol=%v)",
			rep.SSSPExact, rep.PageRankWithinTol)
	}
	if o.JSONPath != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.JSONPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "wrote %s\n", o.JSONPath)
	}
	return nil
}

// bestOf folds ms into a running minimum whose zero value means "none yet".
func bestOf(best, ms float64) float64 {
	if best == 0 || ms < best {
		return ms
	}
	return best
}
