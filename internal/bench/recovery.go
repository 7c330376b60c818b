package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"argan/internal/ace"
	"argan/internal/core"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
)

// recWorkers is the live worker count of the recovery experiment.
const recWorkers = 4

// RecoveryModeResult is the measured cost of surviving one mid-run crash.
// The report keeps it in a list (with mode "local") so the file's shape is
// stable across revisions.
type RecoveryModeResult struct {
	Mode          string  `json:"mode"`
	Reps          int     `json:"reps"`
	Updates       []int64 `json:"updates"`
	UpdatesMedian float64 `json:"updates_median"`
	// LostWorkRatio is (median updates - fault-free updates) / fault-free
	// updates: the fraction of the computation redone because of the crash.
	LostWorkRatio float64   `json:"lost_work_ratio"`
	RecoveryMS    []float64 `json:"recovery_ms"`
	// RecoveryMSMedian is the median staging-to-respawn latency.
	RecoveryMSMedian float64 `json:"recovery_ms_median"`
	ReplayedTotal    int64   `json:"replayed_total"`
	CrashesTotal     int64   `json:"crashes_total"`
	RecoveriesTotal  int64   `json:"recoveries_total"`
}

// RecoveryReport is the machine-readable result of the recovery experiment,
// written to Options.JSONPath (BENCH_recovery.json in CI).
type RecoveryReport struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Vertices   int     `json:"vertices"`
	Arcs       int     `json:"arcs"`

	// BaselineUpdates is the fault-free update count U0 the lost-work
	// ratios are measured against (median over reps).
	BaselineUpdates float64 `json:"baseline_updates"`
	// CrashAfterUpdates is the victim's update-count trigger — an
	// update-count trigger (not a wall-clock one) keeps the crash point
	// machine-independent.
	CrashAfterUpdates int64 `json:"crash_after_updates"`

	Modes []RecoveryModeResult `json:"modes"`

	// WrongTotal counts vertices outside SeqPageRank's tolerance, summed
	// over every baseline and faulted run. It must be 0.
	WrongTotal int `json:"wrong_total"`
}

func medianI64(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

func medianF64(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Recovery measures what one mid-run crash costs: async live PageRank on the
// HW stand-in, a deterministic update-count-triggered crash of one worker,
// and the redone work (total updates over the fault-free baseline) plus the
// staging-to-respawn latency. The checks are validity checks, not
// performance bars: every run must match SeqPageRank, every faulted rep must
// crash exactly once and recover, and the restores must have replayed
// logged messages. The experiment fails (after writing its JSON) when any
// of them does not hold.
func Recovery(o Options) error {
	o = o.withDefaults()
	g, err := graph.LoadDataset("HW", o.Scale)
	if err != nil {
		return err
	}
	env := core.Env{Workers: recWorkers, Hetero: o.Hetero}
	frags, err := env.Fragments(g)
	if err != nil {
		return err
	}
	reps := o.Queries
	if reps < 3 {
		reps = 3
	}
	app, err := core.LiveApp("pr")
	if err != nil {
		return err
	}
	prq := ace.Query{Eps: 1e-3}
	want := app.Reference(g, prq)
	cfgBase := gap.LiveConfig{
		Mode:            gap.ModeGAP,
		CheckEvery:      16,
		CheckpointEvery: 15 * 1e6, // 15ms: several checkpoints per run
	}

	rep := RecoveryReport{
		Experiment: "recovery",
		Dataset:    "HW",
		Scale:      o.Scale,
		Workers:    recWorkers,
		Vertices:   g.NumVertices(),
		Arcs:       g.NumEdges(),
	}
	var failures []string

	// Fault-free baseline: the update count every faulted run is charged
	// against.
	var base []int64
	for k := 0; k < reps; k++ {
		run, err := app.Run(frags, prq, cfgBase)
		if err != nil {
			return fmt.Errorf("recovery baseline: %v", err)
		}
		base = append(base, run.Metrics.Updates)
		if w := app.Wrong(run.Values, want); w > 0 {
			rep.WrongTotal += w
			failures = append(failures, fmt.Sprintf("baseline rep %d: %d wrong vertices", k, w))
		}
	}
	rep.BaselineUpdates = medianI64(base)
	// Crash one worker mid-computation: roughly half-way through its share
	// of the baseline updates.
	rep.CrashAfterUpdates = int64(rep.BaselineUpdates / float64(recWorkers) / 2)
	if rep.CrashAfterUpdates < 1 {
		rep.CrashAfterUpdates = 1
	}
	plan := &fault.Plan{Crashes: []fault.Crash{
		{Worker: 1, AfterUpdates: rep.CrashAfterUpdates, Restart: 10},
	}}

	fmt.Fprintf(o.Out, "== recovery: one crash during async live PageRank over HW (|V|=%d, arcs=%d, n=%d, reps=%d) ==\n",
		g.NumVertices(), g.NumEdges(), recWorkers, reps)
	fmt.Fprintf(o.Out, "fault-free updates (median): %.0f; crash: worker 1 after %d updates, restart 10ms\n",
		rep.BaselineUpdates, rep.CrashAfterUpdates)
	fmt.Fprintf(o.Out, "%14s %12s %12s %10s %8s\n",
		"updates(med)", "lost-work", "recov ms", "replayed", "wrong")

	r := RecoveryModeResult{Mode: "local", Reps: reps}
	cfg := cfgBase
	cfg.Faults = plan
	cfg.HeartbeatTimeout = 40 * 1e6 // 40ms
	for k := 0; k < reps; k++ {
		run, err := app.Run(frags, prq, cfg)
		if err != nil {
			return fmt.Errorf("recovery rep %d: %v", k, err)
		}
		lm := run.Metrics
		r.Updates = append(r.Updates, lm.Updates)
		r.RecoveryMS = append(r.RecoveryMS, lm.RecoveryMS)
		r.ReplayedTotal += lm.Replayed
		r.CrashesTotal += lm.Crashes
		r.RecoveriesTotal += lm.Recoveries
		if lm.Crashes != 1 || lm.Recoveries < 1 {
			failures = append(failures, fmt.Sprintf("rep %d: crashes=%d recoveries=%d, want 1 and >= 1", k, lm.Crashes, lm.Recoveries))
		}
		if w := app.Wrong(run.Values, want); w > 0 {
			rep.WrongTotal += w
			failures = append(failures, fmt.Sprintf("rep %d: %d wrong vertices", k, w))
		}
	}
	if r.ReplayedTotal == 0 {
		failures = append(failures, "no rep replayed a logged message")
	}
	r.UpdatesMedian = medianI64(r.Updates)
	r.LostWorkRatio = (r.UpdatesMedian - rep.BaselineUpdates) / rep.BaselineUpdates
	r.RecoveryMSMedian = medianF64(r.RecoveryMS)
	rep.Modes = []RecoveryModeResult{r}
	fmt.Fprintf(o.Out, "%14.0f %11.1f%% %12.2f %10d %8d\n",
		r.UpdatesMedian, 100*r.LostWorkRatio, r.RecoveryMSMedian, r.ReplayedTotal, rep.WrongTotal)

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
	if len(failures) > 0 {
		return fmt.Errorf("recovery: %s", strings.Join(failures, "; "))
	}
	return nil
}
