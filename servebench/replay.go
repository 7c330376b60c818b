package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/core"
	"argan/internal/durable"
	"argan/internal/fixpoint"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/serve"
)

// The layer replay re-runs a workload's seeded operations through each
// layer's public functions, one span per call, so the traced run can split
// the end-to-end times by layer. It covers every layer on every workload's
// graph: the per-layer metric set is the same for all workloads.

const (
	replayBatches = 8 // the first edge batches of the workload's seeded stream
	replayReps    = 3 // runs per app for the gap and oracle timings
)

var allApps = []string{"sssp", "bfs", "wcc", "pr"}

// replayOut holds the counts recorded beside the replay spans.
type replayOut struct {
	updates, msgs map[string][]float64 // per app, at the workload's worker count
	fixpointPR    float64              // fixpoint.Run updates for pr
	rebuilt       []float64            // fragments rebuilt per batch
	walBytes      []float64            // WAL bytes per batch
	snapshotMS    float64
	recoverMS     float64
}

// liveConfig mirrors the engine configuration the service gives every job.
func liveConfig() gap.LiveConfig {
	return gap.LiveConfig{Mode: gap.ModeGAP, Recovery: gap.RecoveryLocal, NoEdgeSpill: true}
}

// fragWorkers is the set of partitions the service caches for a workload:
// the preloaded MaxWorkersPerJob one and the jobs' own worker count. Every
// mutation updates each of them.
func (b *bench) fragWorkers() []int {
	if b.w.workers == serviceCores {
		return []int{serviceCores}
	}
	return []int{serviceCores, b.w.workers}
}

// runApp runs one live job over frags and returns its output and Ψ views
// plus its metrics.
func runApp(app string, frags []*graph.Fragment, q ace.Query) (vals, psi any, lm *gap.LiveMetrics, err error) {
	switch app {
	case "sssp":
		return live(frags, algorithms.NewSSSP(), q)
	case "bfs":
		return live(frags, algorithms.NewBFS(), q)
	case "wcc":
		return live(frags, algorithms.NewWCC(), q)
	default:
		return live(frags, algorithms.NewPageRank(), q)
	}
}

func live[V any](frags []*graph.Fragment, f ace.Factory[V], q ace.Query) (any, any, *gap.LiveMetrics, error) {
	r, m, err := gap.RunLive(frags, f, q, liveConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return r.Values, r.Psi, m, nil
}

func oracle(g *graph.Graph, app string, src graph.VID) {
	switch app {
	case "sssp":
		algorithms.SeqSSSP(g, src)
	case "bfs":
		algorithms.SeqBFS(g, src)
	case "wcc":
		algorithms.SeqWCC(g)
	default:
		algorithms.SeqPageRank(g, prEps)
	}
}

// replay runs the layer replay under tr, adding its counts to out.
func (b *bench) replay(tr *tracer, out *replayOut) error {
	out.updates, out.msgs = map[string][]float64{}, map[string][]float64{}
	w := b.w

	// Set-up layers: generate+freeze, then partition.
	op := tr.newOp()
	root := tr.newRoot("replay.setup", op)
	info, ok := graph.DatasetInfo(w.dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %s", w.dataset)
	}
	tr.timed("graph.load", root.i, op, func() { info.Build(w.scale).Freeze() })
	frags := map[int][]*graph.Fragment{}
	for _, n := range b.fragWorkers() {
		var err error
		tr.timed("core.fragments", root.i, op, func() { frags[n], err = core.Env{Workers: n}.Fragments(b.base) })
		if err != nil {
			return err
		}
	}
	root.end()

	// Engine and oracle per app on the base graph: the workload's worker
	// count, one worker (for the COST ratio) and the sequential oracle.
	frags1, err := core.Env{Workers: 1}.Fragments(b.base)
	if err != nil {
		return err
	}
	for _, app := range allApps {
		for rep := 0; rep < replayReps; rep++ {
			src := graph.VID(b.sources[rep%len(b.sources)])
			q := ace.Query{Source: src, Eps: prEps}
			op := tr.newOp()
			root := tr.newRoot("replay.query", op)
			tr.timed("algorithms.oracle."+app, root.i, op, func() { oracle(b.base, app, src) })
			var lm *gap.LiveMetrics
			tr.timed("gap.run."+app, root.i, op, func() { _, _, lm, err = runApp(app, frags[w.workers], q) })
			if err != nil {
				return err
			}
			out.updates[app] = append(out.updates[app], float64(lm.Updates))
			out.msgs[app] = append(out.msgs[app], float64(lm.MsgsSent))
			tr.timed("gap.run_1w."+app, root.i, op, func() { _, _, _, err = runApp(app, frags1, q) })
			if err != nil {
				return err
			}
			root.end()
		}
	}
	op = tr.newOp()
	var fpUpdates int64
	tr.timed("fixpoint.run.pr", -1, op, func() {
		_, fpUpdates, err = fixpoint.Run(b.base, algorithms.NewPageRank(), ace.Query{Eps: prEps})
	})
	if err != nil {
		return err
	}
	out.fixpointPR = float64(fpUpdates)

	// The write path, batch by batch as the service runs it (check, apply,
	// freeze, copy-on-write fragments, WAL append+fsync), then the
	// incremental read path over each new version.
	wal, _, _, err := durable.OpenWAL(filepath.Join(b.dir, "replay-wal.log"))
	if err != nil {
		return err
	}
	defer wal.Close()
	src := b.sources[0]
	type prior struct{ vals, psi any }
	priors := map[string]prior{}
	for _, app := range []string{"sssp", "pr"} {
		vals, psi, _, err := runApp(app, frags[w.workers], ace.Query{Source: graph.VID(src), Eps: prEps})
		if err != nil {
			return err
		}
		priors[app] = prior{vals, psi}
	}
	r := rand.New(rand.NewSource(b.seed + 7919)) // the workload's batch stream
	g := b.base
	for i := 0; i < replayBatches; i++ {
		batch := drawBatch(g, r)
		op := tr.newOp()
		root := tr.newRoot("replay.mutate", op)
		tr.timed("graph.check_frozen", root.i, op, func() { err = g.CheckFrozen() })
		if err != nil {
			return err
		}
		var ng *graph.Graph
		tr.timed("graph.apply", root.i, op, func() { ng, _, err = g.ApplyMutations(batch) })
		if err != nil {
			return err
		}
		tr.timed("graph.freeze", root.i, op, func() { ng.Freeze() })
		touched := batch.Endpoints()
		nfrags := map[int][]*graph.Fragment{}
		rebuilt := 0
		tr.timed("graph.update_fragments", root.i, op, func() {
			for _, n := range b.fragWorkers() {
				var rb []int
				if nfrags[n], rb, err = graph.UpdateFragments(frags[n], ng, touched); err != nil {
					return
				}
				rebuilt += len(rb)
			}
		})
		if err != nil {
			return err
		}
		out.rebuilt = append(out.rebuilt, float64(rebuilt))
		fp, _ := ng.FrozenFingerprint()
		before := wal.Size()
		tr.timed("durable.wal_append", root.i, op, func() {
			err = wal.Append(durable.Record{Version: ng.Version(), Fingerprint: fp, Batch: batch})
		})
		if err != nil {
			return err
		}
		out.walBytes = append(out.walBytes, float64(wal.Size()-before))
		root.end()

		op = tr.newOp()
		root = tr.newRoot("replay.incremental", op)
		var ws any
		tr.timed("algorithms.warm_plan.sssp", root.i, op, func() {
			ws = algorithms.WarmSSSP(g, ng, touched, priors["sssp"].vals.([]float64), graph.VID(src))
		})
		var vals, psi any
		tr.timed("gap.inc_run.sssp", root.i, op, func() {
			vals, psi, _, err = runApp("sssp", nfrags[w.workers], ace.Query{Source: graph.VID(src), Warm: ws})
		})
		if err != nil {
			return err
		}
		priors["sssp"] = prior{vals, psi}
		tr.timed("algorithms.warm_plan.pr", root.i, op, func() {
			p := priors["pr"]
			ws = algorithms.WarmPageRank(g, ng, touched, p.psi.([]float64), p.vals.([]float64), prEps)
		})
		tr.timed("gap.inc_run.pr", root.i, op, func() {
			vals, psi, _, err = runApp("pr", nfrags[w.workers], ace.Query{Eps: prEps, Warm: ws})
		})
		if err != nil {
			return err
		}
		priors["pr"] = prior{vals, psi}
		root.end()
		g, frags = ng, nfrags
	}
	return nil
}

// durableProbe times a warm-fixpoint snapshot of svc (whose state lives in
// dir), drains it, and times a restart over the same directory (in a fresh
// process, so that recovery pays the base-graph build a real restart pays).
// refresh, when the periodic flusher has already written everything, makes
// the warm state dirty again.
func (b *bench) durableProbe(svc *serve.Service, dir string, out *replayOut, refresh func() error) error {
	for try := 0; ; try++ {
		t0 := time.Now()
		wrote, err := svc.SnapshotNow()
		out.snapshotMS = ms(time.Since(t0))
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if wrote > 0 {
			break
		}
		if try == 2 {
			return fmt.Errorf("snapshot: no dirty warm state to write")
		}
		if err := refresh(); err != nil {
			return err
		}
	}
	svc.Drain(30 * time.Second)
	s, err := b.restart(dir)
	out.recoverMS = s * 1e3
	return err
}

// durableReplay gives a read workload (whose service keeps no state) the
// same durable measurements churn takes from its own service: a durable
// service over the workload's dataset computes one fixpoint per query kind
// and takes the replay batches, then is snapshotted and restarted.
func (b *bench) durableReplay(out *replayOut) error {
	dir := filepath.Join(b.dir, "replay-state")
	svc, err := serve.Open(serve.Config{Cores: serviceCores, StateDir: dir})
	if err != nil {
		return err
	}
	defer svc.Drain(30 * time.Second)
	if err := svc.Preload(b.w.dataset, b.w.scale, 0); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(b.seed + 7919))
	g := b.base
	for i := 0; i < replayBatches; i++ {
		for _, sp := range []serve.JobSpec{b.spec("sssp", b.sources[0]), b.spec("pr", 0)} {
			id, err := svc.Submit(sp)
			if err != nil {
				return err
			}
			if st, err := svc.Wait(id, jobTimeout); err != nil || st.State != serve.StateDone {
				return fmt.Errorf("replay job %s: %v %s", sp.App, err, st.Err)
			}
		}
		batch := drawBatch(g, r)
		ev := g.Version()
		if _, err := svc.Mutate(b.w.dataset, serve.MutateRequest{Scale: b.w.scale, ExpectVersion: &ev,
			Inserts: batch.Inserts, Deletes: batch.Deletes}); err != nil {
			return err
		}
		if g, _, err = g.ApplyMutations(batch); err != nil {
			return err
		}
	}
	return b.durableProbe(svc, dir, out, func() error {
		return fmt.Errorf("snapshot: replay service wrote nothing")
	})
}
