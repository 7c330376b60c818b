package gap

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/fault"
)

// --- exactly-once layer unit tests -----------------------------------------

// recTestState builds a two-worker liveState for worker 0 with the sequence
// layer attached (PageRank: non-idempotent sum aggregation, invertible).
func recTestState(t *testing.T) (*liveState[float64], uint32) {
	t.Helper()
	g := testGraph(true, 11)
	fs := frags(t, g, 2)
	prog := algorithms.NewPageRank()()
	st := newLiveState(0, fs[0], prog, ace.Query{Eps: 1e-3}, &batchPool[float64]{})
	st.rs = newRecoverState[float64](2, prog.(ace.Inverter[float64]).Invert)
	lv, ok := st.local(fs[0].Global(0))
	if !ok {
		t.Fatal("fragment's own vertex not resolvable")
	}
	st.psi[lv] = 0 // clear the program's Init seed so assertions read raw sums
	return st, lv
}

func TestSeqIngestExactlyOnce(t *testing.T) {
	st, lv := recTestState(t)
	vid := st.frag.Global(lv)
	env := func(inc int32, seq uint64, val float64) liveEnvelope[float64] {
		return liveEnvelope[float64]{from: 1, inc: inc, seq: seq,
			msgs: []ace.Message[float64]{{V: vid, Val: val}}}
	}
	// Out-of-order arrival: seq 2 buffers, seq 1 applies and drains it.
	st.seqIngest(env(0, 2, 0.25), st.pool)
	if st.psi[lv] != 0 {
		t.Fatalf("gap batch applied early: psi=%v", st.psi[lv])
	}
	st.seqIngest(env(0, 1, 0.5), st.pool)
	if st.psi[lv] != 0.75 {
		t.Fatalf("after in-order drain psi=%v, want 0.75", st.psi[lv])
	}
	if st.rs.cursor[1] != 2 {
		t.Fatalf("cursor=%d, want 2", st.rs.cursor[1])
	}
	// Duplicates of an applied sequence are dropped.
	st.seqIngest(env(0, 1, 0.5), st.pool)
	st.seqIngest(env(0, 2, 0.25), st.pool)
	if st.psi[lv] != 0.75 {
		t.Fatalf("duplicate re-applied: psi=%v", st.psi[lv])
	}
	// A buffered duplicate of a still-gapped sequence is dropped too.
	st.seqIngest(env(0, 5, 1), st.pool)
	st.seqIngest(env(0, 5, 1), st.pool)
	if len(st.rs.robuf[1]) != 1 {
		t.Fatalf("robuf holds %d entries, want 1", len(st.rs.robuf[1]))
	}
}

func TestRollbackSenderInvertsUncommitted(t *testing.T) {
	st, lv := recTestState(t)
	vid := st.frag.Global(lv)
	env := func(inc int32, seq uint64, val float64) liveEnvelope[float64] {
		return liveEnvelope[float64]{from: 1, inc: inc, seq: seq,
			msgs: []ace.Message[float64]{{V: vid, Val: val}}}
	}
	st.seqIngest(env(0, 1, 0.5), st.pool)
	st.seqIngest(env(0, 2, 0.25), st.pool)
	if st.psi[lv] != 0.75 {
		t.Fatalf("setup psi=%v, want 0.75", st.psi[lv])
	}
	// Sender 1 rolls back to stable=1: the seq-2 contribution must be
	// un-applied and the cursor lowered so the re-derived stream is taken.
	st.rollbackSender(1, 1, 1)
	if st.psi[lv] != 0.5 {
		t.Fatalf("after rollback psi=%v, want 0.5", st.psi[lv])
	}
	if st.rs.cursor[1] != 1 {
		t.Fatalf("cursor=%d, want 1", st.rs.cursor[1])
	}
	// The old incarnation's uncommitted suffix is now rejected...
	st.seqIngest(env(0, 2, 0.25), st.pool)
	if st.psi[lv] != 0.5 {
		t.Fatalf("rolled-back suffix re-applied: psi=%v", st.psi[lv])
	}
	// ...while the restarted incarnation's re-derived stream is accepted.
	st.seqIngest(env(1, 2, 0.3), st.pool)
	if st.psi[lv] != 0.8 {
		t.Fatalf("new-incarnation batch lost: psi=%v, want 0.8", st.psi[lv])
	}
	// Re-delivering the same notice (e.g. via a restore's history fixup)
	// must be a no-op.
	st.rollbackSender(1, 1, 1)
	if st.psi[lv] != 0.8 {
		t.Fatalf("duplicate rollback mutated state: psi=%v", st.psi[lv])
	}
}

func TestRecoverStateBoundLimit(t *testing.T) {
	rs := newRecoverState[float64](2, nil)
	if got := rs.boundLimit(1, 0); got != ^uint64(0) {
		t.Fatalf("no bounds: limit=%d, want max", got)
	}
	rs.bounds[1] = []incBound{{inc: 1, stable: 10}, {inc: 2, stable: 7}}
	if got := rs.boundLimit(1, 0); got != 7 {
		t.Fatalf("inc 0 limit=%d, want min stable 7", got)
	}
	if got := rs.boundLimit(1, 1); got != 7 {
		t.Fatalf("inc 1 limit=%d, want 7 (only inc 2 supersedes)", got)
	}
	if got := rs.boundLimit(1, 2); got != ^uint64(0) {
		t.Fatalf("current inc limit=%d, want max", got)
	}
}

func TestMsgLog(t *testing.T) {
	l := newMsgLog[float64](2)
	for seq := uint64(1); seq <= 4; seq++ {
		l.append(0, 1, seq, []ace.Message[float64]{{V: 0, Val: float64(seq)}})
	}
	if l.size() != 4 || l.retainedFrom(0) != 4 {
		t.Fatalf("size=%d retained=%d, want 4/4", l.size(), l.retainedFrom(0))
	}
	if got := l.after(0, 1, 2); len(got) != 2 || got[0].seq != 3 || got[1].seq != 4 {
		t.Fatalf("after(2) = %+v, want seqs 3,4", got)
	}
	l.prune(0, 1, 2)
	if l.size() != 2 {
		t.Fatalf("after prune size=%d, want 2", l.size())
	}
	// Truncate back to stable=3: the uncommitted seq-4 suffix is dropped.
	l.truncate(0, []uint64{0, 3})
	if l.size() != 1 {
		t.Fatalf("after truncate size=%d, want 1", l.size())
	}
	if got := l.after(0, 1, 0); len(got) != 1 || got[0].seq != 3 {
		t.Fatalf("retained = %+v, want only seq 3", got)
	}
	// Appends after a capped `after` slice must not corrupt earlier reads.
	view := l.after(0, 1, 0)
	l.append(0, 1, 4, []ace.Message[float64]{{V: 0, Val: 4}})
	if len(view) != 1 || view[0].seq != 3 {
		t.Fatalf("reader view mutated by append: %+v", view)
	}
}

// --- end-to-end localized recovery ------------------------------------------

// TestLiveLinkFaultsNonIdempotent: dup/reorder fates against programs whose
// aggregation is NOT idempotent (Δ-PageRank's accumulative sum) and against
// WCC. The exactly-once ingestion layer must keep the fixpoints correct —
// before this layer, a duplicated batch silently double-counted rank mass.
// The "/local" subtest names are kept from when a second recovery protocol
// existed.
func TestLiveLinkFaultsNonIdempotent(t *testing.T) {
	seed := strconv.FormatInt(chaosSeed(t), 10)
	t.Run("pagerank/local", func(t *testing.T) {
		g := testGraph(true, 13)
		want := algorithms.SeqPageRank(g, 1e-3)
		cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
		cfg.Faults = faultPlan(t, "seed="+seed+"; dup=0.1; reorder=0.1; drop=0.05")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 0 || lm.Recoveries != 0 {
			t.Fatalf("unexpected fault accounting: %+v", lm)
		}
	})
	t.Run("wcc/local", func(t *testing.T) {
		g := testGraph(false, 14)
		want := algorithms.SeqWCC(g)
		cfg := LiveConfig{Mode: ModeGAP, CheckEvery: 16}
		cfg.Faults = faultPlan(t, "seed="+seed+"; dup=0.1; reorder=0.1")
		res, _, err := RunLive(frags(t, g, 4), algorithms.NewWCC(), ace.Query{}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
	})
}

// TestLiveLocalRecoveryMatchesFaultFree: crashes are repaired by per-worker
// restore + log replay and the answers still match the sequential reference.
// It runs the same plans as TestLiveCrashRecoveryMatchesFaultFree.
func TestLiveLocalRecoveryMatchesFaultFree(t *testing.T) {
	t.Run("sssp", func(t *testing.T) {
		g := testGraph(true, 3)
		want := algorithms.SeqSSSP(g, 0)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, "crash=1@u40+10")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 1 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1 and >=1", lm.Crashes, lm.Recoveries)
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		g := testGraph(true, 4)
		want := algorithms.SeqPageRank(g, 1e-3)
		cfg := liveFTConfig(ModeGAP)
		// The slowdown stretches the run so the crash lands with real
		// uncommitted rank in flight (survivor undo logs must invert it).
		cfg.Faults = faultPlan(t, "crash=2@u60+10; slow=1@0:200:30")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 1 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1 and >=1", lm.Crashes, lm.Recoveries)
		}
	})
	t.Run("wcc_double_crash", func(t *testing.T) {
		g := testGraph(false, 5)
		want := algorithms.SeqWCC(g)
		cfg := liveFTConfig(ModeGAP)
		cfg.Faults = faultPlan(t, "crash=0@u40+5; crash=3@u80+15")
		res, lm, err := RunLive(frags(t, g, 4), algorithms.NewWCC(), ace.Query{}, cfg)
		if err != nil {
			t.Fatalf("RunLive: %v", err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], w)
			}
		}
		if lm.Crashes != 2 || lm.Recoveries < 1 {
			t.Fatalf("crashes=%d recoveries=%d", lm.Crashes, lm.Recoveries)
		}
	})
}

// opaqueProg hides a program's optional capability interfaces: only the core
// ace.Program methods are promoted through the embedded interface, so
// recoveryHooks sees neither IdempotentAggregator nor Inverter. It counts
// Update calls so a test can tell whether any worker ran.
type opaqueProg struct {
	ace.Program[float64]
	updates *atomic.Int64
}

func (p opaqueProg) Update(ctx *ace.Ctx[float64], local uint32) {
	p.updates.Add(1)
	p.Program.Update(ctx, local)
}

// TestLiveRecoveryNeedsHooks: a plan that restarts a crashed worker of a
// program with neither recovery hook is rejected before any worker starts.
// The same program still converges when no restart is armed: fault-free,
// and under NoRecover with the same restart plan whose crash never fires.
func TestLiveRecoveryNeedsHooks(t *testing.T) {
	g := testGraph(true, 3)
	want := algorithms.SeqSSSP(g, 0)
	var updates atomic.Int64
	factory := func() ace.Program[float64] { return opaqueProg{algorithms.NewSSSP()(), &updates} }

	health := &HealthTracker{}
	cfg := liveFTConfig(ModeGAP)
	cfg.Faults = faultPlan(t, "crash=1@u40+10")
	cfg.Health = health
	_, _, err := RunLive(frags(t, g, 4), factory, ace.Query{Source: 0}, cfg)
	if err == nil || !strings.Contains(err.Error(), "declares neither") {
		t.Fatalf("want a missing-hooks error, got %v", err)
	}
	if n := updates.Load(); n != 0 {
		t.Fatalf("%d updates ran before the plan was rejected", n)
	}
	if h := health.Health(); h.Running || h.Completed+h.Failed != 0 {
		t.Fatalf("rejected run reached the health tracker: %+v", h)
	}

	for _, c := range []struct {
		name, plan string
		noRecover  bool
	}{
		{"fault-free", "", false},
		{"no-recover", "crash=1@u1000000000+10", true},
	} {
		cfg := liveFTConfig(ModeGAP)
		cfg.NoRecover = c.noRecover
		if c.plan != "" {
			cfg.Faults = faultPlan(t, c.plan)
		}
		res, _, err := RunLive(frags(t, g, 4), factory, ace.Query{Source: 0}, cfg)
		if err != nil {
			t.Fatalf("%s: RunLive: %v", c.name, err)
		}
		for v, w := range want {
			if res.Values[v] != w {
				t.Fatalf("%s: vertex %d: got %v want %v", c.name, v, res.Values[v], w)
			}
		}
	}
}

// TestLiveUnknownRecoveryStrategy: LiveConfig.Recovery accepts "" and
// "local" only; "global" names a protocol that no longer exists.
func TestLiveUnknownRecoveryStrategy(t *testing.T) {
	g := testGraph(true, 3)
	for _, strategy := range []string{"zonal", "global"} {
		cfg := LiveConfig{Mode: ModeGAP, Recovery: strategy}
		if _, _, err := RunLive(frags(t, g, 2), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err == nil ||
			!strings.Contains(err.Error(), "unknown recovery strategy") {
			t.Fatalf("%q: want unknown-strategy error, got %v", strategy, err)
		}
	}
	cfg := LiveConfig{Mode: ModeGAP, Recovery: RecoveryLocal}
	if _, _, err := RunLive(frags(t, g, 2), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg); err != nil {
		t.Fatalf("%q: %v", RecoveryLocal, err)
	}
}

// TestLiveChaosSoak is the acceptance soak: deterministic crash+drop+dup+
// reorder storms (seeded from CHAOS_SEED) over SSSP, PageRank and WCC. Every
// run must reach the sequential fixpoint. The "local/" subtest prefix is kept
// from when a second recovery protocol existed.
func TestLiveChaosSoak(t *testing.T) {
	nSeeds := 5
	if testing.Short() {
		nSeeds = 2
	}
	base := chaosSeed(t)
	for i := 0; i < nSeeds; i++ {
		seed := base + int64(i)
		storm := fault.Storm(seed, 4, fault.StormOpts{
			Crashes: 2, Span: 300, Restart: 5,
			Drop: 0.04, Dup: 0.04, Reorder: 0.05,
		})
		for _, app := range []string{"sssp", "pagerank", "wcc"} {
			t.Run(fmt.Sprintf("local/seed%d/%s", seed, app), func(t *testing.T) {
				cfg := liveFTConfig(ModeGAP)
				cfg.Faults = storm
				switch app {
				case "sssp":
					g := testGraph(true, seed)
					want := algorithms.SeqSSSP(g, 0)
					res, _, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
					if err != nil {
						t.Fatalf("RunLive(%s): %v", storm, err)
					}
					for v, w := range want {
						if res.Values[v] != w {
							t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
						}
					}
				case "pagerank":
					g := testGraph(true, seed)
					want := algorithms.SeqPageRank(g, 1e-3)
					res, _, err := RunLive(frags(t, g, 4), algorithms.NewPageRank(), ace.Query{Eps: 1e-3}, cfg)
					if err != nil {
						t.Fatalf("RunLive(%s): %v", storm, err)
					}
					for v, w := range want {
						if math.Abs(res.Values[v]-w) > 0.02*(w+1) {
							t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
						}
					}
				case "wcc":
					g := testGraph(false, seed)
					want := algorithms.SeqWCC(g)
					res, _, err := RunLive(frags(t, g, 4), algorithms.NewWCC(), ace.Query{}, cfg)
					if err != nil {
						t.Fatalf("RunLive(%s): %v", storm, err)
					}
					for v, w := range want {
						if res.Values[v] != w {
							t.Fatalf("vertex %d: got %v want %v (storm %s)", v, res.Values[v], w, storm)
						}
					}
				}
			})
		}
	}
}

// TestLiveWatchdogStuckDetail: the watchdog's error must now carry the
// per-worker transport diagnosis (status, ledger counters, heartbeat age) so
// a chaos-CI hang is debuggable from the log alone.
func TestLiveWatchdogStuckDetail(t *testing.T) {
	g := testGraph(true, 3)
	cfg := LiveConfig{
		Mode:             ModeGAP,
		CheckEvery:       16,
		HeartbeatTimeout: 50 * 1e6, // 50ms
		Watchdog:         400 * 1e6,
		NoRecover:        true,
	}
	cfg.Faults = faultPlan(t, "crash=1@u30") // permanent: no restart
	_, _, err := RunLive(frags(t, g, 4), algorithms.NewSSSP(), ace.Query{Source: 0}, cfg)
	if err == nil {
		t.Fatal("want watchdog error, got nil")
	}
	for _, want := range []string{"worker 0 [live]", "worker 1 [dead", "sent=", "recv=", "beat="} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stuck detail missing %q in: %v", want, err)
		}
	}
}
