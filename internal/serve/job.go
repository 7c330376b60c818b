package serve

import (
	"errors"
	"fmt"

	"argan/internal/ace"
	"argan/internal/core"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/mem"
)

// execute runs one admitted job to completion inside its own fault domain:
// a private live driver over the shared frozen fragments, localized
// recovery, a mem.Pool slice proportional to its core share, and the job's
// cancel channel wired into the driver's control plane. Any error — crash
// without restart, injected panic, divergence from the reference, deadline
// — quarantines this job only; the service keeps running.
func (s *Service) execute(j *job) {
	res, err := s.runOne(j)
	switch {
	case err == nil:
		s.finalize(j, StateDone, "", res, true)
	case errors.Is(err, gap.ErrCanceled):
		s.mu.Lock()
		reason := j.err // set under s.mu by CancelReason before closing the channel
		s.mu.Unlock()
		if reason == "" {
			reason = "canceled"
		}
		s.finalize(j, StateCanceled, reason, nil, true)
	default:
		if errors.Is(err, gap.ErrWorkerPanic) {
			s.mu.Lock()
			s.quarantined++
			s.mu.Unlock()
		}
		s.finalize(j, StateFailed, err.Error(), nil, true)
	}
}

// runOne builds the job's execution environment and dispatches by app. The
// dataset version is pinned here: a concurrent Mutate swaps the service to
// version k+1 without disturbing this job's version-k graph and fragments.
func (s *Service) runOne(j *job) (*JobResult, error) {
	sp := j.spec
	pin, err := s.data.pin(sp.Dataset, sp.Scale, sp.Workers)
	if err != nil {
		return nil, err
	}

	// Memory slice: the job's proportional share of the service budget.
	// Cores gate admission, so the slice always fits — Acquire cannot
	// deadlock a queued job.
	var gov *mem.Governor
	if s.cfg.MemBudget > 0 {
		slice := s.cfg.MemBudget * int64(j.cores) / int64(s.cfg.Cores)
		var release func()
		gov, release, err = s.pool.Acquire(slice)
		if err != nil {
			return nil, fmt.Errorf("memory slice: %w", err)
		}
		defer release()
	}

	var plan *fault.Plan
	if sp.Faults != "" {
		if plan, err = fault.Parse(sp.Faults); err != nil {
			return nil, err // unreachable: normalize() already parsed it
		}
	}

	cfg := gap.LiveConfig{
		Mode:        gap.ModeGAP,
		CheckEvery:  sp.CheckEvery,
		Faults:      plan,
		Mem:         gov,
		Health:      j.health,
		Cancel:      j.cancel,
		Watchdog:    s.cfg.Watchdog,
		NoEdgeSpill: true, // fragments are shared: never page their edges
	}

	app, err := core.LiveApp(sp.App)
	if err != nil {
		return nil, err // unreachable: normalize() already resolved it
	}
	q := ace.Query{Source: graph.VID(sp.Source), Eps: sp.Eps}
	res, err := incRun(pin, sp, app, q, cfg)
	if err != nil {
		return nil, err
	}
	res.ID, res.App, res.Version = j.id, sp.App, pin.version
	s.mu.Lock()
	if res.Incremental {
		s.incremental++
	} else if res.Fallback != "" {
		s.recomputes++
	}
	s.mu.Unlock()
	if res.Wrong > 0 {
		return nil, fmt.Errorf("result diverged from sequential reference: %d of %d vertices wrong (version %d)", res.Wrong, res.Vertices, pin.version)
	}
	return res, nil
}

// incRun is the retract-and-repush execution path shared by every app of
// the live catalog (core.LiveApps):
//
//  1. Look up the retained fixpoint for this query key. If one exists and
//     the mutation log bridges its version to the pinned one, build the
//     app's warm state and re-converge from it — verifying against the
//     pinned version's sequential reference unconditionally, so every
//     increment is checked, not trusted.
//  2. If the program were not invertible/idempotent, or the bridge is gone
//     (log truncation, version skew), fall back to a cold full run and
//     record why in JobResult.Fallback.
//  3. On a clean (non-diverged) finish, retain this run's fixpoint for the
//     next increment.
func incRun(pin pinned, sp JobSpec, app core.LiveEntry, q ace.Query, cfg gap.LiveConfig) (*JobResult, error) {
	wk := warmKey{app: sp.App, source: sp.Source, eps: sp.Eps}
	verify := sp.Verify
	var prior *warmEntry
	var touched []graph.VID
	var fallback string
	if app.CanIncrement() {
		prior, touched, fallback = pin.ds.warmFor(wk, pin.version)
	} else {
		fallback = "program is neither invertible nor idempotent"
	}
	if prior != nil {
		// Reseeded fixpoints may come off disk (durable recovery): Plan
		// shape-checks the warm state against the pinned graph, and a
		// rejected one falls back to a cold run rather than crash on a
		// corrupt-but-plausible snapshot that slipped past the coarser
		// reseed checks.
		ws, err := app.Plan(prior.g, pin.g, touched, prior.values, prior.psi, q)
		if err != nil {
			prior, fallback = nil, fmt.Sprintf("warm state rejected: %v", err)
		} else {
			q.Warm = ws
			verify = true // every increment is verified against the reference
			pin.ds.noteWarmHit()
		}
	}

	var want any
	if verify {
		key := refKey{app: sp.App, source: sp.Source, eps: sp.Eps, version: pin.version}
		want = pin.ds.reference(key, func() any { return app.Reference(pin.g, q) })
	}

	run, err := app.Run(pin.frags, q, cfg)
	if err != nil {
		return nil, err
	}
	lm := run.Metrics
	out := &JobResult{
		Vertices:   pin.g.NumVertices(),
		Wrong:      -1,
		Checksum:   run.Checksum,
		WallMS:     float64(lm.WallTime) / 1e6,
		Updates:    lm.Updates,
		MsgsSent:   lm.MsgsSent,
		Crashes:    lm.Crashes,
		Recoveries: lm.Recoveries,
		Replayed:   lm.Replayed,
		MemPeak:    lm.MemPeakBytes,
		Spilled:    lm.SpilledBytes,

		Incremental: prior != nil,
		Fallback:    fallback,
	}
	if prior != nil {
		out.IncrementalFrom = prior.version
	}
	if verify {
		out.Wrong = app.Wrong(run.Values, want)
	}
	if out.Wrong <= 0 {
		// Retain this fixpoint (raw Ψ and output view, global-indexed) so
		// the next job on this key re-converges instead of recomputing.
		pin.ds.storeWarm(wk, &warmEntry{version: pin.version, g: pin.g, values: run.Values, psi: run.Psi})
	}
	return out, nil
}
