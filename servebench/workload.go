package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"argan/internal/graph"
	obsserve "argan/internal/obs/serve"
	"argan/internal/serve"
)

// workload is one traffic mix against the resident service. Every client is
// a closed loop: it sends its next request only after the previous one
// completed, as a tenant waiting on query results does.
type workload struct {
	name    string
	dataset string
	scale   float64
	clients int
	workers int  // worker count of every timed job
	durable bool // StateDir + periodic snapshots, as arganrun serve -state-dir
}

var workloads = map[string]workload{
	"traverse": {name: "traverse", dataset: "LJ", scale: 0.25, clients: 2, workers: 1},
	"pagerank": {name: "pagerank", dataset: "TW", scale: 0.25, clients: 2, workers: 2},
	"churn":    {name: "churn", dataset: "LJ", scale: 0.25, clients: 1, workers: 1, durable: true},
}

const (
	serviceCores  = 2                // Config.Cores; GOMAXPROCS is pinned to the same
	prEps         = 1e-3             // PageRank ε of every pr job
	snapshotEvery = 10 * time.Second // the arganrun serve -snapshot-every default
	jobTimeout    = 60 * time.Second // a job still unfinished after this counts as failed
	probeBatches  = 16               // mutations timed after a read workload's job phase
	jobTailQ      = 0.9              // job_p90_ms
)

// bench is one workload's service, client and the benchmark's own copy of
// the served graph.
type bench struct {
	w    workload
	seed int64
	dir  string // this run's scratch directory

	svc *serve.Service
	srv *obsserve.Server
	cli *serve.Client

	base    *graph.Graph // version 0, as served
	sources []int        // seeded query sources; sources[0] is the fixed one
	ops     []*opStream  // traverse: each client's query stream
	expect  map[jobOp]expectation

	// The writer's mirror of the served graph, its batch stream and every
	// batch sent, in version order.
	mirror  *graph.Graph
	batchR  *rand.Rand
	batches []graph.MutationBatch

	restart func(dir string) (float64, error) // see runOpts
}

// stateDir is where a durable workload keeps its WAL and snapshots.
func (b *bench) stateDir() string { return filepath.Join(b.dir, "state") }

// tally is what one window measured.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	jobLat    []float64 // submit → result, ms
	mutLat    []float64 // Client.Mutate round trip, ms
	jobs      int       // completed and valid
	elapsed   float64   // seconds

	// Per-job layer readings from the public JobStatus / JobResult.
	waitMS, runMS, overheadMS []float64
	incremental               int

	// Churn: the checksums served at each version, checked after the window
	// against the benchmark's own oracle.
	served []servedSum
}

type servedSum struct {
	version  uint64
	app      string
	checksum float64
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// setup opens the service, preloads the dataset (generate, freeze,
// partition), serves the HTTP API on loopback and runs the cache warm-up
// pass, returning the elapsed seconds up to the first timed request.
func setup(w workload, seed int64, dir string) (*bench, float64, error) {
	start := time.Now()
	b := &bench{w: w, seed: seed, dir: dir}
	cfg := serve.Config{Cores: serviceCores}
	if w.durable {
		cfg.StateDir, cfg.SnapshotEvery = b.stateDir(), snapshotEvery
	}
	svc, err := serve.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	b.svc = svc
	// Worker count 0 preloads the MaxWorkersPerJob partition, as
	// arganrun serve -preload does.
	if err := svc.Preload(w.dataset, w.scale, 0); err != nil {
		b.close()
		return nil, 0, err
	}
	b.srv = obsserve.New()
	if err := svc.Attach(b.srv); err != nil {
		b.close()
		return nil, 0, err
	}
	addr, err := b.srv.Start("127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, 0, err
	}
	b.cli = &serve.Client{Base: "http://" + addr}
	if b.base, err = graph.LoadDataset(w.dataset, w.scale); err != nil { // memoized: the served graph
		b.close()
		return nil, 0, err
	}
	r := rand.New(rand.NewSource(seed))
	b.sources = pickSources(b.base, r, numSources)
	b.mirror, b.batchR = b.base, rand.New(rand.NewSource(seed+7919))
	for c := 0; c < w.clients; c++ {
		b.ops = append(b.ops, newOpStream(seed, c, b.sources))
	}

	// Warm-up: every query key the window will send runs once, so the
	// service's sequential references and partitions are cached before the
	// first timed request.
	for _, sp := range b.warmSpecs() {
		var t tally
		if rec := b.job(sp, nil, -1, &t); rec.err != nil {
			b.close()
			return nil, 0, fmt.Errorf("warm-up %s: %w", sp.App, rec.err)
		}
	}
	return b, time.Since(start).Seconds(), nil
}

func (b *bench) spec(app string, source int) serve.JobSpec {
	return serve.JobSpec{App: app, Dataset: b.w.dataset, Scale: b.w.scale, Workers: b.w.workers,
		Source: source, Eps: prEps, Verify: true}
}

func (b *bench) warmSpecs() []serve.JobSpec {
	switch b.w.name {
	case "traverse":
		var out []serve.JobSpec
		for _, app := range traverseApps {
			for _, s := range b.sources {
				out = append(out, b.spec(app, s))
			}
		}
		return out
	case "pagerank":
		return []serve.JobSpec{b.spec("pr", 0)}
	default:
		return []serve.JobSpec{b.spec("sssp", b.sources[0]), b.spec("pr", 0)}
	}
}

// computeExpectations runs the benchmark's own oracle for every query of
// the static workloads (churn checks per version after its window).
func (b *bench) computeExpectations() {
	b.expect = map[jobOp]expectation{}
	switch b.w.name {
	case "traverse":
		for _, app := range traverseApps {
			for _, s := range b.sources {
				b.expect[jobOp{app, s}] = expect(b.base, app, s, prEps)
			}
		}
	case "pagerank":
		b.expect[jobOp{"pr", 0}] = expect(b.base, "pr", 0, prEps)
	}
}

func (b *bench) close() {
	if b.svc != nil {
		b.svc.Drain(30 * time.Second)
	}
	if b.srv != nil {
		b.srv.Close()
	}
}

// jobRec is one job as the client saw it.
type jobRec struct {
	lat float64 // ms
	st  serve.JobStatus
	res *serve.JobResult
	err error
}

// pending is a submitted job awaiting its result.
type pending struct {
	id     string
	t0, t1 time.Time // Client.Submit start and return
	err    error
}

func (b *bench) submit(sp serve.JobSpec) pending {
	p := pending{t0: time.Now()}
	p.id, p.err = b.cli.Submit(sp)
	p.t1 = time.Now()
	return p
}

// finish waits for a submitted job and fetches its result. Completion is
// taken from the in-process Service.Wait: the HTTP API only offers polling
// every 20 ms, which would quantize every latency. With a tracer it records
// the job's span tree: the client-side calls plus the server-side queue and
// run intervals read from the job's public status.
func (b *bench) finish(p pending, tr *tracer, op int) jobRec {
	if p.err != nil {
		return jobRec{err: fmt.Errorf("submit: %w", p.err)}
	}
	st, err := b.svc.Wait(p.id, jobTimeout)
	if err != nil {
		return jobRec{err: err}
	}
	t2 := time.Now()
	if st.State != serve.StateDone {
		return jobRec{st: st, err: fmt.Errorf("job %s %s: %s", p.id, st.State, st.Err)}
	}
	res, err := b.cli.Result(p.id)
	t3 := time.Now()
	if err != nil {
		return jobRec{st: st, err: fmt.Errorf("result %s: %w", p.id, err)}
	}
	rec := jobRec{lat: ms(t3.Sub(p.t0)), st: st, res: res}
	if tr != nil {
		root := tr.add("client.job", p.t0, t3, -1, op)
		tr.add("api.submit", p.t0, p.t1, root, op)
		wait := tr.add("serve.wait", p.t1, t2, root, op)
		if queued, err := time.Parse(time.RFC3339Nano, st.Queued); err == nil {
			started := queued.Add(dur(st.WaitMS))
			finished := started.Add(dur(st.RunMS))
			clip := func(t time.Time) time.Time { return later(t, p.t1) }
			tr.add("serve.queue", clip(queued), clip(started), wait, op)
			run := tr.add("serve.run", clip(started), finished, wait, op)
			// RunLive's position inside the run is not reported; only its
			// length matters for self time, and it ends the run.
			tr.add("gap.run", clip(finished.Add(-dur(res.WallMS))), finished, run, op)
		}
		tr.add("api.result", t2, t3, root, op)
	}
	return rec
}

// job runs one job to completion and applies the validity gates every
// timed job must pass: done, verified with no wrong vertex, and the
// checksum the benchmark's own oracle expects.
func (b *bench) job(sp serve.JobSpec, tr *tracer, op int, t *tally) jobRec {
	rec := b.finish(b.submit(sp), tr, op)
	b.record(sp, rec, t)
	return rec
}

// record books one finished job into t, failing it on any validity miss.
func (b *bench) record(sp serve.JobSpec, rec jobRec, t *tally) {
	if rec.err == nil {
		rec.err = b.validate(sp, rec.res)
	}
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if rec.err != nil {
		t.fail("%s: %v", sp.App, rec.err)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	t.jobLat = append(t.jobLat, rec.lat)
	t.waitMS = append(t.waitMS, rec.st.WaitMS)
	t.runMS = append(t.runMS, rec.st.RunMS)
	t.overheadMS = append(t.overheadMS, rec.st.RunMS-rec.res.WallMS)
	if rec.res.Incremental {
		t.incremental++
	}
	if b.w.name == "churn" {
		t.served = append(t.served, servedSum{rec.res.Version, sp.App, rec.res.Checksum})
	}
}

func (b *bench) validate(sp serve.JobSpec, res *serve.JobResult) error {
	if res.Wrong != 0 {
		return fmt.Errorf("%d wrong vertices (verify requested)", res.Wrong)
	}
	if b.w.name != "churn" {
		if e, ok := b.expect[jobOp{sp.App, sp.Source}]; ok && !e.matches(res.Checksum) {
			return fmt.Errorf("checksum %v, oracle says %v", res.Checksum, e.checksum)
		}
		return nil
	}
	if want := b.mirror.Version(); res.Version != want {
		return fmt.Errorf("pinned version %d, expected %d", res.Version, want)
	}
	if res.Version > 0 && (!res.Incremental || res.IncrementalFrom != res.Version-1) {
		return fmt.Errorf("not incremental from version %d (incremental=%v from %d, fallback %q)",
			res.Version-1, res.Incremental, res.IncrementalFrom, res.Fallback)
	}
	return nil
}

// mutate sends the next seeded batch, drawn from the benchmark's mirror,
// guarded by expect_version; the ack must advance the version by exactly
// one. It reports whether the batch was applied.
func (b *bench) mutate(tr *tracer, op int, t *tally) (bool, error) {
	batch := drawBatch(b.mirror, b.batchR)
	next, _, err := b.mirror.ApplyMutations(batch)
	if err != nil {
		return false, fmt.Errorf("mirror: %w", err) // a benchmark bug, not a service failure
	}
	ev := b.mirror.Version()
	t0 := time.Now()
	res, err := b.cli.Mutate(b.w.dataset, serve.MutateRequest{Scale: b.w.scale, ExpectVersion: &ev,
		Inserts: batch.Inserts, Deletes: batch.Deletes})
	t1 := time.Now()
	tr.add("client.mutate", t0, t1, -1, op)
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	switch {
	case err != nil:
		t.fail("mutate v%d: %v", ev, err)
		return false, nil
	case res.OldVersion != ev || res.NewVersion != ev+1:
		t.fail("mutate ack moved version %d -> %d, expected %d -> %d", res.OldVersion, res.NewVersion, ev, ev+1)
		return false, nil
	}
	b.mirror = next
	b.batches = append(b.batches, batch)
	t.mu.Lock()
	t.mutLat = append(t.mutLat, ms(t1.Sub(t0)))
	t.mu.Unlock()
	return true, nil
}

// window drives the workload's clients for the given seconds and returns
// the jobs' tally and the writes' tally. Churn's client interleaves both in
// one tally; after a read workload's job phase, with no job in flight and
// when probe is set, the writer times probeBatches mutations of the served
// dataset (which ends the dataset's static life: no job may follow). If too few
// jobs completed for the job tail percentile, the job phase keeps going
// (for at most the window's length again) rather than report a tail over
// too few samples.
func (b *bench) window(seconds float64, tr *tracer, probe bool) (*tally, *tally, error) {
	t := &tally{}
	start := time.Now()
	soft := start.Add(dur(seconds * 1e3))
	hard := soft.Add(dur(seconds * 1e3))
	need := samplesFor(jobTailQ)
	more := func() bool {
		now := time.Now()
		if now.Before(soft) {
			return true
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		return now.Before(hard) && t.jobs < need && t.failed == 0
	}
	if err := b.phase(more, tr, t); err != nil {
		return nil, nil, err
	}
	t.elapsed = time.Since(start).Seconds()
	if b.w.name == "churn" {
		return t, t, nil
	}
	writes := &tally{}
	if !probe {
		return t, writes, nil
	}
	for k := 0; k < probeBatches; k++ {
		if _, err := b.mutate(tr, tr.newOp(), writes); err != nil {
			return nil, nil, err
		}
	}
	return t, writes, nil
}

// phase runs the workload's clients while more() holds.
func (b *bench) phase(more func() bool, tr *tracer, t *tally) error {
	var wg sync.WaitGroup
	var fatal error
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			switch b.w.name {
			case "traverse":
				ops := b.ops[c]
				for more() {
					op := ops.next()
					b.job(b.spec(op.App, op.Source), tr, tr.newOp(), t)
				}
			case "pagerank":
				for more() {
					b.job(b.spec("pr", 0), tr, tr.newOp(), t)
				}
			case "churn":
				for more() {
					if err := b.churnCycle(tr, t); err != nil {
						fatal = err // one client: no other goroutine writes fatal
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return fatal
}

// churnCycle is one turn of the churn client: mutate, then submit sssp and
// pr over the new version together and wait for both. A refused batch
// skips the jobs, which would otherwise repeat the previous version.
func (b *bench) churnCycle(tr *tracer, t *tally) error {
	if ok, err := b.mutate(tr, tr.newOp(), t); !ok {
		return err
	}
	ss, pr := b.spec("sssp", b.sources[0]), b.spec("pr", 0)
	ps, pp := b.submit(ss), b.submit(pr)
	opS, opP := tr.newOp(), tr.newOp()
	b.record(ss, b.finish(ps, tr, opS), t)
	b.record(pr, b.finish(pp, tr, opP), t)
	return nil
}

// verifyVersions replays the churn batches on a fresh copy of the base
// graph and checks every served checksum against the benchmark's own
// oracle at that version.
func (b *bench) verifyVersions(t *tally) error {
	byVersion := map[uint64][]servedSum{}
	for _, s := range t.served {
		byVersion[s.version] = append(byVersion[s.version], s)
	}
	g := b.base
	for i := 0; i <= len(b.batches); i++ {
		if i > 0 {
			var err error
			if g, _, err = g.ApplyMutations(b.batches[i-1]); err != nil {
				return fmt.Errorf("replay batch %d: %w", i, err)
			}
		}
		for _, s := range byVersion[g.Version()] {
			if e := expect(g, s.app, b.sources[0], prEps); !e.matches(s.checksum) {
				t.fail("%s at version %d: checksum %v, oracle says %v", s.app, s.version, s.checksum, e.checksum)
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func dur(ms float64) time.Duration { return time.Duration(ms * 1e6) }

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
