// Command servebench is the repository's benchmark: it measures the
// resident job service (internal/serve) as a client of arganrun serve sees
// it, and splits the time layer by layer.
//
// It starts the service in-process with two cores and GOMAXPROCS pinned to
// two, serves the HTTP API on loopback, and drives it through serve.Client
// from closed-loop clients. Run it from the root of the repository:
//
//	bash servebench/run.sh --workload traverse --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs an
// untraced and a traced window, each half as long, plus a layer replay and
// prints the per-layer metrics, writing the spans to .bench_build/servebench/.
// The last line of standard output is one JSON object; the exit code is
// non-zero when any operation failed or any metric could not be measured.
// METRICS.md maps every metric to its layer and workload.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"argan/internal/serve"
)

// outDir holds everything a run leaves behind, relative to the repository
// root the benchmark runs from.
const outDir = ".bench_build/servebench"

// setupProbes is how many extra set-ups, each in a fresh process, feed the
// setup_s median beside the run's own.
const setupProbes = 4

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: traverse, pagerank or churn")
	seed := fs.Int64("seed", 1, "workload seed; every input is drawn from it")
	seconds := fs.Float64("seconds", 20, "length of a timed window")
	trace := fs.Int("trace", 0, "1 runs the traced layer replay and prints the per-layer metrics")
	setupProbe := fs.Bool("setup-probe", false, "only set the workload up once and print the set-up seconds")
	recoverDir := fs.String("recover-probe", "", "only reopen the service over this state `DIR` and print the recovery seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(serviceCores)

	if *recoverDir != "" {
		s, err := openTimed(*recoverDir)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: recover: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"seconds\": %v}\n", s)
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need --workload traverse|pagerank|churn, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *setupProbe {
		b, s, err := setup(w, *seed, dir)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: setup: %v\n", err)
			return 1
		}
		b.close()
		fmt.Fprintf(stdout, "{\"seconds\": %v}\n", s)
		return 0
	}

	fmt.Fprintf(stdout, "servebench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	opts := runOpts{seconds: *seconds, probes: setupProbes, restart: recoverProbe}
	var res *result
	if *trace == 1 {
		res, err = traced(w, *seed, opts, dir, stdout)
	} else {
		res, err = untraced(w, *seed, opts, dir, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metrics collects named values, remembering which were not measured.
type metrics struct {
	m       map[string]metric
	missing []string
}

func (ms *metrics) set(name, unit string, v float64) {
	ms.m[name] = metric{Value: v, Unit: unit}
}

// setIf records a value only when it was measured.
func (ms *metrics) setIf(name, unit string, v float64, ok bool) {
	if !ok {
		ms.missing = append(ms.missing, name)
		return
	}
	ms.set(name, unit, v)
}

// med records the median of xs, or marks the metric missing when xs is
// empty.
func (ms *metrics) med(name, unit string, xs []float64) {
	if len(xs) == 0 {
		ms.missing = append(ms.missing, name)
		return
	}
	ms.set(name, unit, median(xs))
}

func (ms *metrics) result(tallies ...*tally) *result {
	r := &result{Metrics: ms.m}
	for _, t := range tallies {
		r.Attempted += t.attempted
		r.Failed += t.failed
	}
	r.Correct = r.Failed == 0 && len(ms.missing) == 0 && r.Attempted > 0
	return r
}

// report prints one window's sample counts and the first failures.
func report(out io.Writer, label string, t *tally) {
	fmt.Fprintf(out, "%s: %d jobs, %d mutations in %.2fs; attempted %d, failed %d\n",
		label, len(t.jobLat), len(t.mutLat), t.elapsed, t.attempted, t.failed)
	for _, e := range t.errs {
		fmt.Fprintf(out, "  failure: %s\n", e)
	}
}

// runOpts are the knobs of one measuring run.
type runOpts struct {
	seconds float64 // length of a timed window
	probes  int     // extra set-ups in fresh processes for the setup_s median
	// restart reopens a durable service over a state directory and returns
	// the seconds that took.
	restart func(dir string) (float64, error)
}

// untraced measures the end-to-end metrics: set-up (median of this run's
// and opts.probes fresh processes'), then one timed window with tracing off.
func untraced(w workload, seed int64, opts runOpts, dir string, out io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < opts.probes; i++ {
		s, err := child("--setup-probe", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, s)
	}
	b, s, err := setup(w, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()
	setups = append(setups, s)
	b.computeExpectations()

	t, writes, err := b.window(opts.seconds, nil, true)
	if err != nil {
		return nil, err
	}
	if w.name == "churn" {
		if err := b.verifyVersions(t); err != nil {
			return nil, err
		}
	}
	b.close()
	report(out, "window", t)
	if writes != t {
		report(out, "writes", writes)
	}
	fmt.Fprintf(out, "setups: %v s\n", setups)

	ms := &metrics{m: map[string]metric{}}
	ms.set("setup_s", "s", median(setups))
	ms.setIf("jobs_per_s", "1/s", float64(t.jobs)/t.elapsed, t.jobs > 0)
	ms.med("job_p50_ms", "ms", t.jobLat)
	p90, ok := tailQuantile(t.jobLat, jobTailQ)
	ms.setIf("job_p90_ms", "ms", p90, ok)
	ms.med("mutate_p50_ms", "ms", writes.mutLat)
	rss, err := peakRSSMB()
	ms.setIf("peak_rss_mb", "MB", rss, err == nil)
	for _, m := range ms.missing {
		fmt.Fprintf(out, "not measured: %s\n", m)
	}
	if writes != t {
		return ms.result(t, writes), nil
	}
	return ms.result(t), nil
}

// traced measures the per-layer metrics: an untraced and a traced window of
// equal length (their job_p50 difference is the tracing overhead), the
// durable probes, and the layer replay.
func traced(w workload, seed int64, opts runOpts, dir string, out io.Writer) (*result, error) {
	b, _, err := setup(w, seed, dir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.restart = opts.restart
	defer b.close()
	b.computeExpectations()

	// Each window is half as long as an untraced run's, so that a traced
	// run, replay included, costs about the same wall clock.
	half := opts.seconds / 2
	plain, _, err := b.window(half, nil, false)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t, writes, err := b.window(half, tr, true)
	if err != nil {
		return nil, err
	}
	rep := &replayOut{}
	shed := b.svc.Stats().Shed
	if w.name == "churn" {
		// Snapshot right after the window, while its jobs' fixpoints are
		// still unflushed; an extra untimed cycle re-dirties them if the
		// periodic flusher got there first.
		err := b.durableProbe(b.svc, b.stateDir(), rep, func() error { return b.churnCycle(nil, &tally{}) })
		if err != nil {
			return nil, err
		}
		for _, x := range []*tally{plain, t} {
			if err := b.verifyVersions(x); err != nil {
				return nil, err
			}
		}
	}
	b.close()
	if w.name != "churn" {
		if err := b.durableReplay(rep); err != nil {
			return nil, fmt.Errorf("durable replay: %w", err)
		}
	}
	if err := b.replay(tr, rep); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	report(out, "untraced window", plain)
	report(out, "traced window", t)
	if writes != t {
		report(out, "traced writes", writes)
	}
	path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %s\n", path)

	ms := layerMetrics(b, plain, t, writes, rep, float64(shed), tr.snapshot())
	for _, m := range ms.missing {
		fmt.Fprintf(out, "not measured: %s\n", m)
	}
	if writes != t {
		return ms.result(plain, t, writes), nil
	}
	return ms.result(plain, t), nil
}

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(b *bench, plain, t, writes *tally, rep *replayOut, shed float64, spans []span) *metrics {
	ms := &metrics{m: map[string]metric{}}
	dur := byName(spans, false)
	self := byName(spans, true)
	medOf := func(xs []float64) (float64, bool) {
		if len(xs) == 0 {
			return 0, false
		}
		return median(xs), true
	}
	ratio := func(name string, num, den []float64) {
		n, ok1 := medOf(num)
		d, ok2 := medOf(den)
		ms.setIf(name, "ratio", n/d, ok1 && ok2 && d > 0)
	}

	// graph and core
	ms.med("graph.load_ms", "ms", dur["graph.load"])
	ms.med("core.fragments_ms", "ms", dur["core.fragments"])
	for _, n := range []string{"check_frozen", "apply", "freeze", "update_fragments"} {
		ms.med("graph."+n+"_ms", "ms", dur["graph."+n])
	}
	ms.med("graph.rebuilt_fragments", "count", rep.rebuilt)

	// gap and algorithms
	for _, app := range allApps {
		ms.med("gap.run_ms."+app, "ms", dur["gap.run."+app])
		ms.med("gap.updates."+app, "count", rep.updates[app])
		ms.med("gap.msgs_sent."+app, "count", rep.msgs[app])
		ratio("gap.cost_ratio."+app, dur["gap.run_1w."+app], dur["algorithms.oracle."+app])
		ms.med("algorithms.oracle_ms."+app, "ms", dur["algorithms.oracle."+app])
	}
	ratio("gap.work_ratio.pr", rep.updates["pr"], []float64{rep.fixpointPR})
	for _, app := range []string{"sssp", "pr"} {
		ms.med("gap.inc_run_ms."+app, "ms", dur["gap.inc_run."+app])
		ms.med("algorithms.warm_plan_ms."+app, "ms", dur["algorithms.warm_plan."+app])
	}

	// serve and api, from the traced window
	ms.med("serve.queue_wait_ms.p50", "ms", t.waitMS)
	qp90, ok := tailQuantile(t.waitMS, jobTailQ)
	ms.setIf("serve.queue_wait_ms.p90", "ms", qp90, ok)
	ms.med("serve.run_ms", "ms", t.runMS)
	ms.med("serve.overhead_ms", "ms", t.overheadMS)
	ms.setIf("serve.incremental_share", "ratio", float64(t.incremental)/float64(t.jobs), t.jobs > 0)
	ms.set("serve.shed", "count", shed)
	ms.med("api.submit_ms", "ms", dur["api.submit"])
	ms.med("api.result_ms", "ms", dur["api.result"])

	// durable
	ms.med("durable.wal_append_ms", "ms", dur["durable.wal_append"])
	ms.med("durable.wal_bytes", "bytes", rep.walBytes)
	ms.setIf("durable.snapshot_ms", "ms", rep.snapshotMS, rep.snapshotMS > 0)
	ms.setIf("durable.recover_ms", "ms", rep.recoverMS, rep.recoverMS > 0)

	// Attribution: self time of each span on a job's blocking path (the
	// parts tile the job exactly), what their medians leave of the traced
	// job_p50, and the same for a mutation ack against the replayed write
	// path. The root's own self time is zero by construction and the queue
	// part is reported unclipped as serve.queue_wait_ms, so neither gets a
	// metric of its own.
	blocking := []string{"client.job", "api.submit", "serve.wait", "serve.queue", "serve.run", "gap.run", "api.result"}
	jobP50, okJob := medOf(t.jobLat)
	sum := 0.0
	for _, n := range blocking {
		v, ok := medOf(self[n])
		if n != "client.job" && n != "serve.queue" {
			ms.setIf("self_ms."+n, "ms", v, ok)
		}
		sum += v
	}
	ms.setIf("attrib.job_remainder_ms", "ms", jobP50-sum, okJob)
	writePath := []string{"graph.check_frozen", "graph.apply", "graph.freeze", "graph.update_fragments"}
	if b.w.durable {
		writePath = append(writePath, "durable.wal_append")
	}
	mutP50, okMut := medOf(writes.mutLat)
	sum = 0
	for _, n := range writePath {
		v, _ := medOf(dur[n])
		sum += v
	}
	ms.setIf("attrib.mutate_remainder_ms", "ms", mutP50-sum, okMut)
	plainP50, okPlain := medOf(plain.jobLat)
	ms.setIf("trace.overhead_ms", "ms", jobP50-plainP50, okJob && okPlain)
	return ms
}

// child runs this binary again with args and returns the "seconds" value of
// its last output line.
func child(args ...string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", args[0], err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		last = sc.Text()
	}
	var v struct{ Seconds float64 }
	if err := json.Unmarshal([]byte(last), &v); err != nil {
		return 0, fmt.Errorf("%s: %q: %w", args[0], last, err)
	}
	return v.Seconds, nil
}

// recoverProbe times serve.Open over a state directory in a fresh process.
func recoverProbe(dir string) (float64, error) { return child("--recover-probe", dir) }

// openTimed reopens a durable service over dir, replaying its WAL and
// reseeding its warm fixpoints, and returns the seconds that took.
func openTimed(dir string) (float64, error) {
	t0 := time.Now()
	svc, err := serve.Open(serve.Config{Cores: serviceCores, StateDir: dir})
	s := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	defer svc.Drain(30 * time.Second)
	if rec := svc.Recovery(); rec == nil || rec.Datasets == 0 {
		return 0, fmt.Errorf("nothing recovered from %s", dir)
	}
	return s, nil
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // kilobytes on Linux
}
