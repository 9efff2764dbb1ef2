package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	cxlmc "repro"
)

// workload is one named benchmark workload. A check is one program
// taken to a verdict.
type workload interface {
	// prepare builds the programs and the known answers.
	prepare() error
	// warm runs the untimed warm-up that ends set-up.
	warm() error
	// run checks for d and returns the phase with every check it
	// completed; runPhase adds what the process spent.
	run(d time.Duration, tr *tracer) *phase
	// sweep runs a short fixed traced pass for another workload's
	// traced run.
	sweep(tr *tracer) *phase
	close()
}

// outcome is what one check did, as the benchmark saw it from outside the
// layers it called.
type outcome struct {
	fp     string // verdict fingerprint: repeats of one item must agree
	seeded int    // seeded bugs the check should find
	found  int    // of those, found
	err    error  // wrong verdict or a Run/Replay/job error

	stats      cxlmc.Stats   // summed over the check's Run calls
	runs       int           // Run calls
	elapsed    time.Duration // Result.Elapsed summed over Run calls
	bugRuns    int           // Run calls that found a bug
	execsToBug int           // Executions of those runs
	vets       int
	vetEvents  int
	vetFinds   int
	replays    int
	replayOK   int
	backtracks int64 // from Config.Obs, traced checks only
	unitClaims int64
	job        *jobTiming // service checks only
}

// checkRec is one completed check.
type checkRec struct {
	id   int64 // the check's trace ID (0 untraced)
	item int
	dur  time.Duration // wall clock
	cpu  time.Duration // process CPU time; 0 where checks overlap (service)
	o    outcome
}

// phase is one measured window: its checks and what the process spent.
type phase struct {
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	checks []checkRec
	// passes splits a closed loop's phase into whole passes over its
	// items; the rates are medians over passes, so a burst of load from
	// outside the process moves a few passes and not the result.
	passes []pass
	// counters holds job-server counter deltas over the phase.
	counters map[string]float64
	// hand is the hand-ported CCEH reference cost over the phase, for
	// gofront.interp_ratio.
	handWall  time.Duration
	handExecs int
	// steal is the share of the host's CPU time the hypervisor gave to
	// other guests during the phase: noise from outside, recorded so
	// a slow run can be told from a slow program.
	steal float64
}

// pass is one whole pass of a closed loop over its items.
type pass struct {
	checks int
	execs  int
	wall   time.Duration
	cpu    time.Duration
}

// runPhase runs w for d and records wall time, process CPU time and
// allocation around it.
func runPhase(w workload, d time.Duration, tr *tracer) *phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, stat0 := cpuTime(), hostCPU()
	t0 := time.Now()
	ph := w.run(d, tr)
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	if stat1 := hostCPU(); stat1.total > stat0.total {
		ph.steal = float64(stat1.steal-stat0.steal) / float64(stat1.total-stat0.total)
	}
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.gcs = m1.NumGC - m0.NumGC
	return ph
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gate judges every check of the run, across set-up, the measured
// window and the layer sweep.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	fps       map[string]string
}

// judge counts a check and fails it on an error or on a verdict that
// differs from the first one this item gave.
func (g *gate) judge(name string, o outcome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	err := o.err
	if err == nil && o.fp != "" {
		if g.fps == nil {
			g.fps = map[string]string{}
		}
		if prev, ok := g.fps[name]; !ok {
			g.fps[name] = o.fp
		} else if prev != o.fp {
			err = fmt.Errorf("verdict changed between repeats: %s, then %s", prev, o.fp)
		}
	}
	if err != nil {
		g.failed++
		if len(g.errs) < 20 {
			g.errs = append(g.errs, name+": "+err.Error())
		}
	}
}

func (g *gate) totals() (attempted, failed int, errs []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed, append([]string(nil), g.errs...)
}

// item is one distinct check of a closed-loop workload.
type item struct {
	name  string
	check func(c checkCtx) outcome
}

// sweepChecks is how many checks a workload runs in another workload's
// layer sweep.
const sweepChecks = 3

// closedLoop runs its items one at a time, each as soon as the previous
// one finished, cycling through them in the seed's order.
type closedLoop struct {
	g     *gate
	items []item
	// traced, when set, runs after each traced check, outside its timing.
	traced func(ph *phase)
}

func (l *closedLoop) one(i int, tr *tracer) checkRec {
	it := l.items[i%len(l.items)]
	c := newCheck(tr)
	start, cpu0 := time.Now(), cpuTime()
	o := it.check(c)
	end, cpu1 := time.Now(), cpuTime()
	c.root(start, end)
	l.g.judge(it.name, o)
	return checkRec{id: c.id, item: i % len(l.items), dur: end.Sub(start), cpu: cpu1 - cpu0, o: o}
}

func (l *closedLoop) warm() error {
	for i := range l.items {
		l.one(i, nil)
	}
	return nil
}

// run checks whole passes over the items until d has passed, so every
// run weighs the items alike whatever the window length.
func (l *closedLoop) run(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	deadline := time.Now().Add(d)
	var p pass
	t0, cpu0 := time.Now(), cpuTime()
	for i := 0; i%len(l.items) != 0 || i == 0 || time.Now().Before(deadline); i++ {
		r := l.one(i, tr)
		ph.checks = append(ph.checks, r)
		p.checks++
		p.execs += r.o.stats.Executions
		if tr != nil && l.traced != nil {
			l.traced(ph)
		}
		if (i+1)%len(l.items) == 0 {
			t1, cpu1 := time.Now(), cpuTime()
			p.wall, p.cpu = t1.Sub(t0), cpu1-cpu0
			ph.passes = append(ph.passes, p)
			p, t0, cpu0 = pass{}, t1, cpu1
		}
	}
	return ph
}

func (l *closedLoop) sweep(tr *tracer) *phase {
	t0 := time.Now()
	ph := &phase{}
	for i := 0; i < sweepChecks; i++ {
		ph.checks = append(ph.checks, l.one(i, tr))
		if l.traced != nil {
			l.traced(ph)
		}
	}
	ph.wall = time.Since(t0)
	return ph
}

func (l *closedLoop) close() {}

// shuffled returns items in the order the workload seed picks.
func shuffled(items []item, seed int64) []item {
	rng := newRand(seed)
	out := append([]item(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// vet runs the cxlvet pre-pass the CLI runs before exploring with race
// detection on, and arms cfg with its flagged lines.
func vet(c checkCtx, o *outcome, cfg *cxlmc.Config, prog func(*cxlmc.Program)) error {
	var (
		rep *cxlmc.VetReport
		err error
	)
	c.span("analyze.vet", 0, func(int64) { rep, err = cxlmc.Vet(*cfg, prog) })
	if err != nil {
		return fmt.Errorf("vet: %w", err)
	}
	cfg.UnflushedLines = rep.FlaggedLines()
	o.vets++
	o.vetEvents += rep.Events
	o.vetFinds += len(rep.Findings)
	return nil
}

// explore runs the checker on prog, timing each setup call when traced.
func explore(c checkCtx, o *outcome, cfg cxlmc.Config, prog func(*cxlmc.Program)) (*cxlmc.Result, error) {
	var reg *cxlmc.MetricsRegistry
	if c.traced() {
		reg = cxlmc.NewMetricsRegistry()
		cfg.Obs = reg
	}
	var (
		res *cxlmc.Result
		err error
	)
	c.span("core.run", 0, func(id int64) { res, err = cxlmc.Run(cfg, c.wrapSetup(id, prog)) })
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	o.runs++
	o.elapsed += res.Elapsed
	addStats(&o.stats, res.Stats)
	if res.Buggy() {
		o.bugRuns++
		o.execsToBug += res.Executions
	}
	if reg != nil {
		snap := reg.Snapshot()
		o.backtracks += int64(snap["cxlmc_backtracks_total"])
		o.unitClaims += int64(snap["cxlmc_unit_claims_total"])
	}
	return res, nil
}

// replay re-runs a bug's repro token and checks it reproduces the bug.
func replay(c checkCtx, o *outcome, b cxlmc.Bug, cfg cxlmc.Config, prog func(*cxlmc.Program)) error {
	var (
		res *cxlmc.Result
		err error
	)
	c.span("decision.replay", 0, func(id int64) { res, err = cxlmc.Replay(b.ReproToken, cfg, prog) })
	o.replays++
	if err != nil {
		return fmt.Errorf("replay of %s: %w", bugKey(b), err)
	}
	for _, rb := range res.Bugs {
		if rb.Kind == b.Kind && rb.Message == b.Message {
			o.replayOK++
			return nil
		}
	}
	return fmt.Errorf("token of %s did not reproduce it (replay found %v)", bugKey(b), bugSet(res.Bugs))
}

func addStats(dst *cxlmc.Stats, s cxlmc.Stats) {
	dst.Executions += s.Executions
	dst.FailurePoints += s.FailurePoints
	dst.ReadFromPoints += s.ReadFromPoints
	dst.Steps += s.Steps
	dst.Pruned += s.Pruned
	dst.PrefixForks += s.PrefixForks
	dst.StepsSaved += s.StepsSaved
	dst.RaceReports += s.RaceReports
}

func bugKey(b cxlmc.Bug) string { return fmt.Sprintf("[%s] %s", b.Kind, b.Message) }

// bugSet is the sorted, comparable form of a bug list.
func bugSet(bugs []cxlmc.Bug) string {
	keys := make([]string, len(bugs))
	for i, b := range bugs {
		keys[i] = fmt.Sprintf("%s (machine %s, thread %s)", bugKey(b), b.Machine, b.Thread)
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, "; ") + "}"
}
