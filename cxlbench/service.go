package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	cxlmc "repro"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
	"repro/internal/recipe/pclht"
)

// Offered load of the service workload, in jobs per second per tenant.
// Together they keep the default two-job pool well below saturation.
const (
	rateGen   = 14.0 // tenant "a": generated random programs
	rateNamed = 6.0  // tenant "b": named RECIPE specs
	// genPool is how many generated programs tenant "a" submits in
	// turn, each at most genMaxExecs executions long, so that the job mix
	// weighs about the same whatever the seed.
	genPool     = 96
	genMaxExecs = 16
	// jobTimeout bounds one job from submit to terminal state.
	jobTimeout = 60 * time.Second
	// sweepJobs is the service's share of another workload's sweep.
	sweepJobs = 8
)

// service runs jobs on an in-process job server (loopback HTTP, journal
// on disk, default pool) submitted by two independent tenants on an
// open-loop schedule. Each job's verdict must equal a direct
// cxlmc.Run of the same spec, done during set-up.
type service struct {
	e     *env
	g     *gate
	dir   string
	srv   *jobs.Server
	cl    *jobs.Client
	base  string // the server's URL
	specs []svcSpec
	gen   []int // indices of tenant "a" specs
	named []int // indices of tenant "b" specs
}

type svcSpec struct {
	name   string
	spec   jobs.Spec
	seeded int
	want   *cxlmc.Result
}

// jobTiming is one job's lifecycle as the client and the server's
// Status timestamps saw it.
type jobTiming struct {
	due, sent, seen              time.Time
	submitted, started, finished time.Time
	submit                       time.Duration
	eventLost                    bool // the event stream ended without the terminal state
}

func newService(e *env, g *gate) *service { return &service{e: e, g: g} }

func (w *service) offeredRate() float64 { return rateGen + rateNamed }

func (w *service) prepare() error {
	rng := newRand(w.e.seed)
	add := func(name string, sp jobs.Spec, seeded int) {
		sp.Seed = w.e.seed
		sp.RaceDetect = cxlmc.SwitchOn
		w.specs = append(w.specs, svcSpec{name: name, spec: sp, seeded: seeded})
	}
	for len(w.gen) < genPool {
		gs := rng.Int63n(1 << 31)
		add(fmt.Sprintf("service/gen-%d", gs), jobs.Spec{Tenant: "a", Gen: &jobs.GenSpec{Seed: gs}}, 0)
		s := &w.specs[len(w.specs)-1]
		if err := w.direct(s); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if s.want.Executions > genMaxExecs {
			w.specs = w.specs[:len(w.specs)-1]
			continue
		}
		w.gen = append(w.gen, len(w.specs)-1)
	}
	named := []struct {
		name   string
		spec   jobs.Spec
		seeded int
	}{
		{"P-CLHT_GPF", jobs.Spec{Bench: "P-CLHT", GPF: true}, 0},
		{"CCEH_GPF", jobs.Spec{Bench: "CCEH", GPF: true}, 0},
		{"CCEH-bug1", jobs.Spec{Bench: "CCEH", Bugs: uint32(cceh.BugCtorSegmentFlush)}, 1},
		{"P-CLHT-bug21", jobs.Spec{Bench: "P-CLHT", Bugs: uint32(pclht.BugCtorArrayFlush)}, 1},
	}
	for _, n := range named {
		n.spec.Tenant = "b"
		w.named = append(w.named, len(w.specs))
		add("service/"+n.name, n.spec, n.seeded)
	}
	for _, i := range w.named {
		if err := w.direct(&w.specs[i]); err != nil {
			return fmt.Errorf("%s: %w", w.specs[i].name, err)
		}
	}

	tmp := filepath.Join(w.e.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "service-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.srv, err = jobs.Start(jobs.Config{Addr: "127.0.0.1:0", Dir: dir}); err != nil {
		return err
	}
	w.cl = jobs.NewClient(w.srv.Addr())
	w.base = "http://" + w.srv.Addr()
	return nil
}

// direct computes a spec's known answer the way the job server runs it:
// same program, same whitelisted knobs, one engine worker, the vet
// pre-pass before a race-detecting run.
func (w *service) direct(s *svcSpec) error {
	sp := s.spec
	var prog func(*cxlmc.Program)
	if sp.Gen != nil {
		prog = harness.Generate(sp.Gen.Seed, harness.GenConfig{})
	} else {
		var ok bool
		prog, ok = harness.ProgramByName(sp.Bench, recipe.Config{Keys: sp.Keys, Workers: sp.InsertWorkers,
			Stride: sp.Stride, Bugs: recipe.Bug(sp.Bugs)})
		if !ok {
			return fmt.Errorf("unknown benchmark %q", sp.Bench)
		}
	}
	cfg := cxlmc.Config{Seed: sp.Seed, GPF: sp.GPF, Workers: 1, RaceDetect: sp.RaceDetect}
	var o outcome
	if err := vet(checkCtx{}, &o, &cfg, prog); err != nil {
		return err
	}
	res, err := cxlmc.Run(cfg, prog)
	if err != nil {
		return err
	}
	if s.seeded > 0 && !res.Buggy() {
		return fmt.Errorf("seeded bug not found by the direct run: %s", harness.HuntDiagnosis(res))
	}
	s.want = res
	return nil
}

// warm runs every spec once, one at a time.
func (w *service) warm() error {
	for i := range w.specs {
		w.job(i, time.Now(), nil)
	}
	return nil
}

func (w *service) run(d time.Duration, tr *tracer) *phase {
	before := w.srv.Registry().Snapshot()
	checks := w.openLoop(d, tr)
	after := w.srv.Registry().Snapshot()
	ph := &phase{checks: checks, counters: map[string]float64{}}
	for _, k := range []string{"cxlmc_jobs_rejected", "cxlmc_jobs_retried", "cxlmc_jobs_journal_retries"} {
		ph.counters[k] = after[k] - before[k]
	}
	return ph
}

func (w *service) sweep(tr *tracer) *phase {
	d := time.Duration(float64(sweepJobs) / w.offeredRate() * float64(time.Second))
	t0 := time.Now()
	ph := w.run(d, tr)
	ph.wall = time.Since(t0)
	return ph
}

// arrival is one scheduled submission.
type arrival struct {
	at   time.Duration
	spec int
}

// schedule draws one tenant's arrivals in [0, d) at the given rate: the
// i-th job is due at a seeded random point of the i-th 1/rate slot, and
// the jobs submit the pool's specs in turn, in a seeded order. Every run
// with the same seed and length submits the same jobs at the same
// offsets.
func schedule(seed int64, d time.Duration, rate float64, pool []int) []arrival {
	rng := newRand(seed)
	n := max(1, int(math.Round(rate*d.Seconds())))
	slot := float64(d) / float64(n)
	order := rng.Perm(len(pool))
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: time.Duration((float64(i) + rng.Float64()) * slot), spec: pool[order[i%len(pool)]]}
	}
	return out
}

// openLoop submits both tenants' schedules, each job on its own
// goroutine at its due time whether or not earlier jobs finished, and
// waits for every job to reach a terminal state.
func (w *service) openLoop(d time.Duration, tr *tracer) []checkRec {
	var (
		mu  sync.Mutex
		out []checkRec
		wg  sync.WaitGroup
	)
	start := time.Now()
	tenants := [][]arrival{
		schedule(w.e.seed*2+1, d, rateGen, w.gen),
		schedule(w.e.seed*2+2, d, rateNamed, w.named),
	}
	var clients sync.WaitGroup
	for _, arrivals := range tenants {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for _, a := range arrivals {
				due := start.Add(a.at)
				time.Sleep(time.Until(due))
				wg.Add(1)
				go func() {
					defer wg.Done()
					rec := w.job(a.spec, due, tr)
					mu.Lock()
					out = append(out, rec)
					mu.Unlock()
				}()
			}
		}()
	}
	clients.Wait()
	wg.Wait()
	return out
}

// job submits one spec, waits for its terminal state and judges it.
// Its latency runs from the due time to the client seeing the verdict.
func (w *service) job(i int, due time.Time, tr *tracer) checkRec {
	s := &w.specs[i]
	c := newCheck(tr)
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	jt := &jobTiming{due: due, sent: time.Now()}
	var (
		st  jobs.Status
		err error
	)
	c.span("jobs.submit", 0, func(int64) { st, err = w.cl.Submit(ctx, s.spec) })
	jt.submit = time.Since(jt.sent)
	if err == nil {
		c.span("jobs.wait", 0, func(int64) { st, err = w.await(ctx, st.ID, jt) })
	}
	jt.seen = time.Now()
	jt.submitted, jt.started, jt.finished = st.Submitted, st.Started, st.Finished
	c.at("jobs.queue", st.Submitted, st.Started)
	c.at("jobs.run", st.Started, st.Finished)
	c.root(due, jt.seen)

	o := outcome{seeded: s.seeded, job: jt}
	o.err = err
	if err == nil {
		o.err = w.verdict(s, st, &o)
	}
	w.g.judge(s.name, o)
	return checkRec{id: c.id, item: i, dur: jt.seen.Sub(due), o: o}
}

// await follows the job's server-sent event stream until it carries a
// terminal status, which includes the result. Unlike polling, the client
// sees the verdict as soon as the server publishes it. The server can end
// a stream without its terminal event (when the job finishes between the
// stream's first status and its subscription); await then fetches the
// status once and counts the lost event in jt.
func (w *service) await(ctx context.Context, id string, jt *jobTiming) (jobs.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return jobs.Status{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return jobs.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Status{}, fmt.Errorf("events of job %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "status" {
			continue
		}
		var st jobs.Status
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return jobs.Status{}, fmt.Errorf("events of job %s: %w", id, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Status{}, fmt.Errorf("events of job %s: %w", id, err)
	}
	jt.eventLost = true
	st, err := w.cl.Status(ctx, id)
	if err == nil && !st.State.Terminal() {
		err = fmt.Errorf("events of job %s ended in state %s", id, st.State)
	}
	return st, err
}

// verdict compares a finished job with the spec's direct run.
func (w *service) verdict(s *svcSpec, st jobs.Status, o *outcome) error {
	if st.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res := st.Result
	if res == nil {
		return fmt.Errorf("job %s is done without a result", st.ID)
	}
	o.runs = 1
	o.elapsed = res.Elapsed
	addStats(&o.stats, res.Stats)
	if res.Buggy() {
		o.bugRuns, o.execsToBug = 1, res.Executions
		if s.seeded > 0 {
			o.found = s.seeded
		}
	}
	got := fmt.Sprintf("execs=%d fpoints=%d rfpoints=%d complete=%v bugs=%s",
		res.Executions, res.FailurePoints, res.ReadFromPoints, res.Complete, bugSet(res.Bugs))
	want := fmt.Sprintf("execs=%d fpoints=%d rfpoints=%d complete=%v bugs=%s",
		s.want.Executions, s.want.FailurePoints, s.want.ReadFromPoints, s.want.Complete, bugSet(s.want.Bugs))
	if got != want {
		return fmt.Errorf("job %s: %s, direct run: %s", st.ID, got, want)
	}
	return nil
}

func (w *service) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := w.srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "cxlbench: service: drain: %v\n", err)
		}
		cancel()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
