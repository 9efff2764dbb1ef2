package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// endToEnd turns an untraced phase into the end-to-end metrics, whose
// times are process CPU time, and their wall-clock counterparts.
func endToEnd(ph *phase, setups, setupWalls []time.Duration) (e2e, wall map[string]metric) {
	n := float64(len(ph.checks))
	var execs, seeded, found, failed int
	for _, r := range ph.checks {
		execs += r.o.stats.Executions
		seeded += r.o.seeded
		found += r.o.found
		if r.o.err != nil {
			failed++
		}
	}
	// detect_ratio is seeded bugs found per seeded bug. table5 seeds no
	// bugs; its known verdict is "clean and complete", so there it is the
	// share of rows that reproduced that verdict.
	detect := 1 - float64(failed)/n
	if seeded > 0 {
		detect = float64(found) / float64(seeded)
	}
	checksPerS, execsPerS := n/ph.wall.Seconds(), float64(execs)/ph.wall.Seconds()
	execsPerCPUs, cpuPerCheck := float64(execs)/ph.cpu.Seconds(), ms(ph.cpu)/n
	if len(ph.passes) > 0 {
		var cr, er, ec, cpu []float64
		for _, p := range ph.passes {
			cr = append(cr, float64(p.checks)/p.wall.Seconds())
			er = append(er, float64(p.execs)/p.wall.Seconds())
			ec = append(ec, float64(p.execs)/p.cpu.Seconds())
			cpu = append(cpu, ms(p.cpu)/float64(p.checks))
		}
		checksPerS, execsPerS, execsPerCPUs, cpuPerCheck = medianF(cr), medianF(er), medianF(ec), medianF(cpu)
	}
	e2e = map[string]metric{
		"setup_s":            {median(setups).Seconds(), "s"},
		"execs_per_cpu_s":    {execsPerCPUs, "1/s"},
		"cpu_ms_per_check":   {cpuPerCheck, "ms"},
		"verdict_cpu_p50_ms": {verdictPercentile(ph, 50, cpuOf), "ms"},
		"verdict_cpu_p90_ms": {verdictPercentile(ph, 90, cpuOf), "ms"},
		"detect_ratio":       {detect, "ratio"},
		"ok_ratio":           {1 - float64(failed)/n, "ratio"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
	}
	wall = map[string]metric{
		"setup_s":        {median(setupWalls).Seconds(), "s"},
		"checks_per_s":   {checksPerS, "1/s"},
		"execs_per_s":    {execsPerS, "1/s"},
		"verdict_p50_ms": {verdictPercentile(ph, 50, wallOf), "ms"},
		"verdict_p90_ms": {verdictPercentile(ph, 90, wallOf), "ms"},
	}
	if ph.checks[0].cpu == 0 {
		// Overlapping service jobs cannot be charged their own CPU time.
		delete(e2e, "verdict_cpu_p50_ms")
		delete(e2e, "verdict_cpu_p90_ms")
	}
	return e2e, wall
}

func wallOf(r checkRec) time.Duration { return r.dur }
func cpuOf(r checkRec) time.Duration  { return r.cpu }

// verdictPercentile is the p-th percentile of a time per check (wall
// clock or CPU, as of picks), in ms.
// When a closed loop cycles through several distinct checks, it is taken
// over one typical pass: each distinct check contributes the median of
// its repeats, interpolated between neighbouring checks. Pooling the
// repeats instead would put the median exactly on the boundary between
// two checks' groups (every pass has the same checks), where it reads
// the slowest repeat of one of them and jumps from run to run.
func verdictPercentile(ph *phase, p float64, of func(checkRec) time.Duration) float64 {
	byItem := map[int][]time.Duration{}
	var all []time.Duration
	for _, r := range ph.checks {
		byItem[r.item] = append(byItem[r.item], of(r))
		all = append(all, of(r))
	}
	if len(ph.passes) == 0 || len(byItem) < 2 {
		return ms(percentile(all, p))
	}
	typical := make([]float64, 0, len(byItem))
	for _, ds := range byItem {
		typical = append(typical, ms(median(ds)))
	}
	sort.Float64s(typical)
	pos := p / 100 * float64(len(typical)-1)
	lo := int(pos)
	hi := min(lo+1, len(typical)-1)
	return typical[lo] + (pos-float64(lo))*(typical[hi]-typical[lo])
}

// spanNames are the layer boundaries the benchmark times; each gets a mean
// self-time metric "<name>.self_ms".
var spanNames = []string{"check", "program.build", "program.setup", "gofront.load", "analyze.vet",
	"core.run", "decision.replay", "jobs.submit", "jobs.wait", "jobs.queue", "jobs.run"}

// metricSpec is one per-layer metric's name and unit.
type metricSpec struct{ name, unit string }

// perLayerSpec lists every per-layer metric a traced run prints, in
// BENCHMARK.json order.
var perLayerSpec = func() []metricSpec {
	specs := []metricSpec{
		{"program.setup_us", "us"}, {"program.setup_share", "ratio"},
		{"analyze.vet_ms", "ms"}, {"analyze.vet_events", "count"}, {"analyze.vet_findings", "count"},
		{"core.run_ms", "ms"}, {"core.exec_us", "us"}, {"core.step_ns", "ns"}, {"core.start_gap_ms", "ms"},
		{"core.executions", "count"}, {"core.steps", "count"}, {"core.fpoints", "count"},
		{"core.rfpoints", "count"}, {"core.pruned", "count"}, {"core.prune_ratio", "ratio"},
		{"core.prefix_forks", "count"}, {"core.steps_saved_ratio", "ratio"},
		{"core.race_reports", "count"}, {"core.execs_to_bug", "count"},
		{"core.backtracks", "count"}, {"core.unit_claims", "count"},
		{"decision.replay_ms", "ms"}, {"decision.replay_ok_ratio", "ratio"},
		{"gofront.load_ms", "ms"}, {"gofront.exec_us", "us"}, {"gofront.interp_ratio", "ratio"},
		{"jobs.submit_ms", "ms"}, {"jobs.queue_wait_ms", "ms"}, {"jobs.run_ms", "ms"},
		{"jobs.engine_share", "ratio"}, {"jobs.notify_lag_ms", "ms"},
		{"jobs.rejected", "count"}, {"jobs.retried", "count"}, {"jobs.journal_retries", "count"},
		{"jobs.events_lost", "count"},
		{"loadgen.late_ms", "ms"},
		{"sched.handoff_ns", "ns"}, {"memmodel.commit_ns", "ns"}, {"decision.choose_ns", "ns"},
		{"runtime.alloc_kb_per_check", "KB"}, {"runtime.gc_cycles_per_check", "count"},
		{"bench.samples", "count"}, {"trace.overhead_ratio", "ratio"},
	}
	for _, n := range spanNames {
		specs = append(specs, metricSpec{n + ".self_ms", "ms"})
	}
	return specs
}()

// perLayer builds the traced run's metrics. Each layer's metrics come
// from the main workload's traced phase when that workload calls the
// layer, and otherwise from the first sweep phase that does.
func perLayer(main string, plain, traced *phase, sweeps map[string]*phase, tr *tracer, pr probes) map[string]metric {
	spans := tr.snapshot()
	out := layerMetrics(traced, spans)
	for _, name := range workloadNames {
		if ph := sweeps[name]; ph != nil {
			for k, v := range layerMetrics(ph, spans) {
				if _, ok := out[k]; !ok {
					out[k] = v
				}
			}
		}
	}
	n := float64(len(plain.checks))
	out["runtime.alloc_kb_per_check"] = metric{float64(plain.alloc) / 1024 / n, "KB"}
	out["runtime.gc_cycles_per_check"] = metric{float64(plain.gcs) / n, "count"}
	out["bench.samples"] = metric{float64(len(traced.checks)), "count"}
	of := cpuOf
	if plain.checks[0].cpu == 0 {
		of = wallOf
	}
	out["trace.overhead_ratio"] = metric{verdictPercentile(traced, 50, of)/verdictPercentile(plain, 50, of) - 1, "ratio"}
	out["sched.handoff_ns"] = metric{pr.handoff, "ns"}
	out["memmodel.commit_ns"] = metric{pr.commit, "ns"}
	out["decision.choose_ns"] = metric{pr.choose, "ns"}
	for _, m := range perLayerSpec {
		if _, ok := out[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "cxlbench: %s: no phase of this traced run measured %s\n", main, m.name)
			out[m.name] = metric{0, m.unit}
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics one phase can give.
func layerMetrics(ph *phase, spans []span) map[string]metric {
	out := map[string]metric{}
	keep := map[int64]bool{}
	for _, r := range ph.checks {
		keep[r.id] = true
	}
	agg := aggregate(spans, keep)
	mean := func(name string) (time.Duration, bool) {
		a := agg[name]
		if a == nil || a.n == 0 {
			return 0, false
		}
		return a.total / time.Duration(a.n), true
	}
	for _, name := range spanNames {
		if a := agg[name]; a != nil && a.n > 0 {
			out[name+".self_ms"] = metric{ms(a.self) / float64(a.n), "ms"}
		}
	}

	// Totals over every check of the phase, and over one pass: the
	// first check of each distinct item, which repeats exactly.
	var all, pass outcome
	var jobsSeen []*jobTiming
	seen := map[int]bool{}
	for _, r := range ph.checks {
		sum(&all, r.o)
		if !seen[r.item] {
			seen[r.item] = true
			sum(&pass, r.o)
		}
		if r.o.job != nil {
			jobsSeen = append(jobsSeen, r.o.job)
		}
	}

	if run := agg["core.run"]; run != nil && run.n > 0 {
		if setup := agg["program.setup"]; setup != nil && setup.n > 0 {
			out["program.setup_us"] = metric{us(setup.total) / float64(setup.n), "us"}
			out["program.setup_share"] = metric{setup.total.Seconds() / run.total.Seconds(), "ratio"}
		}
		d, _ := mean("core.run")
		out["core.run_ms"] = metric{ms(d), "ms"}
		out["core.exec_us"] = metric{us(run.total) / float64(all.stats.Executions), "us"}
		out["core.step_ns"] = metric{float64(run.total.Nanoseconds()) / float64(all.stats.Steps), "ns"}
		out["core.start_gap_ms"] = metric{ms(run.total-all.elapsed) / float64(all.runs), "ms"}
		s := pass.stats
		out["core.executions"] = metric{float64(s.Executions), "count"}
		out["core.steps"] = metric{float64(s.Steps), "count"}
		out["core.fpoints"] = metric{float64(s.FailurePoints), "count"}
		out["core.rfpoints"] = metric{float64(s.ReadFromPoints), "count"}
		out["core.pruned"] = metric{float64(s.Pruned), "count"}
		out["core.prune_ratio"] = metric{ratio(float64(s.Pruned), float64(s.Pruned)+float64(s.FailurePoints)), "ratio"}
		out["core.prefix_forks"] = metric{float64(s.PrefixForks), "count"}
		out["core.steps_saved_ratio"] = metric{ratio(float64(s.StepsSaved), float64(s.Steps)), "ratio"}
		out["core.race_reports"] = metric{float64(s.RaceReports), "count"}
		out["core.backtracks"] = metric{float64(pass.backtracks), "count"}
		out["core.unit_claims"] = metric{float64(pass.unitClaims), "count"}
		if pass.bugRuns > 0 {
			out["core.execs_to_bug"] = metric{float64(pass.execsToBug) / float64(pass.bugRuns), "count"}
		}
	}
	if d, ok := mean("analyze.vet"); ok && all.vets > 0 {
		out["analyze.vet_ms"] = metric{ms(d), "ms"}
		out["analyze.vet_events"] = metric{float64(pass.vetEvents) / float64(pass.vets), "count"}
		out["analyze.vet_findings"] = metric{float64(pass.vetFinds) / float64(pass.vets), "count"}
	}
	if d, ok := mean("decision.replay"); ok {
		out["decision.replay_ms"] = metric{ms(d), "ms"}
		out["decision.replay_ok_ratio"] = metric{ratio(float64(all.replayOK), float64(all.replays)), "ratio"}
	}
	if d, ok := mean("gofront.load"); ok {
		out["gofront.load_ms"] = metric{ms(d), "ms"}
		if run := agg["core.run"]; run != nil && all.stats.Executions > 0 {
			exec := us(run.total) / float64(all.stats.Executions)
			out["gofront.exec_us"] = metric{exec, "us"}
			if ph.handExecs > 0 {
				out["gofront.interp_ratio"] = metric{exec / (us(ph.handWall) / float64(ph.handExecs)), "ratio"}
			}
		}
	}
	if len(jobsSeen) > 0 {
		var queue, run, lag time.Duration
		lost := 0
		late := make([]time.Duration, 0, len(jobsSeen))
		for _, j := range jobsSeen {
			if j.eventLost {
				lost++
			}
			queue += j.started.Sub(j.submitted)
			run += j.finished.Sub(j.started)
			lag += j.seen.Sub(j.finished)
			late = append(late, j.sent.Sub(j.due))
		}
		k := time.Duration(len(jobsSeen))
		d, _ := mean("jobs.submit")
		out["jobs.submit_ms"] = metric{ms(d), "ms"}
		out["jobs.queue_wait_ms"] = metric{ms(queue / k), "ms"}
		out["jobs.run_ms"] = metric{ms(run / k), "ms"}
		out["jobs.engine_share"] = metric{ratio(all.elapsed.Seconds(), run.Seconds()), "ratio"}
		out["jobs.notify_lag_ms"] = metric{ms(lag / k), "ms"}
		out["jobs.rejected"] = metric{ph.counters["cxlmc_jobs_rejected"], "count"}
		out["jobs.retried"] = metric{ph.counters["cxlmc_jobs_retried"], "count"}
		out["jobs.journal_retries"] = metric{ph.counters["cxlmc_jobs_journal_retries"], "count"}
		out["jobs.events_lost"] = metric{float64(lost), "count"}
		out["loadgen.late_ms"] = metric{ms(percentile(late, 90)), "ms"}
	}
	return out
}

// sum adds o's counts into dst.
func sum(dst *outcome, o outcome) {
	addStats(&dst.stats, o.stats)
	dst.runs += o.runs
	dst.elapsed += o.elapsed
	dst.bugRuns += o.bugRuns
	dst.execsToBug += o.execsToBug
	dst.vets += o.vets
	dst.vetEvents += o.vetEvents
	dst.vetFinds += o.vetFinds
	dst.replays += o.replays
	dst.replayOK += o.replayOK
	dst.backtracks += o.backtracks
	dst.unitClaims += o.unitClaims
}

// percentile is the nearest-rank p-th percentile.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// medianF is the median of vs (the mean of the middle two for an even
// count).
func medianF(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
