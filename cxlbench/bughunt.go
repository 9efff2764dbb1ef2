package main

import (
	"fmt"

	cxlmc "repro"
	"repro/internal/cxlshm"
	"repro/internal/harness"
	"repro/internal/recipe"
)

// bughunt hunts each of the 22 Table 3 seeded RECIPE bugs and the two
// Table 4 CXL-SHM bugs: vet, explore to the first bug, replay its token.
// It runs serially (Workers: 1) because which bug a parallel run stops
// at first, and after how many executions, still depends on worker
// timing; the serial hunt is the well-defined one.
type bughunt struct {
	closedLoop
	e *env
}

func newBughunt(e *env, g *gate) *bughunt { return &bughunt{closedLoop: closedLoop{g: g}, e: e} }

// Bug kinds EXPERIMENTS.md lists for Tables 3 (by bug number) and 4 (by
// case name) at seed 0. With race detection on, a missing-flush bug may
// instead surface as its root cause, an unflushed publish exposed by the
// crash, which the detector reports in place of the downstream
// segfault or assertion.
var (
	table3Kinds = map[int]cxlmc.BugKind{
		1: cxlmc.BugAssertion, 2: cxlmc.BugSegfault, 3: cxlmc.BugSegfault,
		4: cxlmc.BugAssertion, 5: cxlmc.BugAssertion, 6: cxlmc.BugAssertion, 7: cxlmc.BugAssertion, 8: cxlmc.BugSegfault,
		9: cxlmc.BugAssertion, 10: cxlmc.BugAssertion, 11: cxlmc.BugSegfault, 12: cxlmc.BugAssertion, 13: cxlmc.BugAssertion,
		14: cxlmc.BugSegfault, 15: cxlmc.BugSegfault, 16: cxlmc.BugSegfault, 17: cxlmc.BugAssertion, 18: cxlmc.BugSegfault,
		19: cxlmc.BugSegfault, 20: cxlmc.BugSegfault, 21: cxlmc.BugSegfault,
		22: cxlmc.BugAssertion,
	}
	table4Kinds = map[string]cxlmc.BugKind{"kv": cxlmc.BugAssertion, "test_stress": cxlmc.BugPanic}
)

func (w *bughunt) prepare() error {
	var items []item
	for _, b := range harness.Benchmarks {
		for _, bi := range b.Bugs {
			rc := recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit}
			name := fmt.Sprintf("bughunt/table3-%d-%s", bi.Table, b.Name)
			items = append(items, item{name: name, check: func(c checkCtx) outcome {
				return w.check(c, table3Kinds[bi.Table], func() func(*cxlmc.Program) { return recipe.Program(b, rc) })
			}})
		}
	}
	for i, cs := range cxlshm.Cases {
		name := fmt.Sprintf("bughunt/table4-%d-%s", i+1, cs.Name)
		items = append(items, item{name: name, check: func(c checkCtx) outcome {
			return w.check(c, table4Kinds[cs.Name], func() func(*cxlmc.Program) { return cs.Program(cs.Bit) })
		}})
	}
	w.items = shuffled(items, w.e.seed)
	return nil
}

func (w *bughunt) check(c checkCtx, kind cxlmc.BugKind, build func() func(*cxlmc.Program)) outcome {
	o := outcome{seeded: 1}
	var prog func(*cxlmc.Program)
	c.span("program.build", 0, func(int64) { prog = build() })
	cfg := cxlmc.Config{Seed: w.e.seed, Workers: 1, MaxExecutions: harness.DefaultMaxExecutions,
		RaceDetect: cxlmc.SwitchOn}
	if o.err = vet(c, &o, &cfg, prog); o.err != nil {
		return o
	}
	res, err := explore(c, &o, cfg, prog)
	if err != nil {
		o.err = err
		return o
	}
	if !res.Buggy() {
		// A miss is not a wrong verdict: some seeds' schedules never
		// reach a bug (Table 3 #13 at seeds 1-3). It lowers detect_ratio,
		// and at seed 0, where all 24 are known to be found, it fails.
		o.fp = fmt.Sprintf("clean after %d executions", res.Executions)
		if w.e.seed == 0 {
			o.err = fmt.Errorf("seeded bug not found at seed 0: %s", harness.HuntDiagnosis(res))
		}
		return o
	}
	o.found = 1
	b := res.Bugs[0]
	o.fp = fmt.Sprintf("%s at execution %d of %d", bugKey(b), b.Execution, res.Executions)
	if w.e.seed == 0 && b.Kind != kind && b.Kind != cxlmc.BugUnflushedPublish {
		o.err = fmt.Errorf("found %s, the published table has a %s bug", bugKey(b), kind)
		return o
	}
	o.err = replay(c, &o, b, cfg, prog)
	return o
}
