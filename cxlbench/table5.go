package main

import (
	"fmt"

	cxlmc "repro"
	"repro/internal/harness"
	"repro/internal/recipe"
)

// table5Seed0 is the published Table 5 exploration size per row at
// seed 0 (EXPERIMENTS.md, reduction on): TSO rows then GPF rows, in
// harness.Benchmarks order. Race detection and the vet pre-pass leave
// these counts unchanged on the fixed benchmarks.
var table5Seed0 = map[bool][]int{
	false: {48, 96, 74, 246, 50, 93},
	true:  {27, 41, 52, 77, 29, 39},
}

// table5 checks the 12 Table 5 rows: six fixed RECIPE structures under
// TSO and GPF, vet plus full exploration at the default worker count.
type table5 struct {
	closedLoop
	e *env
}

func newTable5(e *env, g *gate) *table5 { return &table5{closedLoop: closedLoop{g: g}, e: e} }

func (w *table5) prepare() error {
	var items []item
	for _, gpf := range []bool{false, true} {
		for i, b := range harness.Benchmarks {
			want := table5Seed0[gpf][i]
			name := b.Name
			if gpf {
				name += "_GPF"
			}
			items = append(items, item{name: "table5/" + name, check: func(c checkCtx) outcome {
				return w.check(c, b, gpf, want)
			}})
		}
	}
	w.items = shuffled(items, w.e.seed)
	return nil
}

func (w *table5) check(c checkCtx, b recipe.Benchmark, gpf bool, want int) outcome {
	var o outcome
	var prog func(*cxlmc.Program)
	c.span("program.build", 0, func(int64) { prog = recipe.Program(b, harness.Table5Config()) })
	cfg := cxlmc.Config{Seed: w.e.seed, GPF: gpf, MaxExecutions: 2_000_000, RaceDetect: cxlmc.SwitchOn}
	if o.err = vet(c, &o, &cfg, prog); o.err != nil {
		return o
	}
	res, err := explore(c, &o, cfg, prog)
	if err != nil {
		o.err = err
		return o
	}
	// Known answer: every fixed row is clean and explored to the end;
	// at seed 0 its size is the published one.
	o.seeded, o.found = 0, 0
	o.fp = fmt.Sprintf("execs=%d fpoints=%d rfpoints=%d steps=%d", res.Executions, res.FailurePoints, res.ReadFromPoints, res.Steps)
	switch {
	case res.Buggy():
		o.err = fmt.Errorf("fixed benchmark reported %s", bugSet(res.Bugs))
	case !res.Complete:
		o.err = fmt.Errorf("exploration stopped after %d executions without completing", res.Executions)
	case w.e.seed == 0 && res.Executions != want:
		o.err = fmt.Errorf("explored %d executions at seed 0, Table 5 has %d", res.Executions, want)
	}
	return o
}
