package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	cxlmc "repro"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
)

// sourcePath is the checked Go source file, relative to the repository
// root: the CCEH port with the seeded constructor segment-flush bug.
var sourcePath = filepath.Join("examples", "src", "cceh.go")

// source checks examples/src/cceh.go through the Go front-end: load,
// vet, full exploration with ContinueAfterBug, replay of every token.
// Its known answer is the hand-ported CCEH with the same bug under the
// same configuration, explored during set-up.
type source struct {
	closedLoop
	e    *env
	src  []byte
	want *cxlmc.Result // the hand-ported CCEH's verdict
	hand func(*cxlmc.Program)
	cfg  cxlmc.Config
	// handLines are the vet-flagged lines of the hand-ported CCEH.
	handLines []uint64
}

// The source check's known verdict at seed 0, as EXPERIMENTS.md
// records it for `cxlmc -check examples/src/cceh.go -continue`.
const (
	sourceSeed0Execs = 53
	sourceSeed0Bugs  = 2
)

func newSource(e *env, g *gate) *source {
	w := &source{closedLoop: closedLoop{g: g}, e: e}
	// A traced run also explores the hand-ported CCEH after each check,
	// so the per-execution cost of interpreting source can be compared
	// under the same config.
	w.traced = w.handReference
	return w
}

func (w *source) prepare() error {
	src, err := os.ReadFile(sourcePath)
	if err != nil {
		return err
	}
	w.src = src
	// The cold front-end load: parses and type-checks the cxl API once.
	if _, err := cxlmc.ProgramFromSource(sourcePath, src, ""); err != nil {
		return err
	}
	w.cfg = cxlmc.Config{Seed: w.e.seed, ContinueAfterBug: true, RaceDetect: cxlmc.SwitchOn}
	w.hand = recipe.Program(cceh.Benchmark, recipe.Config{Bugs: cceh.BugCtorSegmentFlush})
	var o outcome
	cfg := w.cfg
	if err := vet(checkCtx{}, &o, &cfg, w.hand); err != nil {
		return err
	}
	w.handLines = cfg.UnflushedLines
	if w.want, err = cxlmc.Run(cfg, w.hand); err != nil {
		return fmt.Errorf("hand-ported CCEH: %w", err)
	}
	if w.e.seed == 0 && (w.want.Executions != sourceSeed0Execs || len(w.want.Bugs) != sourceSeed0Bugs) {
		return fmt.Errorf("hand-ported CCEH at seed 0: %d executions and %d bugs, want %d and %d",
			w.want.Executions, len(w.want.Bugs), sourceSeed0Execs, sourceSeed0Bugs)
	}
	w.items = []item{{name: "source/cceh.go", check: w.check}}
	return nil
}

func (w *source) check(c checkCtx) outcome {
	o := outcome{seeded: 1}
	var (
		prog func(*cxlmc.Program)
		err  error
	)
	c.span("gofront.load", 0, func(int64) { prog, err = cxlmc.ProgramFromSource(sourcePath, w.src, "") })
	if err != nil {
		o.err = fmt.Errorf("load: %w", err)
		return o
	}
	cfg := w.cfg
	if o.err = vet(c, &o, &cfg, prog); o.err != nil {
		return o
	}
	res, err := explore(c, &o, cfg, prog)
	if err != nil {
		o.err = err
		return o
	}
	if res.Buggy() {
		o.found = 1
	}
	o.fp = fmt.Sprintf("execs=%d bugs=%s", res.Executions, bugSet(res.Bugs))
	if res.Executions != w.want.Executions || bugSet(res.Bugs) != bugSet(w.want.Bugs) {
		o.err = fmt.Errorf("source verdict %s differs from hand-ported CCEH execs=%d bugs=%s",
			o.fp, w.want.Executions, bugSet(w.want.Bugs))
		return o
	}
	for _, b := range res.Bugs {
		if o.err = replay(c, &o, b, cfg, prog); o.err != nil {
			return o
		}
	}
	return o
}

// handReference explores the hand-ported CCEH under the source check's
// config and adds its cost to ph.
func (w *source) handReference(ph *phase) {
	cfg := w.cfg
	cfg.UnflushedLines = w.handLines
	start := time.Now()
	res, err := cxlmc.Run(cfg, w.hand)
	if err == nil {
		ph.handWall += time.Since(start)
		ph.handExecs += res.Executions
	}
}
