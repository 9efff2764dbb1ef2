package core_test

// Tests and benchmarks of the eagerReadSet and commitChance test hooks
// (export_test.go), run against the public API from an external package
// because only this package's tests can set the hooks. None of them may
// run in parallel with other Runs.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	cxlmc "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/proptest"
	"repro/internal/recipe"
)

func mustRun(t *testing.T, prog func(*cxlmc.Program)) *cxlmc.Result {
	t.Helper()
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 200000}, prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestPropertyLazyEagerEquivalent: the §4.5 lazy search and the eager
// Algorithm 3 set produce identical observation sets and execution
// counts.
func TestPropertyLazyEagerEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		var lazy, eager proptest.Observations
		core.SetEagerReadSet(t, false)
		rl := mustRun(t, proptest.Program(seed, &lazy))
		core.SetEagerReadSet(t, true)
		re := mustRun(t, proptest.Program(seed, &eager))
		if !reflect.DeepEqual(lazy.Set(), eager.Set()) {
			t.Fatalf("trial %d: lazy %v vs eager %v", trial, lazy.Set(), eager.Set())
		}
		if rl.Executions != re.Executions {
			t.Fatalf("trial %d: lazy %d execs vs eager %d", trial, rl.Executions, re.Executions)
		}
	}
}

// TestPropertyCompletenessDroppedFlushEager repeats the facade's
// dropped-flush sweep under the eager Algorithm 3 read path.
func TestPropertyCompletenessDroppedFlushEager(t *testing.T) {
	core.SetEagerReadSet(t, true)
	res := mustRun(t, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *cxlmc.Thread) {
			th.Store64(data, 42)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *cxlmc.Thread) {
			th.Join(a)
			if th.Load64(flag) == 1 {
				th.Assert(th.Load64(data) == 42, "lost")
			}
		})
	})
	if !res.Buggy() {
		t.Fatal("eager path missed the dropped flush")
	}
}

// exploreOnce runs one full exploration per iteration and reports the
// paper metrics, like the facade's benchmarks.
func exploreOnce(b *testing.B, prog func(*cxlmc.Program)) {
	b.Helper()
	var last *cxlmc.Result
	for i := 0; i < b.N; i++ {
		res, err := cxlmc.Run(cxlmc.Config{}, prog)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Executions), "execs-per-exploration")
	b.ReportMetric(float64(last.FailurePoints), "fpoints")
	b.ReportMetric(float64(last.ReadFromPoints), "rfpoints")
	b.ReportMetric(float64(last.StepsSaved), "steps-saved")
	b.ReportMetric(float64(last.RaceReports), "races")
}

// BenchmarkAblationReadSet compares the paper's §4.5 lazy read-from
// search against eagerly materializing the full Algorithm 3 set: same
// exploration, different per-load cost.
func BenchmarkAblationReadSet(b *testing.B) {
	prog := recipe.Program(harness.Benchmarks[0], harness.Table5Config())
	b.Run("lazy", func(b *testing.B) { exploreOnce(b, prog) })
	b.Run("eager", func(b *testing.B) {
		core.SetEagerReadSet(b, true)
		exploreOnce(b, prog)
	})
}

// BenchmarkAblationCommitChance sweeps the store-buffer drain bias: the
// knob controlling how long TSO reorder windows stay open in the fixed
// schedule.
func BenchmarkAblationCommitChance(b *testing.B) {
	prog := recipe.Program(harness.Benchmarks[0], harness.Table5Config())
	for _, chance := range []int{10, 25, 50, 75} {
		b.Run(fmt.Sprintf("chance%02d", chance), func(b *testing.B) {
			core.SetCommitChance(b, chance)
			exploreOnce(b, prog)
		})
	}
}
