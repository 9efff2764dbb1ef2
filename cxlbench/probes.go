package main

import (
	"time"

	"repro/internal/decision"
	"repro/internal/memmodel"
	"repro/internal/sched"
)

// Fixed probe sizes, so every traced run does exactly the same probe
// work. Each probe runs probeReps times and reports its median.
const (
	probeReps      = 5
	handoffRounds  = 20000 // Grant→Pause round trips per rep
	commitRounds   = 2000  // 64 exec/commit cycles each per rep
	chooseDepth    = 12    // binary decisions per execution
	chooseTreeRuns = 4     // full 2^chooseDepth-execution trees per rep
)

// probes are the layer microbenchmarks of the traced run: the per-step
// costs the engine pays on every simulated instruction, measured
// through each layer's exported functions alone.
type probes struct {
	handoff float64 // ns per sched Grant→Pause round trip
	commit  float64 // ns per memmodel store+clflushopt+sfence exec/commit cycle
	choose  float64 // ns per decision.Tree Choose, Begin/Advance included
}

func runProbes() probes {
	return probes{
		handoff: medianOf(probeReps, probeHandoff),
		commit:  medianOf(probeReps, probeCommit),
		choose:  medianOf(probeReps, probeChoose),
	}
}

func medianOf(reps int, f func() float64) float64 {
	vals := make([]time.Duration, reps)
	for i := range vals {
		vals[i] = time.Duration(f() * 1000) // keep sub-ns resolution through the Duration median
	}
	return float64(median(vals)) / 1000
}

// probeHandoff passes the baton between the scheduler and one thread
// goroutine: each Grant returns when the thread Pauses.
func probeHandoff() float64 {
	s := sched.New()
	th := s.NewThread(0, "probe", func(t *sched.Thread) {
		for i := 0; i < handoffRounds; i++ {
			t.Pause()
		}
	})
	start := time.Now()
	for i := 0; i < handoffRounds; i++ {
		s.Grant(th)
	}
	d := time.Since(start)
	s.Grant(th) // lets the thread return
	s.Teardown()
	return float64(d.Nanoseconds()) / handoffRounds
}

// probeCommit is the store-buffer/flush-buffer commit cycle of the
// Table 1 ordering matrix: store, clflushopt and sfence executed, then
// committed, on four cache lines in turn.
func probeCommit() float64 {
	start := time.Now()
	for i := 0; i < commitRounds; i++ {
		m := memmodel.NewMemory()
		tb := memmodel.NewThreadBuf()
		for j := 0; j < 64; j++ {
			a := memmodel.Addr(j%4) * 64
			tb.ExecStore(a, 8, uint64(j))
			tb.ExecClflushopt(a, m.Seq())
			tb.ExecSfence()
			m.CommitStore(tb, 0)
			m.CommitClflushopt(tb)
			m.CommitSfence(tb)
			for len(tb.FB) > 0 {
				m.CommitFB(tb, 0)
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / (commitRounds * 64)
}

// probeChoose explores complete binary decision trees: every execution
// Begins, Chooses chooseDepth times and Advances.
func probeChoose() float64 {
	chooses := 0
	start := time.Now()
	for r := 0; r < chooseTreeRuns; r++ {
		t := decision.NewTree()
		for {
			t.Begin()
			for d := 0; d < chooseDepth; d++ {
				t.Choose(decision.KindFailure, 2)
				chooses++
			}
			if !t.Advance() {
				break
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(chooses)
}
