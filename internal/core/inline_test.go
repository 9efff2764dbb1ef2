package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Inline scheduling: a thread at an instruction boundary runs the next
// scheduler steps on its own goroutine (Thread.enter). These tests cover
// the paths where such a run ends in something other than the thread
// continuing — a failure of its own machine, a Join or mutex Block, a
// panic in the checker — and the watchdog's view of a long inline run.

// opFunc adapts a function to OpObserver.
type opFunc func(OpEvent)

func (f opFunc) Op(ev OpEvent) { f(ev) }

// pinnedStats are exploration counts recorded before inline scheduling
// existed: the step sequence must not move.
type pinnedStats struct {
	Executions, FailurePoints, ReadFromPoints int
	Steps, PrefixForks, StepsSaved            int64
}

func checkPinned(t *testing.T, res *Result, want pinnedStats) {
	t.Helper()
	got := pinnedStats{res.Executions, res.FailurePoints, res.ReadFromPoints,
		res.Steps, res.PrefixForks, res.StepsSaved}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if !res.Complete || res.Buggy() {
		t.Fatalf("complete=%v bugs=%v, want a complete clean run", res.Complete, res.Bugs)
	}
}

// TestInlineCommitFailsOwnMachine: a commit run inline on thread w
// injects the failure of w's own machine. w must unwind at once — never
// continue past the boundary — and a simulated op deferred in w during
// that unwinding must schedule nothing.
func TestInlineCommitFailsOwnMachine(t *testing.T) {
	var (
		ck          *Checker
		inlineFails int
		continued   int
		unwindSteps int
		lateStores  int
	)
	var late Addr
	program := func(p *Program) {
		ck = p.ck
		a := p.NewMachine("A")
		x := p.AllocAligned(4*64, 64)
		late = p.AllocAligned(8, 64)
		a.Thread("w", func(th *Thread) {
			defer func() {
				if !th.Machine().Failed() {
					return
				}
				steps := ck.tally.Steps
				defer func() {
					if ck.tally.Steps != steps {
						unwindSteps++
					}
				}()
				th.Store64(late, 1) // unwinds again without a step
			}()
			for i := Addr(0); i < 4; i++ {
				th.Store64(x+i*64, uint64(i)+1)
				th.CLFlushOpt(x + i*64)
				if th.Machine().Failed() {
					continued++
				}
			}
			for i := 0; i < 16; i++ {
				th.Yield()
				if th.Machine().Failed() {
					continued++
				}
			}
		})
	}
	observer := opFunc(func(ev OpEvent) {
		switch {
		case ev.Kind == OpFail && ck.scheduling:
			inlineFails++
		case (ev.Kind == OpStore || ev.Kind == OpCommitStore) && ev.Addr == late:
			lateStores++
		}
	})
	res, err := Run(Config{Reduction: SwitchOff, Observer: observer}, program)
	if err != nil {
		t.Fatal(err)
	}
	if inlineFails == 0 {
		t.Fatal("no execution failed w's machine from a commit run inline on w")
	}
	if continued != 0 {
		t.Fatalf("w continued %d times after its machine failed", continued)
	}
	if unwindSteps != 0 {
		t.Fatalf("a deferred op during kill unwinding ran scheduler steps (%d times)", unwindSteps)
	}
	if lateStores != 0 {
		t.Fatalf("the op deferred in a killed thread reached the op stream %d times", lateStores)
	}
	checkPinned(t, res, pinnedStats{Executions: 5, FailurePoints: 4, Steps: 164, PrefixForks: 4, StepsSaved: 118})
}

// TestInlineRunThenJoinAndBlock: threads run stretches of inline steps
// and then block — in a mutex Lock, a machine Join and a JoinThreads —
// which returns the baton to the checker goroutine. The run must complete with the
// pinned counts, and the mutex must have blocked a waiter at least once.
func TestInlineRunThenJoinAndBlock(t *testing.T) {
	var mutexWaits int
	program := func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		c := p.NewMachine("C")
		x := p.AllocAligned(8, 64)
		y := p.AllocAligned(8, 64)
		mu := p.NewMutex("mu")
		yields := func(th *Thread, n int) {
			for i := 0; i < n; i++ {
				th.Yield()
			}
		}
		locked := func(th *Thread, addr Addr) {
			for round := uint64(1); round <= 3; round++ {
				mu.Lock(th)
				yields(th, 4)
				th.Store64(addr, round)
				th.CLFlush(addr)
				if len(mu.waiters) > 0 {
					mutexWaits++
				}
				mu.Unlock(th)
			}
		}
		w1 := a.Thread("w1", func(th *Thread) { yields(th, 2); locked(th, x) })
		w2 := a.Thread("w2", func(th *Thread) { yields(th, 3); locked(th, y) })
		b.Thread("join", func(th *Thread) {
			yields(th, 8)
			if !th.Join(a) {
				th.Assert(th.Load64(x) == 3 && th.Load64(y) == 3, "Join returned before A quiesced")
			}
		})
		c.Thread("join-threads", func(th *Thread) {
			yields(th, 8)
			th.JoinThreads(w1, w2)
			if !a.Failed() {
				th.Assert(th.Load64(x) == 3 && th.Load64(y) == 3, "JoinThreads returned early")
			}
		})
	}
	res, err := Run(Config{Workers: 1}, program)
	if err != nil {
		t.Fatal(err)
	}
	if mutexWaits == 0 {
		t.Fatal("no execution blocked on the mutex")
	}
	checkPinned(t, res, pinnedStats{Executions: 7, FailurePoints: 6, Steps: 470, PrefixForks: 6, StepsSaved: 351})
}

// TestInlineRunOutlastsWedgeTimeout: a thread whose inline run of fast
// steps lasts several wedge windows is busy, not wedged — the watchdog
// sees its gate advance and keeps waiting.
func TestInlineRunOutlastsWedgeTimeout(t *testing.T) {
	res, err := Run(Config{WedgeTimeout: 20 * time.Millisecond, MaxExecutions: 1, MaxStepsPerExec: 1 << 30},
		func(p *Program) {
			a := p.NewMachine("A")
			a.Thread("busy", func(th *Thread) {
				for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
					th.Yield()
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("a busy thread was reported: %v", res.Bugs)
	}
}

// TestSchedulingPanicIsInternalError: a panic raised by checker code
// while a thread runs scheduler steps inline is the run's InternalError,
// not a BugPanic blamed on that thread. The thread corrupts the fast
// replay state, so its next inline step indexes past the step log.
func TestSchedulingPanicIsInternalError(t *testing.T) {
	res, err := Run(Config{Seed: 2}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t", func(th *Thread) {
			th.Store64(x, 1)
			ck := th.ck
			ck.fast, ck.fastUntil, ck.stepLog = true, 1<<30, ck.stepLog[:0]
			th.Yield()
		})
	})
	ie, ok := err.(*InternalError)
	if !ok {
		t.Fatalf("err = %v (%T), result %+v; want *InternalError", err, err, res)
	}
	if !strings.Contains(ie.Msg, "panic in scheduler step") || ie.Seed != 2 || ie.Execution != 1 {
		t.Fatalf("InternalError fields: %+v", ie)
	}
}

// BenchmarkStep measures the checker's cost per simulated instruction:
// one op is one Yield, a full scheduler step on an otherwise idle
// machine. "continue" has one thread, which every step picks again, so
// it runs inline without a goroutine switch. "two-threads" has two,
// picked at random, so about half the steps change threads and pass the
// baton through the checker goroutine; switches/op reports the exact share.
func BenchmarkStep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		threads int
	}{{"continue", 1}, {"two-threads", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			switches, last := 0, -1
			program := func(p *Program) {
				a := p.NewMachine("A")
				for i := 0; i < bc.threads; i++ {
					n := b.N / bc.threads
					a.Thread(fmt.Sprintf("t%d", i), func(th *Thread) {
						for j := 0; j < n; j++ {
							th.Yield()
							if last != i {
								switches, last = switches+1, i
							}
						}
					})
				}
			}
			b.ResetTimer()
			res, err := Run(Config{Workers: 1, MaxExecutions: 1, MaxStepsPerExec: 1 << 40}, program)
			b.StopTimer()
			if err != nil || res.Buggy() {
				b.Fatalf("err=%v bugs=%v", err, res.Bugs)
			}
			b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
		})
	}
}
