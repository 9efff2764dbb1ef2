package sched

import (
	"testing"
	"time"
)

func TestLockStepExecution(t *testing.T) {
	s := New()
	var trace []string
	a := s.NewThread(0, "a", func(th *Thread) {
		trace = append(trace, "a1")
		th.Pause()
		trace = append(trace, "a2")
	})
	b := s.NewThread(0, "b", func(th *Thread) {
		trace = append(trace, "b1")
		th.Pause()
		trace = append(trace, "b2")
	})
	s.Grant(a) // runs a1, pauses
	s.Grant(b) // runs b1, pauses
	s.Grant(a) // runs a2, finishes
	s.Grant(b)
	want := []string{"a1", "b1", "a2", "b2"}
	for i, w := range want {
		if trace[i] != w {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if a.State() != Finished || b.State() != Finished {
		t.Fatalf("states = %v %v", a.State(), b.State())
	}
	s.Teardown()
}

func TestBlockAndWake(t *testing.T) {
	s := New()
	var got int
	cond := false
	a := s.NewThread(0, "a", func(th *Thread) {
		for !cond {
			th.Block("cond")
		}
		got = 42
	})
	s.Grant(a)
	if a.State() != Blocked {
		t.Fatalf("state = %v, want blocked", a.State())
	}
	if len(s.Runnable()) != 0 || len(s.Blocked()) != 1 {
		t.Fatal("runnable/blocked sets wrong")
	}
	cond = true
	a.Wake()
	if a.State() != Runnable {
		t.Fatal("wake failed")
	}
	s.Grant(a)
	if got != 42 || a.State() != Finished {
		t.Fatalf("got=%d state=%v", got, a.State())
	}
	s.Teardown()
}

func TestWakeIsNoOpOnNonBlocked(t *testing.T) {
	s := New()
	a := s.NewThread(0, "a", func(th *Thread) {})
	a.Wake()
	if a.State() != Runnable {
		t.Fatal("wake changed a runnable thread")
	}
	s.Grant(a)
	a.Wake()
	if a.State() != Finished {
		t.Fatal("wake resurrected a finished thread")
	}
	s.Teardown()
}

func TestKillParkedThreadUnwinds(t *testing.T) {
	s := New()
	ran := false
	cleaned := false
	a := s.NewThread(0, "a", func(th *Thread) {
		defer func() { cleaned = true }()
		th.Pause()
		ran = true
	})
	s.Grant(a)
	a.Kill()
	s.Teardown()
	if ran {
		t.Fatal("killed thread kept running")
	}
	if !cleaned {
		t.Fatal("defers must run during unwind")
	}
	if a.State() != Killed {
		t.Fatalf("state = %v", a.State())
	}
}

func TestKillSelf(t *testing.T) {
	s := New()
	after := false
	a := s.NewThread(0, "a", func(th *Thread) {
		th.KillSelf()
		after = true
	})
	s.Grant(a)
	if after {
		t.Fatal("KillSelf returned")
	}
	if a.State() != Killed {
		t.Fatalf("state = %v", a.State())
	}
	s.Teardown()
}

func TestKillBeforeFirstGrant(t *testing.T) {
	s := New()
	ran := false
	a := s.NewThread(0, "a", func(th *Thread) { ran = true })
	a.Kill()
	s.Grant(a)
	if ran {
		t.Fatal("killed thread ran")
	}
	s.Teardown()
}

func TestNeverStartedThreadTeardown(t *testing.T) {
	s := New()
	s.NewThread(0, "a", func(th *Thread) { t.Error("must not run") })
	s.Teardown()
}

func TestPanicRouting(t *testing.T) {
	s := New()
	var panicked any
	s.OnPanic = func(th *Thread, v any) { panicked = v }
	zero := 0
	a := s.NewThread(0, "a", func(th *Thread) {
		_ = 1 / zero
	})
	s.Grant(a)
	if panicked == nil {
		t.Fatal("panic not routed")
	}
	if a.State() != Killed {
		t.Fatalf("state = %v", a.State())
	}
	s.Teardown()
}

func TestKillSentinelNotRoutedToOnPanic(t *testing.T) {
	s := New()
	s.OnPanic = func(th *Thread, v any) { t.Errorf("kill sentinel routed as panic: %v", v) }
	a := s.NewThread(0, "a", func(th *Thread) { th.Pause() })
	s.Grant(a)
	a.Kill()
	s.Teardown()
}

func TestGrantToExitedPanics(t *testing.T) {
	s := New()
	a := s.NewThread(0, "a", func(th *Thread) {})
	s.Grant(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		s.Teardown()
	}()
	s.Grant(a)
}

func TestManyExecutionsNoGoroutineLeak(t *testing.T) {
	// Simulates the checker's execution restart loop: every execution
	// creates fresh threads and tears them down; parked goroutines must
	// be unwound each time.
	for exec := 0; exec < 200; exec++ {
		s := New()
		for i := 0; i < 4; i++ {
			th := s.NewThread(i%2, "w", func(th *Thread) {
				for j := 0; j < 3; j++ {
					th.Pause()
				}
			})
			s.Grant(th) // run one step, leave parked
		}
		s.Teardown()
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Runnable: "runnable", Blocked: "blocked", Finished: "finished", Killed: "killed",
		State(9): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d) = %q, want %q", st, st.String(), want)
		}
	}
}

// TestWatchdogSparesCheckerCode: the watchdog never abandons a thread
// inside checker code, however long it stays there, nor one whose gate
// keeps moving; it abandons a thread stuck in program code, and the
// abandoned goroutine later unwinds at Enter without yielding.
func TestWatchdogSparesCheckerCode(t *testing.T) {
	s := New()
	unblock := make(chan struct{})
	exited := make(chan bool, 1)
	const window = 10 * time.Millisecond
	a := s.NewThread(0, "a", func(th *Thread) {
		defer func() { exited <- true }()
		th.Enter()
		time.Sleep(6 * window) // slow checker code: no progress, not abandonable
		th.Pause()
		for start := time.Now(); time.Since(start) < 6*window; {
			th.Leave() // busy program code: the gate keeps moving
			th.Enter()
		}
		th.Pause()
		th.Leave()
		<-unblock // stuck in program code
		th.Enter()
		t.Error("an abandoned thread got past Enter")
	})
	if !s.GrantWatch(a, window, time.Time{}) {
		t.Fatal("abandoned a thread in checker code")
	}
	if !s.GrantWatch(a, window, time.Time{}) {
		t.Fatal("abandoned a busy thread")
	}
	if s.GrantWatch(a, window, time.Time{}) {
		t.Fatal("a thread stuck in program code yielded?")
	}
	if !a.Wedged() {
		t.Fatal("abandoned thread not marked wedged")
	}
	s.Teardown() // skips the wedged thread
	close(unblock)
	<-exited
}

// TestWatchdogDeadline: once the deadline has passed, a thread in
// program code is abandoned whether or not it made progress.
func TestWatchdogDeadline(t *testing.T) {
	s := New()
	unblock := make(chan struct{})
	defer close(unblock)
	a := s.NewThread(0, "a", func(th *Thread) {
		th.Enter()
		th.Leave()
		<-unblock
	})
	start := time.Now()
	if s.GrantWatch(a, 0, start.Add(20*time.Millisecond)) {
		t.Fatal("the deadline did not abandon the thread")
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("abandoned after %v, before the deadline", took)
	}
}
