// Package sched provides the deterministic cooperative scheduler CXLMC
// runs simulated threads on. The paper's implementation (§5) forks real
// processes and context-switches ucontext threads under a scheduler so
// every execution replays deterministically; here each simulated thread is
// a goroutine that runs in strict lock-step with a scheduler goroutine:
// exactly one party (the scheduler or a single granted thread) is ever
// running, with the baton passed over unbuffered channels. All checker
// state can therefore be accessed without locks, and a fixed seed fixes
// the entire schedule (paper §3.2: only crash non-determinism is model
// checked; the thread interleaving is a deterministic function of the
// seed).
//
// A granted thread runs until it yields to the scheduler — a Pause, a Block
// or its exit. The package does not decide what a thread does between
// yields: the checker runs its scheduler steps on the granted thread's
// own goroutine and yields only when a step picks another thread, so a
// thread that is picked again keeps the baton without a goroutine
// switch (the goroutine analogue of the paper's direct ucontext switch).
//
// Each thread carries a gate: an atomic counter that is even while the
// thread runs checker code (or is parked) and odd while it runs the
// checked program's own code, advanced at every crossing. The watchdog
// of GrantWatch reads it to tell a stuck thread from a busy one, and may
// abandon a thread only by swapping an odd gate for the wedged mark, so
// an abandoned goroutine is always outside checker code and unwinds at
// its next Enter without touching scheduler or checker state.
package sched

import (
	"fmt"
	"sync/atomic"
	"time"
)

// State is a simulated thread's scheduling state.
type State uint8

// Thread states.
const (
	// Runnable threads may be granted the baton.
	Runnable State = iota
	// Blocked threads wait on a condition (mutex, join) and are skipped
	// until explicitly made runnable again.
	Blocked
	// Finished threads ran their function to completion.
	Finished
	// Killed threads belong to a failed machine or were torn down; their
	// goroutines unwind on their next grant.
	Killed
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Finished:
		return "finished"
	case Killed:
		return "killed"
	}
	return "unknown"
}

// killSentinel is panicked inside a thread to unwind it when its machine
// fails or the execution is torn down.
type killSentinel struct{}

// wedgedGate is the gate value of a thread the watchdog abandoned. It is
// odd, like a gate in program code, and never reached by counting.
const wedgedGate = ^uint64(0)

// Thread is one simulated thread. Fields are only touched while holding
// the baton (or by the scheduler while no thread runs), so no locking is
// needed; the baton channels provide the happens-before edges. The gate
// is the one exception, see the package comment.
type Thread struct {
	ID      int
	Machine int
	Name    string

	sch    *Scheduler
	fn     func(*Thread)
	state  State
	resume chan struct{}
	// exited is set by the goroutine wrapper just before its final yield:
	// the goroutine is gone and must never be granted again.
	exited  bool
	started bool
	// gate is even while the goroutine runs checker code or is parked,
	// odd while it runs program code, and wedgedGate once the watchdog
	// abandoned it. Only the thread itself moves it between even and
	// odd (seq is its private copy of the value); only the watchdog
	// swaps in wedgedGate, and only for an odd value.
	gate atomic.Uint64
	seq  uint64
	// BlockNote describes what a blocked thread waits for (diagnostics).
	BlockNote string
}

// Wedged reports whether the watchdog abandoned the thread.
func (t *Thread) Wedged() bool { return t.gate.Load() == wedgedGate }

// Enter marks the calling thread as running checker code, so the
// watchdog cannot abandon it until the matching Leave. A thread the
// watchdog already abandoned unwinds instead, without touching any
// state. Enter is a no-op for a thread already in checker code. It must
// be called from t's goroutine.
func (t *Thread) Enter() {
	if !t.claim() {
		panic(killSentinel{})
	}
}

// claim is Enter reporting abandonment instead of unwinding.
func (t *Thread) claim() bool {
	if t.seq&1 == 0 {
		return true
	}
	if !t.gate.CompareAndSwap(t.seq, t.seq+1) {
		return false // the watchdog swapped in wedgedGate
	}
	t.seq++
	return true
}

// Leave marks the calling thread as back in program code, where the
// watchdog may abandon it. It is a no-op outside checker code, and so
// for an abandoned thread. It must be called from t's goroutine.
func (t *Thread) Leave() {
	if t.seq&1 == 0 {
		t.seq++
		t.gate.Store(t.seq)
	}
}

// unwind leaves checker code and unwinds the goroutine, so the program's
// deferred functions run as program code.
func (t *Thread) unwind() {
	t.Leave()
	panic(killSentinel{})
}

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// Scheduler coordinates the baton. It is created fresh for every
// execution; goroutines never outlive it.
type Scheduler struct {
	threads []*Thread
	yield   chan *Thread
	// free holds exited Thread structs (and their resume channels) from
	// torn-down executions, reused by NewThread so the per-execution hot
	// path does not reallocate them. Wedged threads are never pooled:
	// their abandoned goroutines may still hold references.
	free []*Thread
	// watchdog is GrantWatch's one timer. It is armed at an execution's
	// first watched grant, re-armed only when it fires and stopped by
	// Teardown, so a grant costs no timer operation. grants counts
	// watched grants; seenGrants and seenGate are the progress marks of
	// the previous fire.
	watchdog   *time.Timer
	armed      bool
	grants     uint64
	seenGrants uint64
	seenGate   uint64
	// OnPanic receives panics escaping a thread's function (real program
	// bugs like division by zero). The kill sentinel is filtered out.
	OnPanic func(t *Thread, v any)
}

// New returns an empty scheduler.
func New() *Scheduler {
	return &Scheduler{yield: make(chan *Thread)}
}

// Reset prepares the scheduler for the next execution after Teardown:
// every non-wedged thread struct moves to the free list for reuse.
func (s *Scheduler) Reset() {
	for _, t := range s.threads {
		if !t.Wedged() {
			s.free = append(s.free, t)
		}
	}
	s.threads = s.threads[:0]
}

// NewThread registers a simulated thread running fn. The goroutine starts
// parked and runs only when granted.
func (s *Scheduler) NewThread(machine int, name string, fn func(*Thread)) *Thread {
	var t *Thread
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free = s.free[:n-1]
		t.ID = len(s.threads)
		t.Machine = machine
		t.Name = name
		t.sch = s
		t.fn = fn
		t.state = Runnable
		t.exited = false
		t.started = false
		t.gate.Store(0)
		t.seq = 0
		t.BlockNote = ""
	} else {
		t = &Thread{
			ID:      len(s.threads),
			Machine: machine,
			Name:    name,
			sch:     s,
			fn:      fn,
			state:   Runnable,
			resume:  make(chan struct{}),
		}
	}
	s.threads = append(s.threads, t)
	return t
}

// Threads returns all registered threads in creation order.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// run is the goroutine wrapper: it converts kill sentinels into clean
// exits, routes real panics to OnPanic, and always returns the baton —
// unless the watchdog abandoned the thread, in which case it exits
// silently without touching scheduler state (nobody is listening).
func (t *Thread) run() {
	defer func() {
		v := recover()
		if !t.claim() {
			return
		}
		if v != nil {
			if _, isKill := v.(killSentinel); !isKill {
				t.state = Killed
				if t.sch.OnPanic != nil {
					t.sch.OnPanic(t, v)
				}
			}
		} else {
			t.state = Finished
		}
		t.exited = true
		t.sch.yield <- t
	}()
	<-t.resume
	if t.state == Killed {
		panic(killSentinel{})
	}
	t.Leave()
	t.fn(t)
}

// Grant hands the baton to t, which runs until it yields to the scheduler:
// its next Pause, Block or exit. Granting a killed thread unwinds it.
// The thread must not have exited.
func (s *Scheduler) Grant(t *Thread) {
	s.GrantWatch(t, 0, time.Time{})
}

// GrantWatch is Grant under the scheduler's watchdog. It returns false
// when the watchdog abandoned t: the thread is marked wedged, its
// goroutine is left running program code, and the scheduler must end the
// execution. The goroutine unwinds, touching no scheduler or checker
// state, when it next calls Enter; one that never does is leaked.
//
// The watchdog abandons t only while t runs program code (its gate is
// odd), and only when
//   - window > 0 and a whole window passed with no progress: no grant and
//     no gate crossing since the previous fire (a thread stuck in a
//     callback outside the simulated API); or
//   - deadline is set and has passed.
//
// A thread in checker code is never abandoned; the watchdog waits for
// it. window <= 0 and a zero deadline mean no watchdog.
func (s *Scheduler) GrantWatch(t *Thread, window time.Duration, deadline time.Time) bool {
	if t.exited {
		panic(fmt.Sprintf("sched: Grant to exited thread %d (%s)", t.ID, t.Name))
	}
	if !t.started {
		t.started = true
		go t.run()
	}
	t.resume <- struct{}{}
	if window <= 0 && deadline.IsZero() {
		<-s.yield
		return true
	}
	s.grants++
	if !s.armed {
		s.armed = true
		s.seenGrants, s.seenGate = s.grants, t.gate.Load()
		if s.watchdog == nil {
			s.watchdog = time.NewTimer(watchWait(window, deadline))
		} else {
			s.watchdog.Reset(watchWait(window, deadline))
		}
	}
	for {
		select {
		case <-s.yield:
			return true
		case <-s.watchdog.C:
		}
		if s.abandon(t, window, deadline) {
			return false
		}
		s.watchdog.Reset(watchWait(window, deadline))
	}
}

// abandon decides a watchdog fire: it swaps t's gate for wedgedGate when
// GrantWatch's conditions hold and t runs program code.
func (s *Scheduler) abandon(t *Thread, window time.Duration, deadline time.Time) bool {
	g := t.gate.Load()
	progressed := s.grants != s.seenGrants || g != s.seenGate
	s.seenGrants, s.seenGate = s.grants, g
	expired := !deadline.IsZero() && !time.Now().Before(deadline)
	stuck := window > 0 && !progressed
	return (expired || stuck) && g&1 == 1 && t.gate.CompareAndSwap(g, wedgedGate)
}

// watchWait is the watchdog's next wait: the window, cut short by the
// deadline, and at least a millisecond.
func watchWait(window time.Duration, deadline time.Time) time.Duration {
	d := window
	if !deadline.IsZero() {
		if m := time.Until(deadline); d <= 0 || m < d {
			d = m
		}
	}
	return max(d, time.Millisecond)
}

// Pause yields the baton back to the scheduler and parks until the next
// grant. If the thread was killed while parked, Pause unwinds the
// goroutine instead of returning. A killed thread calling Pause — e.g. a
// deferred unlock running while the kill unwinds the stack — re-panics
// immediately without yielding, so unwinding never escapes back to the
// scheduler. A thread the watchdog abandoned unwinds too. It must be
// called from t's goroutine.
func (t *Thread) Pause() {
	if t.state == Killed {
		t.unwind()
	}
	if t.Wedged() {
		panic(killSentinel{})
	}
	t.sch.yield <- t
	<-t.resume
	if t.state == Killed {
		t.unwind()
	}
}

// Block marks the thread blocked with a description and yields. The
// caller re-checks its condition when Pause returns: the scheduler only
// grants the thread again after something marked it runnable.
func (t *Thread) Block(note string) {
	t.state = Blocked
	t.BlockNote = note
	t.Pause()
}

// Wake makes a blocked thread runnable again. It is a no-op for threads
// in any other state (in particular killed threads stay killed).
func (t *Thread) Wake() {
	if t.state == Blocked {
		t.state = Runnable
		t.BlockNote = ""
	}
}

// Kill marks the thread killed. A parked goroutine unwinds on its next
// grant; an exited thread is left alone. Kill must not be called on the
// currently-running thread — use KillSelf for that.
func (t *Thread) Kill() {
	if t.state == Finished && t.exited {
		return
	}
	t.state = Killed
}

// KillSelf unwinds the calling thread immediately. It must be called from
// t's goroutine; it does not return.
func (t *Thread) KillSelf() {
	t.state = Killed
	t.unwind()
}

// Teardown unwinds every goroutine that has not exited and stops the
// watchdog. Call it at the end of each execution so goroutines and
// timers never leak across executions.
// Wedged threads are skipped: their goroutines are not parked at the
// baton and unwind on their own at their next Enter (or leak, if they
// stay blocked in program code forever). They never yield again.
func (s *Scheduler) Teardown() {
	if s.armed {
		s.armed = false
		if !s.watchdog.Stop() {
			select {
			case <-s.watchdog.C: // fired unread
			default:
			}
		}
	}
	for _, t := range s.threads {
		if t.Wedged() || t.exited || !t.started {
			continue
		}
		t.state = Killed
		t.resume <- struct{}{}
		if y := <-s.yield; y != t || !t.exited {
			panic(fmt.Sprintf("sched: thread %d (%s) survived teardown", t.ID, t.Name))
		}
	}
}

// Runnable returns the runnable threads in creation order.
func (s *Scheduler) Runnable() []*Thread {
	var out []*Thread
	for _, t := range s.threads {
		if t.state == Runnable {
			out = append(out, t)
		}
	}
	return out
}

// Blocked returns the blocked threads in creation order.
func (s *Scheduler) Blocked() []*Thread {
	var out []*Thread
	for _, t := range s.threads {
		if t.state == Blocked {
			out = append(out, t)
		}
	}
	return out
}
