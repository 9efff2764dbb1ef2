package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// traceLines is an observer collecting the stream's trace lines.
type traceLines struct{ lines []string }

func (r *traceLines) Op(ev OpEvent) {
	if line := ev.TraceLine(); line != "" {
		r.lines = append(r.lines, line)
	}
}

// opLog is an observer recording every event.
type opLog struct{ events []OpEvent }

func (r *opLog) Op(ev OpEvent) { r.events = append(r.events, ev) }

// perExecution splits a recorded stream at the points where the
// scheduler step restarts, i.e. into one slice per execution.
func (r *opLog) perExecution() [][]OpEvent {
	var out [][]OpEvent
	for i, ev := range r.events {
		if i == 0 || ev.Step < r.events[i-1].Step {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], ev)
	}
	return out
}

// lostDataProgram loses its data store when the writer's machine fails
// after the flag's flush: a one-failure bug.
func lostDataProgram(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	data := p.Alloc(8)
	flag := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(data, 42)
		th.Store64(flag, 1)
		th.CLFlush(flag)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		if th.Load64(flag) == 1 {
			th.Assert(th.Load64(data) == 42, "lost data")
		}
	})
}

// forkingProgram has several constraint-narrowing flushes, so its
// executions share long decision prefixes that prefix-fork replays.
func forkingProgram(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	x := p.AllocAligned(8, 64)
	y := p.AllocAligned(8, 64)
	z := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		for i := uint64(1); i <= 3; i++ {
			th.Store64(x, i)
			th.CLFlush(x)
			th.Store64(y, i)
			th.CLFlushOpt(y)
			th.SFence()
			th.CAS64(z, i-1, i)
		}
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		th.Assert(th.Load64(x)+th.Load64(y)+th.Load64(z) <= 9, "impossible sum")
	})
}

// TestObserverSeesEveryExecutionInFull: an Observer receives the same
// per-execution op stream with PrefixFork on as with it off — the
// fast-replayed prefix of a forked execution must not go missing or
// change.
func TestObserverSeesEveryExecutionInFull(t *testing.T) {
	plain := run(t, Config{Workers: 1}, forkingProgram)
	if plain.PrefixForks == 0 || plain.Executions < 3 {
		t.Fatalf("program does not exercise prefix-fork: %d execs, %d forks", plain.Executions, plain.PrefixForks)
	}
	on, off := &opLog{}, &opLog{}
	resOn := run(t, Config{Observer: on, PrefixFork: SwitchOn}, forkingProgram)
	resOff := run(t, Config{Observer: off, PrefixFork: SwitchOff}, forkingProgram)
	if resOn.Executions != plain.Executions || resOff.Executions != plain.Executions {
		t.Fatalf("observed runs explored %d/%d executions, want %d", resOn.Executions, resOff.Executions, plain.Executions)
	}
	if resOn.PrefixForks != plain.PrefixForks {
		t.Fatalf("observed run forked %d executions, unobserved %d", resOn.PrefixForks, plain.PrefixForks)
	}
	execsOn, execsOff := on.perExecution(), off.perExecution()
	if len(execsOn) != plain.Executions {
		t.Fatalf("stream splits into %d executions, want %d", len(execsOn), plain.Executions)
	}
	for i := range execsOff {
		if i >= len(execsOn) || !reflect.DeepEqual(execsOn[i], execsOff[i]) {
			t.Fatalf("execution %d: op stream differs with PrefixFork on", i+1)
		}
	}
	if len(execsOn) != len(execsOff) {
		t.Fatalf("%d executions observed with PrefixFork on, %d with it off", len(execsOn), len(execsOff))
	}
}

// TestObserverSkipsMinimization: the token-minimization replays that run
// after exploration emit nothing, so the stream holds exactly one bug
// report per distinct bug.
func TestObserverSkipsMinimization(t *testing.T) {
	rec := &opLog{}
	res := run(t, Config{Observer: rec}, lostDataProgram)
	if !res.Buggy() {
		t.Fatal("bug not found")
	}
	bugs := 0
	for _, ev := range rec.events {
		if ev.Kind == OpBug {
			bugs++
			if ev.Bug.Message != res.Bugs[0].Message {
				t.Fatalf("observed bug %q, result has %q", ev.Bug.Message, res.Bugs[0].Message)
			}
		}
	}
	if bugs != len(res.Bugs) {
		t.Fatalf("observed %d bug reports for %d distinct bugs", bugs, len(res.Bugs))
	}
}

// TestReplayTraceRing: Replay attaches the last traceDepth trace lines
// before the bug report, oldest first, while a caller's observer still
// sees the whole stream.
func TestReplayTraceRing(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			for i := uint64(0); i < 200; i++ {
				th.Store64(x, i)
				th.Load64(x)
			}
			th.Assert(false, "end")
		})
	}
	found := run(t, Config{}, prog)
	if !found.Buggy() {
		t.Fatal("bug not found")
	}
	full := &traceLines{}
	res, err := Replay(found.Bugs[0].ReproToken, Config{Observer: full}, prog)
	if err != nil {
		t.Fatal(err)
	}
	bugAt := slices.IndexFunc(full.lines, func(l string) bool { return strings.HasSuffix(l, " BUG "+res.Bugs[0].String()) })
	if bugAt < traceDepth {
		t.Fatalf("bug line at %d; the program should emit more than %d lines before it", bugAt, traceDepth)
	}
	if want := full.lines[bugAt-traceDepth : bugAt]; !slices.Equal(res.Bugs[0].Trace, want) {
		t.Fatalf("Bug.Trace is not the %d lines before the report:\ngot  %q...\nwant %q...", traceDepth, res.Bugs[0].Trace[:2], want[:2])
	}
}
