package core

import (
	"fmt"

	"repro/internal/memmodel"
)

// This file defines the op stream, the one way simulated operations leave
// the checker: a Config.Observer receives one OpEvent per operation of
// interest, in issue order. The cxlvet pre-pass (internal/analyze) lints
// its skeleton, -trace prints each event's TraceLine, and Replay keeps the
// last traceDepth lines as Bug.Trace. Observation never changes
// exploration semantics — the Observer is excluded from the configuration
// digest — but it forces Workers to 1 so the stream is a single
// deterministic sequence.

// OpKind labels one observed operation.
type OpKind uint8

// Observed operation kinds: the skeleton (what threads issued, and where
// failures could be injected) up to OpDeadFailurePoint, then the effects
// the simulation produced from it.
const (
	// OpLoad is a plain load, reported once its Value is resolved.
	OpLoad OpKind = iota
	// OpStore is a plain buffered store of Value.
	OpStore
	// OpFlush is a clflush/clflushopt/clwb issue on a cache line.
	OpFlush
	// OpSFence is an sfence issue.
	OpSFence
	// OpMFence is an mfence taking effect (including the fence halves of
	// locked RMW instructions and the release drain inside Mutex.Unlock).
	OpMFence
	// OpRMW is a locked read-modify-write instruction (CAS, swap,
	// fetch-add) on a word.
	OpRMW
	// OpMutexLock is a Mutex acquisition completing.
	OpMutexLock
	// OpMutexUnlock is a Mutex release (after its release drain).
	OpMutexUnlock
	// OpFailurePoint is a failure-injection decision point being created
	// at a constraint-narrowing flush commit.
	OpFailurePoint
	// OpDeadFailurePoint is a failure-injection site the reduction pass
	// proved observer-free and skipped: a failure branch no surviving
	// thread could ever observe. Recipe authors see these as "crash here
	// is untestable" diagnostics.
	OpDeadFailurePoint
	// OpCommitStore is a buffered store of Value reaching the cache at
	// timestamp Seq.
	OpCommitStore
	// OpCommitClflush and OpCommitClflushopt are a clflush and a
	// flush-buffer write-back taking effect: Line's Begin rises to Begin.
	OpCommitClflush
	OpCommitClflushopt
	// OpRMWLoad and OpRMWStore are the load and the direct store of a
	// locked RMW, with their Value; the store's timestamp is Seq.
	OpRMWLoad
	OpRMWStore
	// OpFail is the failure of machine Machine, for Reason.
	OpFail
	// OpBug is a bug report (Bug).
	OpBug
)

var opKindNames = [...]string{"load", "store", "flush", "sfence", "mfence", "rmw",
	"mutex-lock", "mutex-unlock", "failure-point", "dead-failure-point", "commit-store",
	"commit-clflush", "commit-clflushopt", "rmw-load", "rmw-store", "fail", "bug"}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "unknown"
}

// Skeleton reports whether k is an issued operation or failure site
// rather than an effect.
func (k OpKind) Skeleton() bool { return k <= OpDeadFailurePoint }

// OpEvent is one observed operation, attributed to the issuing thread.
type OpEvent struct {
	Kind OpKind
	// Step is the scheduler step the event was observed at, Seq the
	// memory's timestamp σ at that moment.
	Step int
	Seq  memmodel.Seq
	// Machine/Thread identify the issuing thread: the machine's ID and
	// name, and the thread's creation index and name.
	Machine     MachineID
	MachineName string
	Thread      int
	ThreadName  string
	// Addr/Size describe the accessed range, Value the loaded, stored or
	// committed value (loads, stores, RMW halves, store commits).
	Addr  Addr
	Size  uint8
	Value uint64
	// Line is the affected cache line (flush, flush-commit and
	// failure-point events), Begin its new constraint Begin (commits).
	Line  memmodel.LineID
	Begin memmodel.Seq
	// Mutex is the mutex's creation index and name (mutex events).
	Mutex     int
	MutexName string
	Reason    string // why the machine failed (OpFail)
	Bug       *Bug   // the report (OpBug)
}

// TraceLine renders ev as one line of the text trace, or "" for the
// kinds it leaves out (flush and fence issues, RMW and mutex markers,
// failure points).
func (ev OpEvent) TraceLine() string {
	by := ev.MachineName + "/" + ev.ThreadName
	var s string
	switch ev.Kind {
	case OpLoad, OpRMWLoad:
		s = fmt.Sprintf("load [%#x]×%d = %d by %s", ev.Addr, ev.Size, ev.Value, by)
	case OpStore:
		s = fmt.Sprintf("exec store [%#x]×%d=%d by %s", ev.Addr, ev.Size, ev.Value, by)
	case OpCommitStore:
		s = fmt.Sprintf("commit store [%#x]=%d (σ%d) by %s", ev.Addr, ev.Value, ev.Seq, by)
	case OpCommitClflush:
		s = fmt.Sprintf("commit clflush line %d → begin %d by %s", ev.Line, ev.Begin, by)
	case OpCommitClflushopt:
		s = fmt.Sprintf("commit clflushopt line %d → begin %d by %s", ev.Line, ev.Begin, by)
	case OpRMWStore:
		s = fmt.Sprintf("rmw store [%#x]=%d (σ%d) by %s", ev.Addr, ev.Value, ev.Seq, by)
	case OpFail:
		s = fmt.Sprintf("FAIL machine %s: %s", ev.MachineName, ev.Reason)
	case OpBug:
		s = fmt.Sprintf("BUG %s", *ev.Bug)
	default:
		return ""
	}
	return fmt.Sprintf("σ%-6d %s", ev.Seq, s)
}

// OpObserver receives the op stream of an instrumented run. Calls arrive
// from the single exploration worker, in issue order; implementations
// must not call back into the run.
type OpObserver interface {
	Op(OpEvent)
}

// observe forwards one event to the configured observer, stamping the
// step, σ and (for non-nil t) the thread identity. Call sites guard with
// ck.observing so the disabled path is a single bool check.
func (ck *Checker) observe(t *Thread, ev OpEvent) {
	ev.Step, ev.Seq = ck.stepNo, ck.mem.Seq()
	if t != nil {
		ev.Machine, ev.MachineName = t.mach.id, t.mach.name
		ev.Thread, ev.ThreadName = t.idx, t.name
	}
	ck.cfg.Observer.Op(ev)
}
