package core

import (
	"sort"

	"repro/internal/decision"
)

// Tally is the one summed form of an exploration's counters. Checkers
// count into it, the engine folds per-execution deltas of it, lease
// reports carry deltas of it, MemFrontier and the coordinator sum it,
// checkpoints persist it, and Stats is projected from it in one place
// (Tally.Stats). A new counter is one field here plus its increment
// site; every path above carries it without further change.
//
// The JSON names are the version-2 checkpoint's keys, so a checkpoint
// embeds a Tally without changing its format.
type Tally struct {
	Executions  int   `json:"executions"`
	Steps       int64 `json:"steps"`
	Pruned      int64 `json:"pruned,omitempty"`
	PrefixForks int64 `json:"prefix_forks,omitempty"`
	StepsSaved  int64 `json:"steps_saved,omitempty"`
	RaceReports int64 `json:"race_reports,omitempty"`
	// Created counts decision points by decision.Kind. A checkpoint
	// stores only completed units' counts here (outstanding units carry
	// their own inside their snapshots), hence the key.
	Created [numDecisionKinds]int `json:"base_created"`
}

func (t *Tally) add(o Tally, sign int) {
	s := int64(sign)
	t.Executions += sign * o.Executions
	t.Steps += s * o.Steps
	t.Pruned += s * o.Pruned
	t.PrefixForks += s * o.PrefixForks
	t.StepsSaved += s * o.StepsSaved
	t.RaceReports += s * o.RaceReports
	for k, n := range o.Created {
		t.Created[k] += sign * n
	}
}

// Add folds o into t.
func (t *Tally) Add(o Tally) { t.add(o, 1) }

// Sub returns t − o, the delta since a baseline o.
func (t Tally) Sub(o Tally) Tally {
	t.add(o, -1)
	return t
}

// Stats projects the tally onto Stats. Every Stats field the tally does
// not hold (Elapsed, Complete, the resilience counters) is left zero for
// the caller to fill.
func (t Tally) Stats() Stats {
	return Stats{
		Executions:     t.Executions,
		FailurePoints:  t.Created[decision.KindFailure],
		ReadFromPoints: t.Created[decision.KindReadFrom],
		PoisonPoints:   t.Created[decision.KindPoison],
		Steps:          t.Steps,
		Pruned:         t.Pruned,
		PrefixForks:    t.PrefixForks,
		StepsSaved:     t.StepsSaved,
		RaceReports:    t.RaceReports,
	}
}

// addTo credits t to the process-lifetime metrics, so a resumed run's
// /metrics agree with its Stats from the start.
func (t Tally) addTo(m coreMetrics) {
	m.execs.Add(int64(t.Executions))
	m.steps.Add(t.Steps)
	m.pruned.Add(t.Pruned)
	m.prefixForks.Add(t.PrefixForks)
	m.stepsSaved.Add(t.StepsSaved)
	m.races.Add(t.RaceReports)
}

// unitTally is the decision-point count a subtree unit carries.
func unitTally(tr *decision.Tree) (t Tally) {
	for k := range t.Created {
		t.Created[k] = tr.Created(decision.Kind(k))
	}
	return t
}

// Key is the identity bugs are deduplicated under: kind and message.
func (b Bug) Key() string { return b.Kind.String() + ":" + b.Message }

// BugSet is a list of distinct bugs (by Key) in first-found order.
type BugSet struct {
	list []Bug
	seen map[string]bool
}

// Has reports whether a bug with b's key is already in the set.
func (s *BugSet) Has(b Bug) bool { return s.seen[b.Key()] }

// Add appends b unless a bug with its key is already present, and
// reports whether it did.
func (s *BugSet) Add(b Bug) bool {
	if s.Has(b) {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	s.seen[b.Key()] = true
	s.list = append(s.list, b)
	return true
}

// List returns the set's bugs, in first-found order unless sorted. The
// slice is the set's own; sorting it in place keeps the set valid.
func (s *BugSet) List() []Bug { return s.list }

// SortBugs orders bugs stably by (kind, message): the deterministic
// order a run reports when discovery order depends on scheduling.
func SortBugs(bugs []Bug) {
	sort.SliceStable(bugs, func(i, j int) bool {
		if bugs[i].Kind != bugs[j].Kind {
			return bugs[i].Kind < bugs[j].Kind
		}
		return bugs[i].Message < bugs[j].Message
	})
}
