package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cxlmc "repro"
)

// span is one call the benchmark made into a layer. Spans of one check
// share Check; the root span of a check is named "check" and its ID is
// the check ID.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Check  int64  `json:"check"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: setup callbacks run on several engine workers at once
// when Workers > 1, and service checks run on their own goroutines. A
// nil tracer records nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(name string, id, parent, check int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Check: check,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkCtx is one check's trace identity. Its zero value (from a nil
// tracer) traces nothing.
type checkCtx struct {
	tr *tracer
	id int64
}

func newCheck(tr *tracer) checkCtx { return checkCtx{tr: tr, id: tr.newID()} }

func (c checkCtx) traced() bool { return c.tr != nil }

// span runs f as a span named name under parent (0 means the check's
// root) and passes f the new span's ID, for its children.
func (c checkCtx) span(name string, parent int64, f func(id int64)) {
	if c.tr == nil {
		f(0)
		return
	}
	if parent == 0 {
		parent = c.id
	}
	id := c.tr.newID()
	start := time.Now()
	f(id)
	c.tr.record(name, id, parent, c.id, start, time.Now())
}

// at records a span whose bounds were measured elsewhere (the job
// server's Status timestamps).
func (c checkCtx) at(name string, start, end time.Time) {
	if c.tr == nil || start.IsZero() || end.IsZero() {
		return
	}
	c.tr.record(name, c.tr.newID(), c.id, c.id, start, end)
}

// root records the check's root span.
func (c checkCtx) root(start, end time.Time) {
	if c.tr != nil {
		c.tr.record("check", c.id, 0, c.id, start, end)
	}
}

// wrapSetup times every call of the program's setup function as a
// "program.setup" span under the core.run span parent. The engine calls
// setup once per execution, concurrently under Workers > 1; the tracer
// is safe for that.
func (c checkCtx) wrapSetup(parent int64, prog func(*cxlmc.Program)) func(*cxlmc.Program) {
	if c.tr == nil {
		return prog
	}
	return func(p *cxlmc.Program) {
		start := time.Now()
		prog(p)
		c.tr.record("program.setup", c.tr.newID(), parent, c.id, start, time.Now())
	}
}

// spanAgg is one span name's totals over a set of spans.
type spanAgg struct {
	n     int
	total time.Duration
	self  time.Duration
}

// aggregate totals each span name's duration and self time (its
// duration minus the part of it its children cover), over the spans
// whose check is in keep (nil keeps all).
func aggregate(spans []span, keep map[int64]bool) map[string]*spanAgg {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanAgg{}
	for _, s := range spans {
		if keep != nil && !keep[s.Check] {
			continue
		}
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.n++
		a.total += d
		a.self += d - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}
