package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// pinnedProgram is the program testdata/checkpoint-v2-midrun.json was
// cut from: a writer that leaves every odd slot unflushed (three distinct
// bugs), a checker joining it, and a third machine whose late flush the
// reduction can prune. Its setup structure is part of the checkpoint's
// program digest, so it must not change.
func pinnedProgram(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	slots := make([]Addr, 6)
	for i := range slots {
		slots[i] = p.AllocAligned(8, 64)
	}
	flag := p.AllocAligned(8, 64)
	a.Thread("writer", func(t *Thread) {
		for i, s := range slots {
			t.Store64(s, uint64(i)+1)
			if i%2 == 0 {
				t.CLFlush(s)
			}
			t.SFence()
		}
		t.Store64(flag, 1)
		t.CLFlush(flag)
		t.SFence()
	})
	other := p.AllocAligned(8, 64)
	c := p.NewMachine("C")
	c.Thread("tail", func(t *Thread) {
		for i := 0; i < 8; i++ {
			t.Store64(other, uint64(i))
		}
		t.CLFlush(other)
		t.SFence()
	})
	b.Thread("check", func(t *Thread) {
		t.Join(a)
		if t.Load64(flag) == 1 {
			for i, s := range slots {
				t.Assert(t.Load64(s) == uint64(i)+1, fmt.Sprintf("slot %d lost after failure", i))
			}
		}
	})
}

// TestResumePinnedCheckpoint pins the version-2 checkpoint format: a
// mid-run checkpoint written by an earlier build (two outstanding units,
// finished units' counts in base_created, reduction counters) resumes
// under one and four workers to exactly the exploration an uninterrupted
// run performs. A format change that breaks it needs a version bump, not
// a regenerated file.
func TestResumePinnedCheckpoint(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v2-midrun.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{ContinueAfterBug: true}, pinnedProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		path := cpPath(t)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{ContinueAfterBug: true, Workers: workers, CheckpointPath: path}, pinnedProgram)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		label := fmt.Sprintf("pinned resume, workers=%d", workers)
		if !res.Resumed || !res.Complete {
			t.Fatalf("%s: resumed=%v complete=%v", label, res.Resumed, res.Complete)
		}
		sameExploration(t, label, res, want)
		if res.Steps != want.Steps {
			t.Fatalf("%s: steps %d, want %d", label, res.Steps, want.Steps)
		}
	}
}

// distinctTally sets every Tally field, and every element of an array
// field, to its own nonzero value.
func distinctTally(t *testing.T) Tally {
	var tl Tally
	v := reflect.ValueOf(&tl).Elem()
	n := int64(1000)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			n++
			f.SetInt(n)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				n++
				f.Index(j).SetInt(n)
			}
		default:
			t.Fatalf("Tally.%s has kind %s; teach distinctTally about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return tl
}

// distinctHistory sets every History field to a nonzero value of its
// own: bools true, integers distinct.
func distinctHistory(t *testing.T) History {
	var h History
	v := reflect.ValueOf(&h).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(int64(2000 + i))
		default:
			t.Fatalf("History.%s has kind %s; teach distinctHistory about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return h
}

// historyIn fails unless every History field has an equal namesake in s.
func historyIn(t *testing.T, label string, h History, s Stats) {
	t.Helper()
	hv, sv := reflect.ValueOf(h), reflect.ValueOf(s)
	for i := 0; i < hv.NumField(); i++ {
		name := hv.Type().Field(i).Name
		if f := sv.FieldByName(name); !f.IsValid() || !f.Equal(hv.Field(i)) {
			t.Fatalf("%s: Stats.%s = %v, want %v", label, name, f, hv.Field(i))
		}
	}
}

// intFields returns the nonzero integer fields of a struct by name.
func intFields(s any) map[string]int64 {
	out := make(map[string]int64)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() && f.Int() != 0 {
			out[v.Type().Field(i).Name] = f.Int()
		}
	}
	return out
}

// TestTallyFieldsSurvive: every Tally field reaches every place the
// tally travels — Add/Sub, the Stats projection, the checkpoint
// write→load→adopt path into a run's Stats and metrics, MemFrontier's
// totals and checkpoint, and the UnitReport wire encoding — so a
// counter added to Tally cannot be dropped silently on any of them.
// Likewise every History field reaches Stats through ApplyTo and
// survives the checkpoint round trip into a resumed run's Stats.
func TestTallyFieldsSurvive(t *testing.T) {
	tl := distinctTally(t)
	hist := distinctHistory(t)
	var applied Stats
	hist.ApplyTo(&applied)
	historyIn(t, "ApplyTo", hist, applied)

	var sum Tally
	sum.Add(tl)
	if sum != tl || tl.Sub(tl) != (Tally{}) {
		t.Fatalf("Add/Sub lose fields: 0+t = %+v, t−t = %+v", sum, tl.Sub(tl))
	}

	// The projection maps each tally value to exactly one Stats field.
	proj := intFields(tl.Stats())
	seen := make(map[int64]bool)
	for _, n := range proj {
		seen[n] = true
	}
	count := 0
	for _, n := range intFields(tl) {
		count++
		if !seen[n] {
			t.Fatalf("Stats projection drops tally value %d: %+v", n, tl.Stats())
		}
	}
	for _, c := range tl.Created {
		count++
		if !seen[int64(c)] {
			t.Fatalf("Stats projection drops Created value %d: %+v", c, tl.Stats())
		}
	}
	if len(proj) != count {
		t.Fatalf("Stats projection has %d tally-derived fields, the tally has %d values", len(proj), count)
	}

	// Checkpoint write → load → adopt → Stats and process metrics.
	cfg := Config{CheckpointPath: cpPath(t), Obs: obs.NewRegistry()}
	cfgDigest, progDigest, err := ExplorationDigests(cfg, pinnedProgram)
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCheckpoint(cfg.Seed, cfgDigest, progDigest)
	cp.Tally, cp.History, cp.Complete = tl, hist, true
	if err := WriteCheckpoint(cfg.CheckpointPath, cp, nil); err != nil {
		t.Fatal(err)
	}
	r, quarantined, err := ResumeCheckpoint(cfg.CheckpointPath, nil, cfg.Seed, cfgDigest, progDigest)
	if err != nil || quarantined || r == nil {
		t.Fatalf("ResumeCheckpoint = (%v, %v, %v)", r, quarantined, err)
	}
	if r.Total() != tl || r.History != hist {
		t.Fatalf("checkpoint round trip: %+v %+v, want %+v %+v", r.Total(), r.History, tl, hist)
	}
	res, err := Run(cfg, pinnedProgram)
	if err != nil {
		t.Fatal(err)
	}
	historyIn(t, "resumed run", hist, res.Stats)
	got := intFields(res.Stats)
	for name, n := range proj {
		if got[name] != n {
			t.Fatalf("resumed Stats.%s = %d, want %d", name, got[name], n)
		}
	}
	metrics := make(map[int64]bool)
	for _, v := range cfg.Obs.Snapshot() {
		metrics[int64(v)] = true
	}
	for name, n := range intFields(tl) {
		if !metrics[n] {
			t.Fatalf("resumed metrics lack Tally.%s = %d", name, n)
		}
	}

	// MemFrontier: credited totals come back out of Totals and a
	// checkpoint of the frontier.
	f := NewMemFrontier(MemFrontierConfig{LeaseTTL: time.Minute}, nil)
	defer f.Close()
	f.Credit(UnitReport{Tally: tl})
	if got, _, _, _ := f.Totals(); got != tl {
		t.Fatalf("MemFrontier totals %+v, want %+v", got, tl)
	}
	fcp := NewCheckpoint(0, "", "")
	f.FillCheckpoint(fcp)
	if fcp.Tally != tl {
		t.Fatalf("MemFrontier checkpoint tally %+v, want %+v", fcp.Tally, tl)
	}

	// UnitReport JSON round trip (the coordinator wire format).
	wire, err := json.Marshal(UnitReport{Tally: tl})
	if err != nil {
		t.Fatal(err)
	}
	var back UnitReport
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tally != tl {
		t.Fatalf("UnitReport round trip: %+v, want %+v", back.Tally, tl)
	}
}
