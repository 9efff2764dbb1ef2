// Package proptest holds the seeded random programs the property tests
// explore, shared by the facade's tests and the core package's
// ablation tests.
package proptest

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
)

// Writer emits a deterministic pseudo-random sequence of stores,
// flushes and fences over [base, base+128).
func Writer(seed int64, base core.Addr) func(*core.Thread) {
	return func(th *core.Thread) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			a := base + core.Addr(rng.Intn(4)*32)
			switch rng.Intn(6) {
			case 0:
				th.CLFlush(a)
			case 1:
				th.CLFlushOpt(a)
				th.SFence()
			case 2:
				th.SFence()
			case 3:
				th.MFence()
			default:
				th.Store64(a, uint64(rng.Intn(50)+1))
			}
		}
		th.MFence()
	}
}

// Observations is a set of observation strings that is safe for
// concurrent use: with Workers > 1, the observer threads of different
// executions record into it at the same time.
type Observations struct {
	mu  sync.Mutex
	set map[string]bool
}

func (o *Observations) add(s string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.set == nil {
		o.set = map[string]bool{}
	}
	o.set[s] = true
}

// Set returns a copy of the recorded observations.
func (o *Observations) Set() map[string]bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]bool, len(o.set))
	for s := range o.set {
		out[s] = true
	}
	return out
}

// Program builds a two-machine program with a seeded random writer and
// an observer that records what it reads into sink.
func Program(seed int64, sink *Observations) func(*core.Program) {
	return func(p *core.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		base := p.AllocAligned(128, 64)
		a.Thread("w", Writer(seed, base))
		b.Thread("r", func(th *core.Thread) {
			th.Join(a)
			obs := ""
			for off := core.Addr(0); off < 128; off += 32 {
				obs += fmt.Sprintf("%d,", th.Load64(base+off))
			}
			if a.Failed() {
				obs += "F"
			}
			sink.add(obs)
		})
	}
}
