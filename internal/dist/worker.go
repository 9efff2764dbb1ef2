package dist

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Check is the exploration configuration; its digests must match the
	// coordinator's or the join is rejected. CheckpointPath and SpillDir
	// must be empty (the coordinator owns durable state).
	Check core.Config
	// Program is the program under test.
	Program func(*core.Program)
	// Coordinator is the coordinator's address ("host:port" or URL).
	Coordinator string
	// Name identifies this worker in leases and logs; defaults to
	// "worker-<pid>".
	Name string
	// Chaos, when non-nil, injects network faults into this worker's
	// transport (and I/O faults into anything else it touches).
	Chaos *chaos.Injector
	// Transport tunes retry/backoff/timeouts; zero values are fine.
	Transport TransportConfig
	// Tracer, when non-nil, receives rpc-retry events.
	Tracer *obs.Tracer
	// Registry, when non-nil, gets a cxlmc_rpc_retries_total counter.
	Registry *obs.Registry
}

// RemoteFrontier is the worker-side core.Frontier implementation: it
// speaks the coordinator's HTTP API through the retrying transport,
// renews its held lease in the background, and tracks the coordinator's
// demand for hand-offs. The engine using it keeps exploring its leased
// unit when the coordinator is unreachable — only between leases does
// it block in Lease, retrying with capped backoff until the coordinator
// comes back or stop fires.
type RemoteFrontier struct {
	t    *Transport
	name string
	ttl  time.Duration

	mu   sync.Mutex
	held map[uint64]uint64 // unit ID → epoch

	wanted  atomic.Int64
	stales  atomic.Int64
	reqSeq  atomic.Int64
	lastRep atomic.Int64  // transport retries already reported upstream
	stopped chan struct{} // closed when the coordinator says stop/done
	stopOne sync.Once

	renewStop chan struct{}
	renewDone chan struct{}
}

// NewRemoteFrontier returns a frontier client for the coordinator behind
// t. ttl is the lease TTL the coordinator granted at join.
func NewRemoteFrontier(t *Transport, name string, ttl time.Duration) *RemoteFrontier {
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	rf := &RemoteFrontier{
		t:         t,
		name:      name,
		ttl:       ttl,
		held:      make(map[uint64]uint64),
		stopped:   make(chan struct{}),
		renewStop: make(chan struct{}),
		renewDone: make(chan struct{}),
	}
	go rf.renewer()
	return rf
}

// Stopped is closed when the coordinator reported the run stopping (or
// done); RunWorker merges it into the engine's stop channel so a
// bug-stop elsewhere in the cluster drains this worker promptly.
func (rf *RemoteFrontier) Stopped() <-chan struct{} { return rf.stopped }

// Close stops the background renewer.
func (rf *RemoteFrontier) Close() {
	select {
	case <-rf.renewStop:
	default:
		close(rf.renewStop)
	}
	<-rf.renewDone
}

func (rf *RemoteFrontier) reqID(kind string) string {
	return rf.name + "-" + kind + "-" + strconv.FormatInt(rf.reqSeq.Add(1), 10)
}

func (rf *RemoteFrontier) noteStop() {
	rf.stopOne.Do(func() { close(rf.stopped) })
}

// renewer extends every held lease each ttl/3, well inside the deadline
// even with a retry or two. Leases the coordinator reports stale were
// reclaimed — drop them locally; the engine's eventual completions for
// them will be rejected idempotently.
func (rf *RemoteFrontier) renewer() {
	defer close(rf.renewDone)
	period := rf.ttl / 3
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-rf.renewStop:
			return
		case <-t.C:
		}
		rf.mu.Lock()
		leases := make([]wireLease, 0, len(rf.held))
		for id, ep := range rf.held {
			leases = append(leases, wireLease{ID: id, Epoch: ep})
		}
		rf.mu.Unlock()
		if len(leases) == 0 {
			continue
		}
		var resp renewResponse
		if err := rf.t.Call("/v1/renew", renewRequest{Worker: rf.name, ReqID: rf.reqID("renew"), Leases: leases}, &resp); err != nil {
			// Unreachable coordinator: keep exploring; the next tick
			// retries, and worst case the lease expires and the unit is
			// re-issued — deterministic re-execution keeps that harmless.
			continue
		}
		rf.wanted.Store(int64(resp.Wanted))
		if resp.Stop {
			rf.noteStop()
		}
		if len(resp.StaleIDs) > 0 {
			rf.stales.Add(int64(len(resp.StaleIDs)))
			rf.mu.Lock()
			for _, id := range resp.StaleIDs {
				delete(rf.held, id)
			}
			rf.mu.Unlock()
		}
	}
}

// Lease implements core.Frontier. It polls the coordinator until a unit
// is granted (registered for renewal and returned), the run is done or
// stopping (nil, nil), or stop fires (nil, core.ErrStopped). Transport
// errors degrade to capped-backoff retrying — an idle worker has nothing
// better to do than wait for the coordinator to come back (a restarted
// coordinator on the same address is rejoined transparently) — but an
// outage outlasting several lease TTLs makes the worker give up and
// finish with its local results: its leases have long been reclaimed, so
// nothing is lost, and the process never hangs on a dead address.
func (rf *RemoteFrontier) Lease(stop <-chan struct{}) (*core.LeasedUnit, error) {
	backoff := 25 * time.Millisecond
	giveUp := 4 * rf.ttl
	if giveUp < 2*time.Second {
		giveUp = 2 * time.Second
	}
	var failSince time.Time
	for {
		select {
		case <-stop:
			return nil, core.ErrStopped
		default:
		}
		var resp leaseResponse
		err := rf.t.Call("/v1/lease", leaseRequest{Worker: rf.name, ReqID: rf.reqID("lease")}, &resp)
		if err != nil {
			if IsRejected(err) {
				return nil, fmt.Errorf("dist: lease rejected: %w", err)
			}
			if failSince.IsZero() {
				failSince = time.Now()
			} else if time.Since(failSince) > giveUp {
				return nil, nil
			}
			if !sleepOrStop(backoff, stop) {
				return nil, core.ErrStopped
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 25 * time.Millisecond
		failSince = time.Time{}
		rf.wanted.Store(int64(resp.Wanted))
		if resp.Stop || resp.Done {
			if resp.Stop {
				rf.noteStop()
			}
			return nil, nil
		}
		if resp.Unit != nil {
			rf.mu.Lock()
			rf.held[resp.Unit.ID] = resp.Unit.Epoch
			rf.mu.Unlock()
			return &core.LeasedUnit{
				ID:       resp.Unit.ID,
				Epoch:    resp.Unit.Epoch,
				Snapshot: resp.Unit.Snapshot,
				Deadline: time.Now().Add(rf.ttl),
			}, nil
		}
		wait := time.Duration(resp.WaitMs) * time.Millisecond
		if wait <= 0 {
			wait = 25 * time.Millisecond
		}
		if !sleepOrStop(wait, stop) {
			return nil, core.ErrStopped
		}
	}
}

// sleepOrStop sleeps d, returning false if stop fired first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if stop == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// Complete implements core.Frontier: it settles lease u, attaching the
// transport retries accrued since the last report (so the coordinator's
// sum stays exact across workers). A stale rejection is counted. A
// transport failure after retries is survivable — the lease expires and
// the unit is re-issued — so it is swallowed; the lease is dropped from
// renewal either way.
func (rf *RemoteFrontier) Complete(u *core.LeasedUnit, rep core.UnitReport) {
	rf.mu.Lock()
	delete(rf.held, u.ID)
	rf.mu.Unlock()
	cur := int64(rf.t.Retries())
	if delta := cur - rf.lastRep.Swap(cur); delta > 0 {
		rep.RPCRetries = int(delta)
	}
	var resp completeResponse
	err := rf.t.Call("/v1/complete", completeRequest{
		Worker: rf.name,
		ReqID:  rf.reqID("complete"),
		UnitID: u.ID,
		Epoch:  u.Epoch,
		Report: rep,
	}, &resp)
	if err != nil {
		return
	}
	rf.wanted.Store(int64(resp.Wanted))
	if resp.Stale {
		rf.stales.Add(1)
	}
	if resp.Stop {
		rf.noteStop()
	}
}

// Demand implements core.Frontier from the coordinator's last reported
// demand — no RPC, so the engine may sample it every boundary.
func (rf *RemoteFrontier) Demand() int { return int(rf.wanted.Load()) }

// Stats implements core.Frontier with this worker's local view: its own
// transport retries and stale rejections. Reclaims are coordinator-side
// knowledge.
func (rf *RemoteFrontier) Stats() core.FrontierStats {
	return core.FrontierStats{
		RPCRetries:   rf.t.Retries(),
		StaleRejects: int(rf.stales.Load()),
	}
}

// RunWorker joins the coordinator, runs core.RunFrontier against a
// RemoteFrontier, and returns this worker's local result (the
// coordinator's Wait result is the authoritative global one). The
// coordinator's stop/done signal is merged into the engine's stop
// channel so a cluster-wide halt drains this worker promptly.
func RunWorker(cfg WorkerConfig) (*core.Result, error) {
	if cfg.Name == "" {
		cfg.Name = "worker-" + strconv.Itoa(os.Getpid())
	}
	tcfg := cfg.Transport
	if tcfg.Chaos == nil {
		tcfg.Chaos = cfg.Chaos
	}
	var retryCounter *obs.Counter
	if cfg.Registry != nil {
		retryCounter = cfg.Registry.Counter("cxlmc_rpc_retries_total", "transport calls retried after transient faults")
	}
	userRetry := tcfg.OnRetry
	tcfg.OnRetry = func(path string, err error) {
		retryCounter.Inc()
		cfg.Tracer.RecordS(-1, obs.EvRPCRetry, 0, path)
		if userRetry != nil {
			userRetry(path, err)
		}
	}
	t := NewTransport(cfg.Coordinator, tcfg)

	cfgDigest, progDigest, err := core.ExplorationDigests(cfg.Check, cfg.Program)
	if err != nil {
		return nil, err
	}
	var jr joinResponse
	if err := t.Call("/v1/join", joinRequest{
		Worker:        cfg.Name,
		Seed:          cfg.Check.Seed,
		ConfigDigest:  cfgDigest,
		ProgramDigest: progDigest,
	}, &jr); err != nil {
		return nil, fmt.Errorf("dist: joining %s: %w", cfg.Coordinator, err)
	}

	rf := NewRemoteFrontier(t, cfg.Name, time.Duration(jr.LeaseTTLMs)*time.Millisecond)
	defer rf.Close()

	ccfg := cfg.Check
	ccfg.ContinueAfterBug = jr.ContinueAfterBug
	ccfg.Stop = mergeStop(cfg.Check.Stop, rf.Stopped())
	return core.RunFrontier(ccfg, cfg.Program, rf)
}

// mergeStop fans two stop channels into one.
func mergeStop(a, b <-chan struct{}) <-chan struct{} {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		}
		close(out)
	}()
	return out
}
