package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
	"repro/internal/recipe/pmasstree"
)

// The distributed-exploration suite: end-to-end parity over real HTTP,
// crashed-worker lease reclamation, coordinator crash + checkpoint
// resume, wire-level idempotency, and a network-chaos sweep proving no
// work unit is ever lost or double-counted.

// fixture builds a deterministic buggy program whose state space grows
// with keys: the writer leaves every odd slot unflushed, so each odd
// slot is a distinct crash-consistency bug.
func fixture(keys int) func(*core.Program) {
	return func(p *core.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		slots := make([]core.Addr, keys)
		for i := range slots {
			slots[i] = p.AllocAligned(8, 64)
		}
		flag := p.AllocAligned(8, 64)
		a.Thread("writer", func(t *core.Thread) {
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
		b.Thread("check", func(t *core.Thread) {
			t.Join(a)
			if t.Load64(flag) == 1 {
				for i, s := range slots {
					t.Assert(t.Load64(s) == uint64(i)+1, fmt.Sprintf("slot %d lost after failure", i))
				}
			}
		})
	}
}

// ccehProgram is the paper's Table 5 CCEH benchmark with the missing-
// flush bug seeded — the same workload the acceptance smoke runs, and
// large enough (hundreds of executions) to exercise splits and mid-run
// checkpoints.
func ccehProgram(keys int) func(*core.Program) {
	return recipe.Program(cceh.Benchmark, recipe.Config{Keys: keys, Bugs: recipe.Bug(1)})
}

// massTree is the paper's P-MassTree benchmark at 32 keys without
// seeded bugs: hundreds of executions from one unit at the start, so
// workers only both explore if the first holder hands work off.
var massTree = recipe.Program(pmasstree.Benchmark, recipe.Config{Keys: 32})

// massTreeBase is massTree's single-process result, computed once.
var massTreeBase = sync.OnceValues(func() (*core.Result, error) {
	return core.Run(core.Config{}, massTree)
})

func distinctBugs(bugs []core.Bug) []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range bugs {
		k := b.Kind.String() + ": " + b.Message
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertParity fails unless res matches the single-process baseline in
// executions, decision points and distinct bug set.
func assertParity(t *testing.T, label string, res, base *core.Result) {
	t.Helper()
	if !res.Complete {
		t.Fatalf("%s: run incomplete", label)
	}
	if res.Executions != base.Executions ||
		res.FailurePoints != base.FailurePoints ||
		res.ReadFromPoints != base.ReadFromPoints {
		t.Fatalf("%s: stats (execs %d, fp %d, rfp %d) != baseline (execs %d, fp %d, rfp %d)",
			label, res.Executions, res.FailurePoints, res.ReadFromPoints,
			base.Executions, base.FailurePoints, base.ReadFromPoints)
	}
	if got, want := distinctBugs(res.Bugs), distinctBugs(base.Bugs); !equal(got, want) {
		t.Fatalf("%s: bug set %v != baseline %v", label, got, want)
	}
}

// TestTransportRetriesTransientFaults: 5xx and connection failures are
// retried with backoff; a 4xx surfaces immediately as a rejection.
func TestTransportRetriesTransientFaults(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	tr := NewTransport(srv.URL, TransportConfig{Backoff: time.Millisecond})
	var resp struct {
		OK bool `json:"ok"`
	}
	if err := tr.Call("/x", struct{}{}, &resp); err != nil {
		t.Fatalf("Call after transient 503s: %v", err)
	}
	if !resp.OK {
		t.Fatal("response not decoded")
	}
	if tr.Retries() != 2 {
		t.Fatalf("Retries = %d, want 2", tr.Retries())
	}

	rej := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusConflict)
	}))
	defer rej.Close()
	tr2 := NewTransport(rej.URL, TransportConfig{Backoff: time.Millisecond})
	err := tr2.Call("/x", struct{}{}, nil)
	if err == nil || !IsRejected(err) {
		t.Fatalf("409 should be a permanent rejection, got %v", err)
	}
	if tr2.Retries() != 0 {
		t.Fatalf("a permanent 4xx was retried %d time(s)", tr2.Retries())
	}
}

// TestDistEndToEndParity: a coordinator and two worker processes (in
// miniature: two RunWorker calls over real HTTP) explore exactly the
// executions a single-process run does, find the same distinct bugs,
// and every repro token the distributed run mints replays to a bug.
func TestDistEndToEndParity(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Buggy() {
		t.Fatal("fixture found no bugs")
	}

	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				Check: check, Program: prog,
				Coordinator: c.Addr(), Name: fmt.Sprintf("w%d", i),
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "distributed", res, base)

	for _, b := range res.Bugs {
		if b.ReproToken == "" {
			t.Fatalf("bug %q has no repro token", b.Message)
		}
		rr, err := core.Replay(b.ReproToken, core.Config{}, prog)
		if err != nil {
			t.Fatalf("replaying %q: %v", b.Message, err)
		}
		if !rr.Buggy() {
			t.Fatalf("token of %q replays to no bug", b.Message)
		}
	}
}

// TestDistDigestMismatchRejected: a worker offering a different program
// is turned away at join with a permanent rejection, not retried into
// the frontier.
func TestDistDigestMismatchRejected(t *testing.T) {
	c, err := StartCoordinator(CoordinatorConfig{
		Check: core.Config{}, Program: fixture(4), Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stop := make(chan struct{})
		close(stop)
		c.Wait(stop)
	}()
	_, err = RunWorker(WorkerConfig{
		Check: core.Config{}, Program: fixture(8),
		Coordinator: c.Addr(), Name: "impostor",
	})
	if err == nil {
		t.Fatal("join with a mismatched program digest succeeded")
	}
}

// TestDistAbandonedLeaseReclaim is the crashed-worker story end to end:
// a fake worker joins, leases the only unit and dies silently. The
// coordinator reclaims the lease after the TTL, a real worker finishes
// the exploration, the dead worker's late completion is rejected as
// stale, and the global result still matches the single-process
// baseline exactly — LeaseReclaims and StaleCompletions record the
// recovery.
func TestDistAbandonedLeaseReclaim(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(8)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}

	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		LeaseTTL: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The fake worker: join, lease, crash (never renew, never complete).
	tr := NewTransport(c.Addr(), TransportConfig{})
	cfgDigest, progDigest, err := core.ExplorationDigests(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	var jr joinResponse
	if err := tr.Call("/v1/join", joinRequest{Worker: "crasher", Seed: 0, ConfigDigest: cfgDigest, ProgramDigest: progDigest}, &jr); err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if err := tr.Call("/v1/lease", leaseRequest{Worker: "crasher", ReqID: "crasher-lease-1"}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Unit == nil {
		t.Fatal("fake worker got no lease")
	}

	// A healthy worker arrives; it can only make progress once the dead
	// worker's lease is reclaimed and re-issued.
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerConfig{
			Check: check, Program: prog,
			Coordinator: c.Addr(), Name: "healthy",
		})
		done <- err
	}()

	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("healthy worker: %v", werr)
	}
	assertParity(t, "post-crash", res, base)
	if res.LeaseReclaims < 1 {
		t.Fatalf("LeaseReclaims = %d, want >= 1", res.LeaseReclaims)
	}

	// The crasher rises from the dead: its completion must be rejected
	// (the coordinator lingers briefly after the run for exactly this
	// kind of straggler).
	var cr completeResponse
	err = tr.Call("/v1/complete", completeRequest{
		Worker: "crasher", ReqID: "crasher-complete-1",
		UnitID: lr.Unit.ID, Epoch: lr.Unit.Epoch,
		Report: core.UnitReport{Tally: core.Tally{Executions: 999999}},
	}, &cr)
	if err == nil && !cr.Stale {
		t.Fatal("stale completion from the dead worker was accepted")
	}
}

// TestDistIdempotentRequests: the same request ID delivered twice (a
// retry after a lost response, or a chaos duplicate) applies its effect
// once; the duplicate gets the original response replayed.
func TestDistIdempotentRequests(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: fixture(4), Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(c.Addr(), TransportConfig{})
	snap := [][]byte{decision.NewTree().Snapshot()}
	// A second queued unit, so a re-applied lease would grant it.
	c.f.Add(snap)

	var lr leaseResponse
	for i := 0; i < 3; i++ {
		var r leaseResponse
		if err := tr.Call("/v1/lease", leaseRequest{Worker: "w", ReqID: "dup-lease-1"}, &r); err != nil {
			t.Fatal(err)
		}
		if r.Unit == nil || (lr.Unit != nil && r.Unit.ID != lr.Unit.ID) {
			t.Fatalf("delivery %d of one lease request got %+v, want the first grant replayed", i+1, r.Unit)
		}
		lr = r
	}
	if _, _, _, leased := c.f.Totals(); leased != 1 {
		t.Fatalf("3 deliveries of one lease request hold %d leases, want 1", leased)
	}

	addedBefore, _ := c.f.UnitCounts()
	for i := 0; i < 3; i++ {
		var cr completeResponse
		if err := tr.Call("/v1/complete", completeRequest{
			Worker: "w", ReqID: "dup-complete-1", UnitID: lr.Unit.ID, Epoch: lr.Unit.Epoch,
			Report: core.UnitReport{Remainder: snap},
		}, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Stale {
			t.Fatalf("delivery %d of one completion was re-applied (answered stale)", i+1)
		}
	}
	if added, done := c.f.UnitCounts(); added != addedBefore+1 || done != 1 {
		t.Fatalf("3 deliveries of one completion: %d units added, %d completed; want 1 and 1", added-addedBefore, done)
	}

	stop := make(chan struct{})
	close(stop)
	c.Wait(stop)
}

// midRunCheckpoint leaves at path the checkpoint a coordinator
// "SIGKILLed" mid-run would: a worker explores half of the total
// executions (MaxExecutions is a budget knob, not part of the exploration
// digest) and exits, its unexplored remainder flushes back to the
// frontier, the last periodic write captures partial stats plus residue
// units, and the coordinator dies with no Wait, no final checkpoint, no
// graceful anything.
func midRunCheckpoint(t *testing.T, check core.Config, prog func(*core.Program), path string, total int) {
	t.Helper()
	c1, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		CheckpointPath: path, CheckpointInterval: time.Hour, // written by hand below
	})
	if err != nil {
		t.Fatal(err)
	}
	wc := check
	wc.MaxExecutions = total / 2
	if _, err := RunWorker(WorkerConfig{
		Check: wc, Program: prog,
		Coordinator: c1.Addr(), Name: "partial",
	}); err != nil {
		t.Fatalf("partial worker: %v", err)
	}
	// Wait for the flush to land, then take the "periodic" checkpoint a
	// real coordinator would have on disk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, _, leased := c1.f.Totals(); leased == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flushed leases never resolved")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c1.writeCheckpoint(false); err != nil {
		t.Fatal(err)
	}
	if mid, _, _, _ := c1.f.Totals(); mid.Executions <= 0 || mid.Executions >= total {
		t.Fatalf("mid-run checkpoint covers %d of %d executions; wanted a strict middle", mid.Executions, total)
	}
	kill(c1)
}

// kill tears a coordinator down the way SIGKILL would: no Wait, no final
// checkpoint.
func kill(c *Coordinator) {
	c.srv.Close()
	close(c.cpStop)
	c.f.Close()
}

// resumeDistributed runs a coordinator resuming the checkpoint at path
// with one worker to the end.
func resumeDistributed(t *testing.T, check core.Config, prog func(*core.Program), path string) *core.Result {
	t.Helper()
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		RunWorker(WorkerConfig{
			Check: check, Program: prog,
			Coordinator: c.Addr(), Name: "finisher",
		})
	}()
	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDistCoordinatorCrashResume: a coordinator is SIGKILLed mid-run,
// leaving only its last periodic checkpoint, and a fresh coordinator
// resuming from that file finishes the exploration with a result
// identical to an uninterrupted single-process run.
func TestDistCoordinatorCrashResume(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "dist.cp")
	midRunCheckpoint(t, check, prog, cpPath, base.Executions)
	res := resumeDistributed(t, check, prog, cpPath)
	if !res.Resumed {
		t.Fatal("resumed run not marked Resumed")
	}
	assertParity(t, "crash-resume", res, base)
}

// TestDistQuarantinePartialCheckpoint: a mid-run checkpoint whose last
// unit does not decode is quarantined as a whole, and nothing from the
// units that did decode before it leaks into the fresh start — the
// finished run matches a single-process run exactly.
func TestDistQuarantinePartialCheckpoint(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(6)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(t.TempDir(), "dist.cp")
	midRunCheckpoint(t, check, prog, cpPath, base.Executions)
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Units = append(cp.Units, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	if err := core.WriteCheckpoint(cpPath, &cp, nil); err != nil {
		t.Fatal(err)
	}
	res := resumeDistributed(t, check, prog, cpPath)
	if !res.Quarantined || res.Resumed {
		t.Fatalf("quarantined=%v resumed=%v, want a quarantined fresh start", res.Quarantined, res.Resumed)
	}
	if _, err := os.Stat(cpPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not preserved: %v", err)
	}
	assertParity(t, "quarantine", res, base)
}

// TestDistCrossModeResume: the version-2 checkpoint is one format for
// both modes. A coordinator's checkpoint resumes under core.Run at one
// and four workers, and a core.Run checkpoint cut under one and four
// workers resumes under a coordinator plus one worker; every resumed
// run matches an uninterrupted single-process run.
func TestDistCrossModeResume(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	distCP := filepath.Join(t.TempDir(), "dist.cp")
	midRunCheckpoint(t, check, prog, distCP, base.Executions)
	raw, err := os.ReadFile(distCP)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("coordinator→core.Run workers=%d", workers)
		path := filepath.Join(t.TempDir(), "copy.cp")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := check
		cfg.Workers, cfg.CheckpointPath = workers, path
		res, err := core.Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Resumed {
			t.Fatalf("%s: not marked Resumed", label)
		}
		assertParity(t, label, res, base)
	}
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("core.Run workers=%d→coordinator", workers)
		path := filepath.Join(t.TempDir(), "local.cp")
		cfg := check
		cfg.Workers, cfg.CheckpointPath, cfg.MaxExecutions = workers, path, 40
		if leg1, err := core.Run(cfg, prog); err != nil || leg1.Complete {
			t.Fatalf("%s leg 1: err=%v complete=%v", label, err, leg1 != nil && leg1.Complete)
		}
		res := resumeDistributed(t, check, prog, path)
		if !res.Resumed {
			t.Fatalf("%s: not marked Resumed", label)
		}
		assertParity(t, label, res, base)
	}
}

// TestDistChaosSweep: every network fault class at once — client-side
// drops, delays, duplicates and partitions, server-side 5xx — and the
// distributed run still matches the baseline exactly, with every work
// unit accounted for (none lost, none double-counted) and the retries
// surfaced in Stats.
func TestDistChaosSweep(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(16)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}

	serverInj := chaos.New(chaos.Config{Seed: 7, Net5xxPct: 25, MaxFaults: 500})
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		// Short enough that renewals run (they carry the coordinator's
		// demand signal, which is what triggers donation splits), long
		// enough that no live worker's lease lapses under injected
		// delays — reclaim-under-fire is the abandoned-lease test's job.
		LeaseTTL: 500 * time.Millisecond,
		Chaos:    serverInj,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	injs := make([]*chaos.Injector, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		injs[i] = chaos.New(chaos.Config{
			Seed:            int64(100 + i),
			NetDropPct:      25,
			NetDelayPct:     25,
			NetDelayDur:     time.Millisecond,
			NetDupPct:       25,
			NetPartitionPct: 3,
			NetPartitionDur: 20 * time.Millisecond,
			MaxFaults:       500,
		})
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				Check: check, Program: prog,
				Coordinator: c.Addr(), Name: fmt.Sprintf("chaotic-%d", i),
				Chaos:     injs[i],
				Transport: TransportConfig{Attempts: 10, Backoff: time.Millisecond},
			}); err != nil {
				t.Errorf("chaotic worker %d: %v", i, err)
			}
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "chaos", res, base)
	added, done := c.f.UnitCounts()
	if added != done {
		t.Fatalf("%d units added but %d completed under chaos — work lost or duplicated", added, done)
	}
	faults := serverInj.Stats().Total()
	for _, inj := range injs {
		faults += inj.Stats().Total()
	}
	if faults == 0 {
		t.Fatal("chaos sweep injected no faults; the run proved nothing")
	}
	t.Logf("chaos sweep: %d units, %d faults injected, %d rpc retries, %d reclaims, %d stale rejects",
		added, faults, res.RPCRetries, res.LeaseReclaims, res.StaleCompletions)
}

// TestDistWorkerGivesUpOnDeadCoordinator: an idle RemoteFrontier whose
// coordinator has vanished stops retrying after its give-up window
// instead of hanging the process forever.
func TestDistWorkerGivesUpOnDeadCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 2s give-up floor")
	}
	tr := NewTransport("127.0.0.1:1", TransportConfig{Attempts: 1, Backoff: time.Millisecond, Timeout: 50 * time.Millisecond})
	rf := NewRemoteFrontier(tr, "orphan", 100*time.Millisecond)
	defer rf.Close()
	start := time.Now()
	u, err := rf.Lease(nil)
	if u != nil || err != nil {
		t.Fatalf("Lease = (%v, %v), want (nil, nil) give-up", u, err)
	}
	if d := time.Since(start); d < 2*time.Second || d > 30*time.Second {
		t.Fatalf("gave up after %v; want a few seconds", d)
	}
}

// TestDistWorkersShareWork: two workers, each with a local pool of two,
// split a run that starts as a single unit. The first holder hands work
// to its starving peer by settling its lease early, so both explore,
// and the merged result still matches a single-process run.
func TestDistWorkersShareWork(t *testing.T) {
	prog := massTree
	base, err := massTreeBase()
	if err != nil {
		t.Fatal(err)
	}
	check := core.Config{Workers: 2}
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	local := make([]*core.Result, 2)
	var wg sync.WaitGroup
	for i := range local {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunWorker(WorkerConfig{
				Check: check, Program: prog,
				Coordinator: c.Addr(), Name: fmt.Sprintf("w%d", i),
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			local[i] = res
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range local {
		if r == nil || r.Executions == 0 {
			t.Errorf("worker %d explored nothing (local result %+v)", i, r)
		}
	}
	assertParity(t, "shared", res, base)
}

// TestDistCrashAfterHandoff: a worker hands work off and then crashes
// while holding its next lease. The victim reaches the coordinator
// through a proxy that cuts it off — no renewal, no completion, exactly
// what the coordinator sees of a crash — once work has been handed off
// (more units added than the seed) and both workers hold a lease. The
// victim's lease is reclaimed and the survivor finishes; since a hand-off
// settles a lease, the reclaimed unit holds exactly the victim's
// unsettled work and the result matches a single-process run.
func TestDistCrashAfterHandoff(t *testing.T) {
	prog := massTree
	base, err := massTreeBase()
	if err != nil {
		t.Fatal(err)
	}
	check := core.Config{Workers: 2}
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	target, err := url.Parse("http://" + c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// mu is held across each forwarded victim request, so the cut
	// decision never sees the coordinator's state with a victim request
	// in flight: with leased >= 2 each worker holds its one lease, and the
	// victim's stays unsettled once cut.
	fwd := httputil.NewSingleHostReverseProxy(target)
	var mu sync.Mutex
	cut := false
	decide := func() bool {
		if !cut {
			added, _ := c.f.UnitCounts()
			_, _, _, leased := c.f.Totals()
			cut = added >= 2 && leased >= 2
		}
		return cut
	}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if decide() {
			http.Error(w, "victim cut off", http.StatusServiceUnavailable)
			return
		}
		fwd.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	waited := make(chan struct{})
	go func() {
		for {
			mu.Lock()
			done := decide()
			mu.Unlock()
			select {
			case <-waited:
				return
			case <-time.After(time.Millisecond):
			}
			if done {
				return
			}
		}
	}()

	// The victim joins first and takes the seed unit; the survivor joins
	// once it holds it, so the victim is the one to hand work off.
	victimStop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"victim", "survivor"} {
		if name == "survivor" {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, _, _, leased := c.f.Totals(); leased > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the victim never leased the seed unit")
				}
			}
		}
		addr := c.Addr()
		wcheck := check
		if name == "victim" {
			addr = proxy.URL
			wcheck.Stop = victimStop
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				Check: wcheck, Program: prog, Coordinator: addr, Name: name,
			}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	res, err := c.Wait(nil)
	close(waited)
	close(victimStop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !cut {
		t.Fatal("the victim was never cut off: no hand-off happened")
	}
	assertParity(t, "crash after hand-off", res, base)
	if res.LeaseReclaims < 1 {
		t.Fatalf("LeaseReclaims = %d, want >= 1", res.LeaseReclaims)
	}
}

// TestDistRejectsUndecodableRemainder: the coordinator decodes every
// remainder unit a completion carries before accepting it. A report with
// one that does not decode is rejected and leaves its lease alone, so
// the next checkpoint holds only decodable units and resumes without
// quarantine.
func TestDistRejectsUndecodableRemainder(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	path := filepath.Join(t.TempDir(), "dist.cp")
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: fixture(4), Addr: "127.0.0.1:0",
		CheckpointPath: path, CheckpointInterval: time.Hour, // written by hand below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kill(c)
	tr := NewTransport(c.Addr(), TransportConfig{})
	var lr leaseResponse
	if err := tr.Call("/v1/lease", leaseRequest{Worker: "hand", ReqID: "hand-lease-1"}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Unit == nil {
		t.Fatal("no unit leased")
	}
	var cr completeResponse
	err = tr.Call("/v1/complete", completeRequest{
		Worker: "hand", ReqID: "hand-complete-1", UnitID: lr.Unit.ID, Epoch: lr.Unit.Epoch,
		Report: core.UnitReport{Remainder: [][]byte{{0xDE, 0xAD}}},
	}, &cr)
	if !IsRejected(err) {
		t.Errorf("undecodable remainder: err = %v, want a rejection", err)
	}
	if _, _, queued, leased := c.f.Totals(); queued != 0 || leased != 1 {
		t.Errorf("after the rejected completion: %d queued, %d leased; want the lease untouched (0, 1)", queued, leased)
	}
	if err := c.writeCheckpoint(false); err != nil {
		t.Fatal(err)
	}
	r, quarantined, err := core.ResumeCheckpoint(path, nil, check.Seed, c.cfgDigest, c.progDigest)
	if err != nil || quarantined || r == nil {
		t.Fatalf("resuming the checkpoint: r=%v quarantined=%v err=%v", r, quarantined, err)
	}
}
