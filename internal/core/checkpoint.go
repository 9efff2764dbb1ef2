package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/decision"
	"repro/internal/obs"
)

// This file implements crash-consistent checkpointing of an exploration:
// the decision-tree frontier, cumulative statistics and the bugs found
// so far are written to Config.CheckpointPath (temp file + rename, so a
// kill mid-write never corrupts the previous checkpoint), and a later
// run with the same seed, configuration and program resumes exactly
// where the checkpoint left off. Identity is enforced with digests: a
// checkpoint (or repro token) recorded under a different configuration
// or program structure is rejected with a descriptive error instead of
// silently exploring garbage.

// checkpointVersion is bumped whenever the on-disk encoding changes.
// Version 2 replaced the single tree snapshot with the parallel engine's
// frontier: one snapshot per outstanding subtree unit, plus the decision
// points already accounted by completed units.
const checkpointVersion = 2

// checkpointData is the JSON envelope written to CheckpointPath. The
// unit snapshots inside it use the decision package's own versioned
// binary encoding (JSON base64s the bytes).
type checkpointData struct {
	Version       int    `json:"version"`
	Seed          int64  `json:"seed"`
	ConfigDigest  string `json:"config_digest"`
	ProgramDigest string `json:"program_digest"`
	// Units holds one decision-tree snapshot per subtree still to be
	// (fully) explored. A fresh run checkpoints a single unit: the whole
	// tree.
	Units [][]byte `json:"units"`
	// Tally holds the cumulative counters. Its Created (key
	// base_created) counts the decision points of units that already
	// completed; outstanding units carry their own counts inside their
	// snapshots. Counters added after version 2 shipped are omitempty
	// and decode as zeros from older checkpoints, so no version bump is
	// needed. Reduction eligibility itself is never serialized: pruning
	// is recomputed deterministically during unit replay and fork logs
	// are rebuilt once per adopted unit.
	Tally
	Elapsed     time.Duration `json:"elapsed_ns"`
	Complete    bool          `json:"complete"`
	Interrupted bool          `json:"interrupted"`
	History
	Bugs []Bug `json:"bugs,omitempty"`
}

// History is the run record that is carried, not summed: cumulative
// resilience counters that survive resumptions, so Stats reports the
// whole exploration's history, not just the last process's. The engine
// and the coordinator each hold one, adopt a resumed checkpoint's in one
// assignment and project it onto Stats with ApplyTo. The fields were
// added after version 2 shipped; omitted ones decode as zeros, so older
// checkpoints stay readable without a version bump.
type History struct {
	Degraded         bool `json:"degraded,omitempty"`
	Spills           int  `json:"spills,omitempty"`
	CheckpointErrors int  `json:"checkpoint_errors,omitempty"`
	Quarantined      bool `json:"quarantined,omitempty"`
}

// ApplyTo copies the history into the matching Stats fields.
func (h History) ApplyTo(s *Stats) {
	s.Degraded, s.Spills, s.CheckpointErrors, s.Quarantined = h.Degraded, h.Spills, h.CheckpointErrors, h.Quarantined
}

// numDecisionKinds is the number of decision.Kind values (read-from,
// failure, poison).
const numDecisionKinds = 3

// configDigest fingerprints the configuration fields that shape the
// decision tree. Budget and reporting knobs (MaxExecutions, MaxTime,
// Stop, checkpoint cadence, Observer, MemBudgetBytes/SpillDir, Chaos) are
// deliberately excluded: resuming with a different budget — or without
// the chaos that interrupted the original run — is the point of
// checkpoints. MaxEventsPerExec is included because, like
// MaxStepsPerExec, it prunes the tree and therefore changes what a
// checkpoint or repro token means. Reduction is included for the same
// reason: a reduced tree has fewer failure nodes, so a path recorded in
// one mode could silently consume a wrong node in the other. PrefixFork
// is deliberately excluded — it replays the identical executions, just
// cheaper, so tokens and checkpoints are portable across its settings.
// RaceDetect (and the UnflushedLines set it arms) is included: a race
// report aborts its execution, so the detector changes the reachable
// tree shape and a token recorded in one mode must not replay in the
// other. commit and eager print the test hooks (25 and false in real
// runs). The seed is checked separately for a clearer error message.
func configDigest(cfg Config) string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"cxlmc-config-v4 gpf=%t poison=%t maxsteps=%d memsize=%d commit=%d eager=%t maxevents=%d reduction=%t racedetect=%t flagged=%v",
		cfg.GPF, cfg.Poison, cfg.MaxStepsPerExec, cfg.MemSize, commitChance, eagerReadSet,
		cfg.MaxEventsPerExec, cfg.reductionOn(), cfg.raceDetectOn(), cfg.UnflushedLines)))
	return hex.EncodeToString(h[:8])
}

// fingerprint hashes the structural events of program setup (machines,
// threads, allocations, initial writes, mutexes) into the program
// digest. A nil fingerprint records nothing, so the per-execution setup
// path pays nothing once the digest is known.
type fingerprint struct{ h hash.Hash }

func (f *fingerprint) record(parts ...any) {
	if f == nil {
		return
	}
	fmt.Fprintln(f.h, parts...)
}

// programDigestOf fingerprints the program's setup-time structure by
// running setup once against a scratch checker (threads are registered
// but never started, so nothing simulated runs). A panic during setup is
// returned as the same setupError a real run would produce.
func programDigestOf(cfg Config, program func(*Program)) (digest string, err error) {
	fp := &fingerprint{h: sha256.New()}
	ck := &Checker{
		cfg:     cfg,
		program: program,
		tree:    decision.NewTree(),
		fp:      fp,
	}
	defer func() {
		if v := recover(); v != nil {
			if se, ok := v.(setupError); ok {
				err = se
				return
			}
			panic(v)
		}
	}()
	ck.resetExecution()
	ck.sch.Teardown()
	return hex.EncodeToString(fp.h.Sum(nil))[:16], nil
}

// corruptCheckpointError classifies a checkpoint that cannot be decoded
// — truncated, bit-flipped, or carrying undecodable unit snapshots. The
// engine reacts by quarantining the file (rename to <path>.corrupt) and
// starting fresh, because a corrupt checkpoint is recoverable state
// loss, not an unrecoverable configuration problem. Identity mismatches
// (wrong seed/config/program) and version skew stay hard errors: those
// files are fine, the run is asking for the wrong thing.
type corruptCheckpointError struct {
	path string
	err  error
}

func (e *corruptCheckpointError) Error() string {
	return fmt.Sprintf("cxlmc: checkpoint %s is corrupt: %v", e.path, e.err)
}

func (e *corruptCheckpointError) Unwrap() error { return e.err }

// I/O retry policy for checkpoint and spill files: transient errors
// (chaos-injected ones, and the usual interruptible-syscall suspects)
// are retried a few times with exponential backoff; permanent errors
// (ENOSPC, EACCES, ...) surface immediately.
const ioAttempts = 5

func ioBackoff(attempt int) time.Duration {
	return time.Millisecond << uint(attempt-1) // 1, 2, 4, 8 ms
}

func transientIO(err error) bool {
	return chaos.IsTransient(err) ||
		errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// readFileRetry reads a whole file through the chaos injector, retrying
// transient faults. A missing file is returned as the os error
// unwrapped to fs.ErrNotExist, untouched by injection, so "no checkpoint
// yet" stays distinguishable.
func readFileRetry(path string, inj *chaos.Injector) ([]byte, error) {
	var lastErr error
	for attempt := 1; attempt <= ioAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(ioBackoff(attempt - 1))
		}
		if err := inj.ReadFault(); err != nil {
			lastErr = err
			if !transientIO(err) {
				break
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
			lastErr = err
			if !transientIO(err) {
				break
			}
			continue
		}
		return inj.Corrupt(raw), nil
	}
	return nil, lastErr
}

// writeFileRetry writes data to path (plain, non-atomic — used for spill
// files, which are process-local scratch) with the same retry policy.
func writeFileRetry(path string, data []byte, inj *chaos.Injector) error {
	var lastErr error
	for attempt := 1; attempt <= ioAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(ioBackoff(attempt - 1))
		}
		if n, err := inj.WriteFault(len(data)); err != nil {
			lastErr = err
			if n > 0 {
				// Torn write: leave the prefix behind, like a real crash
				// would; the retry's O_TRUNC rewrite heals it.
				os.WriteFile(path, data[:n], 0o644)
			}
			if !transientIO(err) {
				break
			}
			continue
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			lastErr = err
			if !transientIO(err) {
				break
			}
			continue
		}
		return nil
	}
	return lastErr
}

// renameRetry renames with the retry policy.
func renameRetry(oldpath, newpath string, inj *chaos.Injector) error {
	var lastErr error
	for attempt := 1; attempt <= ioAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(ioBackoff(attempt - 1))
		}
		if err := inj.RenameFault(); err != nil {
			lastErr = err
			if !transientIO(err) {
				break
			}
			continue
		}
		if err := os.Rename(oldpath, newpath); err != nil {
			lastErr = err
			if !transientIO(err) {
				break
			}
			continue
		}
		return nil
	}
	return lastErr
}

// loadCheckpoint reads and validates the checkpoint file at path. A
// missing file is not an error (the run simply starts fresh); an
// undecodable file is returned as a *corruptCheckpointError so the
// engine can quarantine it; version skew is a hard error.
func loadCheckpoint(path string, inj *chaos.Injector) (*checkpointData, error) {
	raw, err := readFileRetry(path, inj)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cxlmc: reading checkpoint %s: %w", path, err)
	}
	var cp checkpointData
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, &corruptCheckpointError{path: path, err: err}
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("cxlmc: checkpoint %s has version %d, this build reads version %d",
			path, cp.Version, checkpointVersion)
	}
	return &cp, nil
}

// quarantineCheckpoint moves an undecodable checkpoint aside (rename to
// <path>.corrupt, preserved for post-mortems) so the run can start
// fresh with the path free for new checkpoints.
func quarantineCheckpoint(path string, inj *chaos.Injector) error {
	return renameRetry(path, path+".corrupt", inj)
}

// writeCheckpointFile writes cp crash-safely: the bytes go to a sibling
// temp file which is fsynced and atomically renamed over path, so a
// crash at any point leaves either the old checkpoint or the new one,
// never a torn file. Transient I/O errors — injected by chaos, or the
// interruptible-syscall kind — are absorbed by a bounded
// retry-with-backoff; each attempt rebuilds the temp file from scratch,
// so a torn earlier attempt cannot leak into the installed checkpoint.
func writeCheckpointFile(path string, cp *checkpointData, inj *chaos.Injector, om coreMetrics, tracer *obs.Tracer) error {
	raw, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("cxlmc: encoding checkpoint: %w", err)
	}
	var lastErr error
	for attempt := 1; attempt <= ioAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(ioBackoff(attempt - 1))
			om.cpRetries.Inc()
			tracer.Record(-1, obs.EvCheckpointRetry, int64(attempt), 0)
		}
		err := writeCheckpointOnce(path, raw, inj)
		if err == nil {
			om.cpWrites.Inc()
			tracer.Record(-1, obs.EvCheckpointWrite, int64(len(raw)), int64(cp.Executions))
			return nil
		}
		lastErr = err
		if !transientIO(err) {
			break
		}
	}
	return lastErr
}

// writeCheckpointOnce is one temp-file + fsync + rename attempt. On any
// failure the temp file is removed, so no partial .tmp outlives the
// attempt.
func writeCheckpointOnce(path string, raw []byte, inj *chaos.Injector) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("cxlmc: writing checkpoint: %w", err)
	}
	if n, ferr := inj.WriteFault(len(raw)); ferr != nil {
		if n > 0 {
			f.Write(raw[:n]) // the torn prefix a real short write leaves
		}
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: writing checkpoint: %w", ferr)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: writing checkpoint: %w", err)
	}
	if err := inj.SyncFault(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: syncing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: closing checkpoint: %w", err)
	}
	if err := inj.RenameFault(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: installing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cxlmc: installing checkpoint: %w", err)
	}
	return nil
}

// Checkpoint is the exported name of the version-2 checkpoint envelope,
// for callers outside the engine — notably the distributed coordinator,
// which persists its frontier in the same format so a single-process run
// can resume a coordinator's checkpoint and vice versa.
type Checkpoint = checkpointData

// NewCheckpoint returns an empty current-version checkpoint stamped with
// the given identity.
func NewCheckpoint(seed int64, cfgDigest, progDigest string) *Checkpoint {
	return &Checkpoint{
		Version:       checkpointVersion,
		Seed:          seed,
		ConfigDigest:  cfgDigest,
		ProgramDigest: progDigest,
	}
}

// WriteCheckpoint writes cp crash-safely (temp file + fsync + atomic
// rename, transient faults retried with backoff).
func WriteCheckpoint(path string, cp *Checkpoint, inj *chaos.Injector) error {
	return writeCheckpointFile(path, cp, inj, coreMetrics{}, nil)
}

// Resume is an adopted checkpoint: the envelope with Units cut down to
// the outstanding units and Created crediting the finished ones, plus
// the outstanding units decoded (Trees, in Units order).
type Resume struct {
	*Checkpoint
	Trees []*decision.Tree
}

// Total is the resumed tally including the decision points the
// outstanding units carry. A frontier that hands units to remote
// workers credits those here, once: the workers baseline a unit's
// embedded counts away when they lease it and report only what they add.
func (r *Resume) Total() Tally {
	t := r.Tally
	for _, tr := range r.Trees {
		t.Add(unitTally(tr))
	}
	return t
}

// ResumeCheckpoint adopts the checkpoint at path for the exploration
// identified by seed and the two digests; the single-process engine and
// the distributed coordinator both resume through it. A missing file
// returns (nil, false, nil). A checkpoint written for another seed,
// configuration or program, or in another format version, is an error.
// A corrupt one — undecodable JSON or any unit snapshot that does not
// decode — is quarantined (renamed to <path>.corrupt, preserved for
// post-mortems) and reported as quarantined, so the caller starts fresh:
// every unit is decoded before anything is credited, and a half-adopted
// checkpoint never leaks into the fresh start.
func ResumeCheckpoint(path string, inj *chaos.Injector, seed int64, cfgDigest, progDigest string) (r *Resume, quarantined bool, err error) {
	cp, err := loadCheckpoint(path, inj)
	if err == nil && cp != nil {
		r, err = cp.adopt(path, seed, cfgDigest, progDigest)
	}
	var corrupt *corruptCheckpointError
	if !errors.As(err, &corrupt) {
		return r, false, err
	}
	if qerr := quarantineCheckpoint(path, inj); qerr != nil {
		return nil, false, fmt.Errorf("%w (and quarantining it failed: %v)", err, qerr)
	}
	return nil, true, nil
}

// adopt validates cp's identity and splits its units into finished ones,
// credited to Created, and outstanding ones, decoded.
func (cp *checkpointData) adopt(path string, seed int64, cfgDigest, progDigest string) (*Resume, error) {
	if cp.Seed != seed {
		return nil, fmt.Errorf("cxlmc: checkpoint %s was written for seed %d, this run uses seed %d: delete the checkpoint or match the seed",
			path, cp.Seed, seed)
	}
	if cp.ConfigDigest != cfgDigest {
		return nil, fmt.Errorf("cxlmc: checkpoint %s was written under a different configuration (digest %s, this run %s): GPF/Poison/MaxStepsPerExec/MemSize/MaxEventsPerExec/Reduction/RaceDetect must match",
			path, cp.ConfigDigest, cfgDigest)
	}
	if cp.ProgramDigest != progDigest {
		return nil, fmt.Errorf("cxlmc: checkpoint %s was written for a different program (digest %s, this program %s): the program structure changed since the checkpoint",
			path, cp.ProgramDigest, progDigest)
	}
	r := &Resume{Checkpoint: cp}
	var outstanding [][]byte
	for _, raw := range cp.Units {
		tr := decision.NewTree()
		if err := tr.Restore(raw); err != nil {
			return nil, &corruptCheckpointError{path: path, err: err}
		}
		if tr.Done() {
			// A finished unit's counters still belong in the totals.
			cp.Tally.Add(unitTally(tr))
			continue
		}
		outstanding = append(outstanding, raw)
		r.Trees = append(r.Trees, tr)
	}
	cp.Units = outstanding
	return r, nil
}

// ExplorationDigests computes the configuration and program digests that
// identify an exploration — the same values stamped into checkpoints and
// repro tokens. The distributed coordinator and its workers compare them
// at join time so a worker checking a different program or configuration
// is rejected before it can pollute the frontier.
func ExplorationDigests(cfg Config, program func(*Program)) (cfgDigest, progDigest string, err error) {
	if program == nil {
		return "", "", setupError{"nil program"}
	}
	cfg.fillDefaults()
	progDigest, err = programDigestOf(cfg, program)
	if err != nil {
		return "", "", err
	}
	return configDigest(cfg), progDigest, nil
}
