// Command cxlbench is the repository benchmark for the cxlmc model
// checker. One process runs one named workload for a fixed wall-clock
// window, checks every verdict against answers known independently of
// the code path under test, and prints the metrics as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"). Their times are process CPU time: on a shared VM the
// hypervisor can take a third of the wall clock away from a run, which
// CPU time does not see. The wall-clock figures are in the run's full
// record. With -trace 1 the run measures the workload untraced and
// then traced, and prints the per-layer metrics plus the tracing overhead.
// A run that sees any wrong verdict exits 1.
//
// Run it from the repository root through run.sh, which builds this
// module against the checkout first:
//
//	bash cxlbench/run.sh --workload table5 --seed 0 --seconds 25 --trace 0
//	bash cxlbench/run.sh --compare old.jsonl new.jsonl
//
// Every run also appends its full record (host, seed, all metrics) to
// .bench_build/cxlbench/results.jsonl; -compare reads two such files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// procStart approximates process start: the first set-up's wall time
// is timed from here.
var procStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 3

var workloadNames = []string{"table5", "bughunt", "source", "service"}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: table5, bughunt, source or service")
		seed    = flag.Int64("seed", 0, "workload seed: Config.Seed, the check order, and service's generated programs and arrivals")
		seconds = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "cxlbench"), "directory for results.jsonl, span files and the service journal")
		compare = flag.Bool("compare", false, "compare two results.jsonl files given as arguments (old, new)")
		bounds  = flag.String("bounds", "BENCHMARK.json", "BENCHMARK.json whose bounds -compare applies")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cxlbench: -compare takes two results files: old new")
			return 2
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *bounds); err != nil {
			fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
			return 2
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "cxlbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if !validWorkload(*name) {
		fmt.Fprintf(os.Stderr, "cxlbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		return 2
	}
	env := &env{seed: *seed, outDir: *outDir}
	rec, err := measure(env, *name, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %s: %v\n", *name, err)
		return 1
	}
	rec.Seconds = *seconds
	if err := appendRecord(filepath.Join(*outDir, "results.jsonl"), rec); err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		return 1
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "cxlbench: wrong verdict: %s\n", e)
	}
	full, _ := json.Marshal(rec)
	fmt.Println(string(full))
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(last))
	if !rec.Correct {
		return 1
	}
	return 0
}

func validWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// env is what every workload shares: the workload seed and where it may
// write.
type env struct {
	seed   int64
	outDir string
}

// metric is one named measurement as the result line reports it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured, as appended to results.jsonl.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	SetupCPU  []float64         `json:"setup_cpu_s"`
	SetupWall []float64         `json:"setup_wall_s"`
	Steal     float64           `json:"steal_share"`
	Metrics   map[string]metric `json:"metrics"`
	// Wall holds the wall-clock counterparts of the CPU-time metrics,
	// for reading alongside Steal; -compare lists them without a bound.
	Wall map[string]metric `json:"wall,omitempty"`
}

// measure sets the workload up setupReps times, runs its measured
// window (untraced, or untraced then traced) and turns the phases into
// metrics.
func measure(e *env, name string, window time.Duration, traced bool) (*record, error) {
	var (
		w          workload
		setups     []time.Duration // process CPU time of each set-up
		setupWalls []time.Duration
		gate       = &gate{}
	)
	for i := 0; i < setupReps; i++ {
		t0, cpu0 := time.Now(), cpuTime()
		if i == 0 {
			t0, cpu0 = procStart, 0
		}
		nw, err := newWorkload(name, e, gate)
		if err == nil {
			err = nw.prepare()
		}
		if err == nil {
			err = nw.warm()
		}
		if err != nil {
			if nw != nil {
				nw.close()
			}
			if w != nil {
				w.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuTime()-cpu0)
		setupWalls = append(setupWalls, time.Since(t0))
		if w != nil {
			w.close()
		}
		w = nw
	}
	defer w.close()

	rec := &record{Workload: name, Seed: e.seed, Trace: traced, Host: host()}
	if r, ok := w.(interface{ offeredRate() float64 }); ok {
		rec.Host.OfferedRate = r.offeredRate()
	}
	for i := range setups {
		rec.SetupCPU = append(rec.SetupCPU, setups[i].Seconds())
		rec.SetupWall = append(rec.SetupWall, setupWalls[i].Seconds())
	}
	if !traced {
		ph := runPhase(w, window, nil)
		rec.Metrics, rec.Wall = endToEnd(ph, setups, setupWalls)
		rec.Steal = ph.steal
	} else {
		plain := runPhase(w, window/2, nil)
		tr := newTracer()
		ph := runPhase(w, window/2, tr)
		rec.Steal = (plain.steal + ph.steal) / 2
		sw, err := sweep(e, name, tr, gate)
		if err != nil {
			return nil, fmt.Errorf("layer sweep: %w", err)
		}
		rec.Metrics = perLayer(name, plain, ph, sw, tr, runProbes())
		if err := tr.write(filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))); err != nil {
			return nil, err
		}
	}
	rec.Attempted, rec.Failed, rec.Errors = gate.totals()
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// sweep gives a traced run the layers its own workload does not reach:
// every other workload runs a short, fixed traced pass, so each
// per-layer metric is measured in every traced run.
func sweep(e *env, main string, tr *tracer, g *gate) (map[string]*phase, error) {
	out := map[string]*phase{}
	for _, name := range workloadNames {
		if name == main {
			continue
		}
		w, err := newWorkload(name, e, g)
		if err == nil {
			err = w.prepare()
		}
		if err != nil {
			if w != nil {
				w.close()
			}
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = w.sweep(tr)
		w.close()
	}
	return out, nil
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newWorkload constructs the named workload (not yet prepared).
func newWorkload(name string, e *env, g *gate) (workload, error) {
	switch name {
	case "table5":
		return newTable5(e, g), nil
	case "bughunt":
		return newBughunt(e, g), nil
	case "source":
		return newSource(e, g), nil
	case "service":
		return newService(e, g), nil
	}
	return nil, errors.New("unknown workload")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
