package harness

import (
	"fmt"
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
)

// table5Pin is one Table 5 row's seed-0 exploration counts. PrefixForks
// and StepsSaved depend on how a parallel run splits its units, so they
// are pinned for serial runs only (zero means unpinned).
type table5Pin struct {
	name                           string
	gpf                            bool
	workers                        int
	execs, fpoints, rfpoints       int
	steps, prefixForks, stepsSaved int64
}

// table5Pins were recorded before the scheduler ran steps inline on
// thread goroutines; any change to them means the step sequence moved.
var table5Pins = []table5Pin{
	{"CCEH", false, 1, 48, 26, 21, 12695, 47, 8179},
	{"FAST_FAIR", false, 1, 96, 40, 55, 50013, 95, 26471},
	{"P-ART", false, 1, 74, 51, 22, 61347, 73, 20885},
	{"P-BwTree", false, 1, 246, 76, 169, 152601, 245, 95328},
	{"P-CLHT", false, 1, 50, 28, 21, 12039, 49, 8466},
	{"P-MassTree", false, 1, 93, 38, 54, 43713, 92, 23519},
	{"CCEH", true, 1, 27, 26, 0, 6730, 26, 3392},
	{"FAST_FAIR", true, 1, 41, 40, 0, 20189, 40, 9356},
	{"P-ART", true, 1, 52, 51, 0, 43222, 51, 12861},
	{"P-BwTree", true, 1, 77, 76, 0, 47023, 76, 27196},
	{"P-CLHT", true, 1, 29, 28, 0, 6458, 28, 3712},
	{"P-MassTree", true, 1, 39, 38, 0, 17855, 38, 8323},
	{"CCEH", false, 4, 48, 26, 21, 12695, 0, 0},
	{"FAST_FAIR", false, 4, 96, 40, 55, 50013, 0, 0},
	{"P-ART", false, 4, 74, 51, 22, 61347, 0, 0},
	{"P-BwTree", false, 4, 246, 76, 169, 152601, 0, 0},
	{"P-CLHT", false, 4, 50, 28, 21, 12039, 0, 0},
	{"P-MassTree", false, 4, 93, 38, 54, 43713, 0, 0},
	{"CCEH", true, 4, 27, 26, 0, 6730, 0, 0},
	{"FAST_FAIR", true, 4, 41, 40, 0, 20189, 0, 0},
	{"P-ART", true, 4, 52, 51, 0, 43222, 0, 0},
	{"P-BwTree", true, 4, 77, 76, 0, 47023, 0, 0},
	{"P-CLHT", true, 4, 29, 28, 0, 6458, 0, 0},
	{"P-MassTree", true, 4, 39, 38, 0, 17855, 0, 0},
}

// TestTable5PinnedCounts explores every Table 5 row at seed 0, serially
// and with four workers, and checks the exploration counts against the
// pinned values: executions, steps, failure and read-from points, and
// for serial runs the prefix-fork counters.
func TestTable5PinnedCounts(t *testing.T) {
	for _, pin := range table5Pins {
		t.Run(fmt.Sprintf("%s/gpf=%v/workers=%d", pin.name, pin.gpf, pin.workers), func(t *testing.T) {
			b, ok := ByName(pin.name)
			if !ok {
				t.Fatalf("unknown benchmark %s", pin.name)
			}
			res, err := cxlmc.Run(cxlmc.Config{GPF: pin.gpf, Workers: pin.workers, MaxExecutions: 2_000_000},
				recipe.Program(b, Table5Config()))
			if err != nil {
				t.Fatal(err)
			}
			got := table5Pin{pin.name, pin.gpf, pin.workers, res.Executions, res.FailurePoints,
				res.ReadFromPoints, res.Steps, res.PrefixForks, res.StepsSaved}
			if pin.workers != 1 {
				got.prefixForks, got.stepsSaved = 0, 0
			}
			if got != pin {
				t.Fatalf("counts = %+v\nwant     %+v", got, pin)
			}
			if !res.Complete || res.Buggy() {
				t.Fatalf("complete=%v bugs=%v, want a complete clean run", res.Complete, res.Bugs)
			}
		})
	}
}
