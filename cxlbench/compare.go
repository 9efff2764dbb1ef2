package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json -compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runCompare reports, per workload row and metric, the median and
// quartiles of two result sets. A metric whose medians differ by more
// than its bound is flagged; one whose own spread on either side is
// wider than its bound is reported unresolved instead. Per-layer
// metrics have no bound and are listed for reading only.
func runCompare(w io.Writer, oldPath, newPath, benchPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	lower := map[string]bool{}
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		lower[m.Name] = m.Better == "lower"
		bound[m.Name] = m.Bound
	}
	for _, m := range bf.PerLayer {
		lower[m.Name] = m.Better == "lower"
	}
	oldSet, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	newSet, err := loadResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-28s %32s %32s %8s  %s\n", "row", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "change", "verdict")
	regressions := 0
	for _, row := range sortedKeys(newSet) {
		olds, ok := oldSet[row]
		if !ok {
			fmt.Fprintf(w, "%-18s only in %s\n", row, newPath)
			continue
		}
		news := newSet[row]
		for _, name := range sortedKeys(news) {
			ov, nv := olds[name], news[name]
			if len(ov) == 0 {
				continue
			}
			oq, nq := quartiles(ov), quartiles(nv)
			change := ratio(nq[1]-oq[1], oq[1])
			worse := change
			if !lower[name] {
				worse = -change
			}
			verdict := "no bound"
			if b, ok := bound[name]; ok {
				switch {
				case spread(oq) > b || spread(nq) > b:
					verdict = fmt.Sprintf("unresolved (spread > bound %.2f)", b)
				case worse > b:
					verdict = fmt.Sprintf("REGRESSED beyond bound %.2f", b)
					regressions++
				case -worse > b:
					verdict = fmt.Sprintf("improved beyond bound %.2f", b)
				default:
					verdict = "within bound"
				}
			}
			fmt.Fprintf(w, "%-18s %-28s %32s %32s %+7.1f%%  %s\n", row, name,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", oq[1], oq[0], oq[2], len(ov)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", nq[1], nq[0], nq[2], len(nv)),
				100*change, verdict)
		}
	}
	fmt.Fprintf(w, "%d end-to-end metric(s) regressed beyond their bound\n", regressions)
	return nil
}

// loadResults groups a results.jsonl file's metric values by row
// (workload, traced or not) and metric name.
func loadResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		row := rec.Workload
		if rec.Trace {
			row += "/traced"
		}
		if out[row] == nil {
			out[row] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[row][name] = append(out[row][name], m.Value)
		}
		for name, m := range rec.Wall {
			out[row]["wall."+name] = append(out[row]["wall."+name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method); a single value is all three.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }
