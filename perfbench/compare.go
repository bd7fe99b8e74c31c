package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain implements "perfbench compare [-bench BENCHMARK.json] OLD
// NEW": OLD and NEW are result files or directories of them (the
// standard output of runs), and each (workload, metric) pair gets the
// two sides' medians and quartiles and a verdict.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-bench BENCHMARK.json] OLD NEW")
	}
	defs, err := loadDefs(*benchPath)
	if err != nil {
		return err
	}
	old, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	return writeComparison(os.Stdout, defs, old, cur)
}

// benchDefs is the part of BENCHMARK.json the comparison needs.
type benchDefs struct {
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadDefs(path string) (benchDefs, error) {
	var d benchDefs
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// resultSet maps workload → metric → one value per run.
type resultSet map[string]map[string][]float64

// loadResults reads every record line from a file, or from every file
// in a directory.
func loadResults(path string) (resultSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	rs := resultSet{}
	for _, f := range files {
		if err := readRecords(f, rs); err != nil {
			return nil, err
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return rs, nil
}

func readRecords(path string, rs resultSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"record"`) {
			continue
		}
		var rl recordLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		w := rl.Record.Workload
		if rs[w] == nil {
			rs[w] = map[string][]float64{}
		}
		for name, m := range rl.Metrics {
			rs[w][name] = append(rs[w][name], m.Value)
		}
	}
	return sc.Err()
}

// verdict judges new against old for one metric. A change counts as
// worse only beyond the bound. It counts as better only when the new
// side wins at least nine tenths of the run pairs (runs paired in file
// order) and the medians differ by more than the old side's quartile
// spread. When either side spreads wider than the bound the metric is
// unresolved, unless every new run beats every old run.
func verdict(m jsonMetric, old, cur []float64) string {
	oq1, om, oq3 := quartiles(old)
	cq1, cm, cq3 := quartiles(cur)
	sign := 1.0 // +1 when a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	allBetter := true
	for _, o := range old {
		for _, c := range cur {
			if sign*(c-o) >= 0 {
				allBetter = false
			}
		}
	}
	if m.Bound == nil {
		if allBetter {
			return "better"
		}
		return "-"
	}
	b := *m.Bound
	if om == 0 {
		return "unresolved"
	}
	worse := sign * (cm - om) / math.Abs(om)
	switch {
	case allBetter && len(old) > 1:
		return "better"
	case (oq3-oq1)/math.Abs(om) > b || (cm != 0 && (cq3-cq1)/math.Abs(cm) > b):
		return "unresolved"
	case worse > b:
		return "WORSE"
	case worse < 0 && math.Abs(cm-om) > oq3-oq1 && 10*pairWins(sign, old, cur) >= 9*min(len(old), len(cur)):
		return "better"
	default:
		return "within bound"
	}
}

func writeComparison(w io.Writer, defs benchDefs, old, cur resultSet) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tbound\tverdict")
	var names []string
	for wl := range old {
		if cur[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range append(append([]jsonMetric(nil), defs.EndToEnd...), defs.PerLayer...) {
			o, c := old[wl][m.Name], cur[wl][m.Name]
			if len(o) == 0 || len(c) == 0 {
				continue
			}
			oq1, om, oq3 := quartiles(o)
			cq1, cm, cq3 := quartiles(c)
			change, bound := "-", "-"
			if om != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(cm-om)/math.Abs(om))
			}
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\t%s\n",
				wl, m.Name, m.Unit, om, oq1, oq3, len(o), cm, cq1, cq3, len(c), change, bound, verdict(m, o, c))
		}
	}
	return tw.Flush()
}

// pairWins counts the run pairs (old[i], cur[i]) in which the new run is
// better; sign is +1 when a larger value is worse.
func pairWins(sign float64, old, cur []float64) int {
	wins := 0
	for i := 0; i < min(len(old), len(cur)); i++ {
		if sign*(cur[i]-old[i]) < 0 {
			wins++
		}
	}
	return wins
}
