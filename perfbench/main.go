// Command perfbench is the repository's benchmark. One run drives one
// workload for a fixed measured phase, audits the program's output, and
// prints its metrics by name with their units; the last line of
// standard output is the machine-readable result:
//
//	perfbench --workload wire-tpcb --seed 1 --seconds 10 --trace 0
//	perfbench compare old/ new/
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics from a run whose second half records spans around
// every call the benchmark makes into the program. BENCHMARK.json at the
// repository root lists both sets, the workloads and the regression
// bounds; README.md beside this file says why each workload exists and
// which end-to-end metric each layer metric should move.
//
// Run it through run.sh, which builds this binary and ipaserver from the
// checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	workloadWireTPCB    = "wire-tpcb"
	workloadClusterTPCB = "cluster-tpcb"
	workloadEngineTPCC  = "engine-tpcc-cold"

	// setupRepeats is how many times a run sets its workload up; setup_s
	// is the median, and the last set-up is the one measured.
	setupRepeats = 3
)

var workloads = map[string]func(runConfig) (*report, error){
	workloadWireTPCB:    runWireTPCB,
	workloadClusterTPCB: runClusterTPCB,
	workloadEngineTPCC:  runEngineTPCC,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string // where run.sh put the ipaserver binary
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: wire-tpcb, cluster-tpcb or engine-tpcc-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.binDir = filepath.Dir(exe)

	rep, err := run(cfg)
	if err != nil {
		// A failed audit or an unexpected error: report an incorrect run
		// and exit non-zero.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		fmt.Println(string(out))
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recordLine precedes the result: the run record plus the same metrics,
// which is what the compare command reads.
type recordLine struct {
	Record  runRecord         `json:"record"`
	Metrics map[string]metric `json:"metrics"`
	// Absent lists the per-layer metrics this workload has no such layer
	// for; they print as 0.
	Absent []string `json:"absent,omitempty"`
}

// report collects one run's measurements.
type report struct {
	cfg       runConfig
	rec       runRecord
	attempted int64
	failed    int64
	values    map[string]float64
}

func newReport(cfg runConfig, workload string) *report {
	return &report{cfg: cfg, rec: newRecord(workload, cfg.seed, cfg.trace, cfg.seconds), values: map[string]float64{}}
}

func (r *report) layer(name string, v float64) { r.values[name] = v }

func (r *report) setup(secs []float64) {
	r.rec.SetupS = append([]float64(nil), secs...)
	r.values["setup_s"] = quantile(secs, 0.5)
	r.rec.Samples["setup_s"] = len(secs)
}

func (r *report) rssMB(kb int64) { r.values["rss_mb"] = float64(kb) / 1024 }

// e2e fills the end-to-end metrics every workload reports: throughput
// as committed transactions per wall second of the measured phase, exact
// latency quantiles over every one of them, and the device's programmed
// bytes and erases per committed transaction.
func (r *report) e2e(wall time.Duration, logs []*latencyLog, tx, written, erases float64) {
	r.values["tps"] = tx / wall.Seconds()
	var n int
	r.values["lat_p50_us"], r.values["lat_p99_us"], n = latencyStats(logs)
	r.rec.Samples["lat_p50_us"] = n
	r.rec.Samples["lat_p99_us"] = n
	r.values["flash_write_bytes_per_tx"] = written / tx
	r.values["erases_per_ktx"] = 1000 * erases / tx
	// fail_ratio prints with the per-layer set: it is 0 on every correct run.
	if r.attempted > 0 {
		r.values["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	}
}

// traceOverhead records untraced against traced throughput and the
// benchmark's own time per transaction, outside every layer call.
func (r *report) traceOverhead(untraced, traced float64, lt layerTimes) {
	r.values["trace.untraced_tps"] = untraced
	r.values["trace.traced_tps"] = traced
	r.values["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	if n := lt.count[spanTx]; n > 0 {
		r.values["trace.bench_self_us"] = float64(lt.self[spanTx]) / 1e3 / float64(n)
		r.values["trace.root_us"] = float64(lt.roots) / 1e3 / float64(n)
	}
}

func (r *report) print(f *os.File) error {
	list := endToEnd
	if r.cfg.trace {
		list = perLayer
	}
	line := recordLine{Record: r.rec, Metrics: map[string]metric{}}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok {
			if !r.cfg.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			line.Absent = append(line.Absent, m.name)
		}
		line.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	sort.Strings(line.Absent)
	rec, err := json.Marshal(line)
	if err != nil {
		return err
	}
	res, err := json.Marshal(result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: line.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", rec, res)
	return err
}

// selfRSS is this process's peak resident set in KiB.
func selfRSS() int64 { return peakRSS(os.Getpid()) }
