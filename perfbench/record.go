package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runRecord identifies where and how a result was measured, so results
// are only ever compared against a baseline from the same host.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    int            `json:"seconds"`
	MeasuredS  float64        `json:"measured_s"`
	Host       string         `json:"host"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Samples    map[string]int `json:"samples"`
	// SetupS is every set-up's time; setup_s is their median.
	SetupS []float64 `json:"setup_each_s"`
	// UtilStart and UtilEnd are the data region's utilization (mapped ÷
	// logical pages) at the start and end of the measured phase, for the
	// in-process workload.
	UtilStart float64 `json:"util_start,omitempty"`
	UtilEnd   float64 `json:"util_end,omitempty"`
}

func newRecord(workload string, seed int64, trace bool, seconds int) runRecord {
	host, _ := os.Hostname()
	return runRecord{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
		Samples: map[string]int{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary at build time, or
// "unknown" for a checkout exported without its repository metadata.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
