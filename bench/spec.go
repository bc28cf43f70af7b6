package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the workloads, the metrics with their units,
// directions and bounds, and the run length. The driver emits exactly
// the metrics it names and the comparator judges against its bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric's declaration. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("BENCHMARK.json: no workloads, metrics or run length")
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// metric is one reported value with its unit, the form the driver's
// result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome: the object the driver prints as
// the last line of standard output. Metrics holds the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's entry in a run file: the result plus what
// a reader needs to trust it — the latency sample count, the host speed
// and the end-to-end metrics before normalisation, the traced layer
// metrics that BENCHMARK.json does not list (each workload runs only
// some layers), the reason any metric is missing, and the first few
// failures.
type report struct {
	result
	Samples int `json:"samples"`
	// TailQuantile is the percentile latency_tail_ms reports.
	TailQuantile float64 `json:"tail_quantile"`
	// Speed is the median host speed index over the window's cycles.
	Speed float64 `json:"speed_index"`
	// SetupTimes are the unnormalised set-up times setup_s is the
	// median of, in seconds, and SetupSpeeds the index that normalised
	// each.
	SetupTimes  []float64         `json:"setup_times_s"`
	SetupSpeeds []float64         `json:"setup_speed_index"`
	Raw         map[string]metric `json:"raw"`
	Layers      map[string]metric `json:"layers,omitempty"`
	Missing     map[string]string `json:"missing,omitempty"`
	Errors      []string          `json:"errors,omitempty"`
}

// runFile is what -o writes: one run of one or more workloads, with
// the host it ran on.
type runFile struct {
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads map[string]report `json:"workloads"`
}

// host records what a number depends on beyond the code. GOMAXPROCS is
// the driver's, which every process under test inherits.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
