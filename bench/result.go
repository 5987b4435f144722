package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// schemaVersion changes when a result file's layout or a metric's
// definition changes; files of different versions are not compared.
const schemaVersion = 1

// metric is one named figure of a run. Null marks a percentile with too few
// samples beyond it to be a number; N is the sample count behind the figure.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Null  bool    `json:"null,omitempty"`
	N     int     `json:"n"`
}

// metricSpec is the contract side of a metric: which way is better and, for
// an end-to-end metric, how far it may worsen before -compare calls it a
// regression. BENCHMARK.json carries the same table; a self-test keeps the
// two equal.
type metricSpec struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEndSpecs is BENCHMARK.json's end_to_end list in its order. A bound is
// three times the widest spread measured on the sandbox the benchmark was
// written on, rounded up to the next 0.05 and at most the 0.25 BENCHMARK.json
// may state; README.md has the measurements.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"throughput_ops_s", "ops/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"latency_p95_ms", "ms", false, 0.25},
	{"ttfb_p50_ms", "ms", false, 0.25},
	{"alloc_kb_per_op", "KB/op", false, 0.10},
}

// compareSpecs adds the two end-to-end metrics that -compare judges but
// BENCHMARK.json cannot list, because its caller wants every listed metric
// from every workload and never as 0: ingest_mb_s exists only where XML
// enters over the wire, and fail_share is 0 on a healthy run, so its bound is
// absolute.
var compareSpecs = append(endToEndSpecs[:len(endToEndSpecs):len(endToEndSpecs)],
	metricSpec{"ingest_mb_s", "MB/s", true, 0.25},
	metricSpec{"fail_share", "ratio", false, 0.001})

// outsideContract names the printed metrics that BENCHMARK.json does not
// list and the result line therefore leaves out: ingest_mb_s for the reason
// above, and two percentiles of the traced window that stream-feed, with
// some 110 requests in it at 25 s, leaves null or nearly: a 99th percentile
// wants a thousand requests, the feeds' median 21 feeds.
var outsideContract = map[string]bool{
	"ingest_mb_s": true, "service.latency_p99_ms": true, "service.subscribe_p50_ms": true,
}

// environment says where a result was taken.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func stampEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// resultFile is what -out writes: every set of every workload of one
// invocation, with the settings two files must share to be compared.
type resultFile struct {
	Schema    int              `json:"schema"`
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	WarmupS   float64          `json:"warmup_s"`
	DurationS float64          `json:"duration_s"`
	Clients   int              `json:"clients"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string      `json:"name"`
	Sets []setResult `json:"sets"`
}

// setResult is one run of one workload.
type setResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailShare float64  `json:"fail_share"`
	Error     string   `json:"first_error,omitempty"`
	Metrics   []metric `json:"metrics"`
	// Shares and Warnings are the workload-validity report of a traced run.
	Shares   map[string]float64 `json:"layer_shares,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
}

func (m metric) String() string {
	v := fmt.Sprintf("%14.4f", m.Value)
	if m.Null {
		v = fmt.Sprintf("%14s", "null")
	}
	return fmt.Sprintf("  %-40s %s %-6s n=%d", m.Name, v, m.Unit, m.N)
}

func printSet(w io.Writer, name string, rf *resultFile, s *setResult) {
	fmt.Fprintf(w, "workload %s  seed=%d clients=%d warmup=%gs measured=%gs  attempted=%d failed=%d fail_share=%.4f ratio\n",
		name, rf.Seed, rf.Clients, rf.WarmupS, rf.DurationS, s.Attempted, s.Failed, s.FailShare)
	for _, m := range s.Metrics {
		fmt.Fprintln(w, m)
	}
	if s.Shares != nil {
		fmt.Fprintf(w, "  share of service.inproc_us_per_op: %s\n", sharesLine(s.Shares))
	}
	for _, warn := range s.Warnings {
		fmt.Fprintf(w, "  WARNING %s\n", warn)
	}
	if s.Error != "" {
		fmt.Fprintf(w, "  first failure: %s\n", s.Error)
	}
}

// contractLine is the one JSON object the benchmark's caller reads from the
// last line of standard output. It speaks for every set of every workload
// run: correct only if no request of any of them failed, each metric the
// median over its workload's sets, and null where no set had enough samples.
// Metric names stand alone when one workload ran and follow the workload's
// name and a dot when several did.
func contractLine(rf *resultFile) (line string, correct bool) {
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for i := range rf.Workloads {
		w := &rf.Workloads[i]
		prefix := ""
		if len(rf.Workloads) > 1 {
			prefix = w.Name + "."
		}
		for _, s := range w.Sets {
			out.Attempted += s.Attempted
			out.Failed += s.Failed
			out.Correct = out.Correct && s.Failed == 0 && s.Attempted > 0
		}
		for _, m := range w.Sets[0].Metrics {
			if outsideContract[m.Name] {
				continue
			}
			v := value{Unit: m.Unit}
			if vals := setValues(w, m.Name); len(vals) > 0 {
				med := median(vals)
				v.Value = &med
			}
			out.Metrics[prefix+m.Name] = v
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // numbers and strings only: a bug, not an input
	}
	return string(data), out.Correct
}
