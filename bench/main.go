// Command bench is the end-to-end and per-layer benchmark of xqd: a real
// service behind its HTTP handler in this process, closed-loop clients, four
// workloads, every response checked. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	defaultSeconds = 25
	warmupSeconds  = 2
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sets     int
	out      string
	check    bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, catalog-read, adhoc-compile, stream-feed or doc-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload, after the warm-up")
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and prints the per-layer metrics")
	flag.IntVar(&o.sets, "sets", 1, "times each workload is run; -compare reads the spread over the sets")
	flag.StringVar(&o.out, "out", "bench/out/result.json", "result file; span files are written next to it")
	flag.BoolVar(&o.check, "check", false, "send every distinct request of each workload once, verify it, and exit")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	o.traced = *trace == 1
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var (
	errWorse  = errors.New("at least one metric is worse than its bound allows")
	errFailed = errors.New("at least one request failed or was answered wrongly")
)

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		worse, err := compareFiles(os.Stdout, args[0], args[1])
		if err == nil && worse {
			err = errWorse
		}
		return err
	}
	specs := workloads
	if o.workload != "all" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workloadSpec{spec}
	}
	if o.check {
		return checkAll(specs, o.seed)
	}
	if o.sets < 1 {
		return errors.New("-sets must be at least 1")
	}

	cfg := defaultConfig(o.seconds)
	rf := &resultFile{
		Schema: schemaVersion, Env: stampEnvironment(), Seed: o.seed,
		WarmupS: cfg.warmup.Seconds(), DurationS: o.seconds, Clients: numClients(), Traced: o.traced,
	}
	fmt.Printf("xqd benchmark  schema=%d commit=%s %s cpu=%q num_cpu=%d gomaxprocs=%d\n",
		rf.Schema, rf.Env.Commit, rf.Env.GoVersion, rf.Env.CPU, rf.Env.NumCPU, rf.Env.GOMAXPROCS)
	dir := filepath.Dir(o.out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, spec := range specs {
		wr := workloadResult{Name: spec.name}
		for i := 0; i < o.sets; i++ {
			reps := cfg.setupReps
			if o.traced {
				reps = 1 // a traced run reports no set-up time
			}
			in, setupS, err := setUpMedian(spec, o.seed, reps)
			if err != nil {
				return err
			}
			var s *setResult
			if o.traced {
				s, err = runTraced(in, spec, o.seed, cfg, dir)
			} else {
				s = runEndToEnd(in, setupS, cfg)
			}
			in.close()
			if err != nil {
				return err
			}
			printSet(os.Stdout, spec.name, rf, s)
			wr.Sets = append(wr.Sets, *s)
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	if err := writeJSON(o.out, rf); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", o.out)
	line, correct := contractLine(rf)
	fmt.Println(line)
	if !correct {
		return errFailed
	}
	return nil
}

func runEndToEnd(in *instance, setupS float64, cfg runConfig) *setResult {
	w := runLoop(in, numClients(), cfg.warmup, cfg.measure())
	s := &setResult{Attempted: w.attempted, Failed: w.failed, FailShare: w.failShare(), Metrics: w.endToEnd(setupS, cfg.setupReps)}
	if w.firstErr != nil {
		s.Error = w.firstErr.Error()
	}
	return s
}

func runTraced(in *instance, spec workloadSpec, seed int64, cfg runConfig, dir string) (*setResult, error) {
	lr, err := tracedRun(in, spec, seed, cfg)
	if err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "trace-"+spec.name+".json"), lr.trace); err != nil {
		return nil, err
	}
	s := &setResult{Attempted: lr.done, Failed: lr.failed, Metrics: lr.metrics, Shares: lr.shares, Warnings: lr.warnings}
	if lr.done > 0 {
		s.FailShare = float64(lr.failed) / float64(lr.done)
	}
	if lr.firstErr != nil {
		s.Error = lr.firstErr.Error()
	}
	return s, nil
}

// ---- -check ----

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds, per workload at seed 1, the SHA-256 of every request body and
// of every checked result, in the order -check sends them. A change in
// either means the generators or the engine's output changed, even if the
// oracle changed with them.
type golden struct {
	Inputs  string `json:"inputs"`
	Results string `json:"results"`
}

const goldenSeed = 1

// checkAll sends each workload's distinct requests once, checks every
// response against the oracle, and at the golden seed checks the hashes too.
// After a deliberate change to a generator or the oracle, the hashes a
// mismatch prints are the new contents of testdata/golden.json.
func checkAll(specs []workloadSpec, seed int64) error {
	want := map[string]golden{}
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	var failures []error
	for _, spec := range specs {
		got, n, err := checkWorkload(spec, seed)
		if err != nil {
			failures = append(failures, err)
			continue
		}
		status := "ok"
		if seed == goldenSeed {
			status = "ok, golden hashes match"
			if want[spec.name] != got {
				failures = append(failures, fmt.Errorf("%s: golden hashes differ: got inputs %s results %s, committed inputs %s results %s",
					spec.name, got.Inputs, got.Results, want[spec.name].Inputs, want[spec.name].Results))
				status = "GOLDEN MISMATCH"
			}
		}
		fmt.Printf("check %-14s %4d requests %s\n", spec.name, n, status)
	}
	return errors.Join(failures...)
}

func checkWorkload(spec workloadSpec, seed int64) (golden, int, error) {
	in, _, err := setUp(spec, seed)
	if err != nil {
		return golden{}, 0, err
	}
	defer in.close()
	if err := in.sc.expect(); err != nil {
		return golden{}, 0, err
	}
	inputs, results := sha256.New(), sha256.New()
	n := 0
	for ci := 0; ci < maxClients; ci++ {
		c := newClient(in.srv.base)
		for i := 0; i < in.sc.cycle(); i++ {
			o := in.sc.op(ci, i)
			if r := c.do(&o); r.err != nil {
				c.close()
				return golden{}, n, fmt.Errorf("%s client %d request %d: %w", spec.name, ci, i, r.err)
			}
			n++
			inputs.Write(o.body)
			fmt.Fprintf(results, "%s%d", o.want.result, o.literal)
			for _, items := range o.want.items {
				for _, it := range items {
					results.Write([]byte(it))
				}
			}
		}
		c.close()
	}
	return golden{hex.EncodeToString(inputs.Sum(nil)), hex.EncodeToString(results.Sum(nil))}, n, nil
}
