// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the program built from the same source
// tree and prints its metrics; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	serve-read     lgserve at Scale 1 with 1s epoch pacing, under read-heavy
//	               traffic: open loops at 50 and 100 req/s, then a closed loop
//	churn-publish  lgserve at Scale 1 committing epochs as fast as windows
//	               close, polled at a fixed 100 req/s
//	batch-paper    pipeline.BuildWorld at Scale 1, then World.RunInference
//	               back to back
//
// --trace 0 reports the end-to-end metrics; --trace 1 instead runs the
// layers in process, timing each from outside around calls into its
// public functions, and reports the per-layer metrics. README.md maps
// every metric to what it measures on each workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// worldSeed is the generation seed of the measured world: the paper's
// collection date, lgserve's default. It is fixed because world size
// and survey cost vary severalfold across generation seeds at Scale 1;
// --seed drives the traffic instead.
const worldSeed = 20130501

// Set-ups per run; setup_s is their median. lgserve's set-up (about
// 10 s) is repeated twice, so that 22 runs of each of three workloads
// fit the time the benchmark is given; BuildWorld (about 1.5 s) three
// times.
const (
	serveSetups = 2
	worldSetups = 3
)

// Options are the command-line settings of one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	LGServe  string // path to the lgserve binary
	OutDir   string // where traced runs write their spans
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's outcome, printed as the last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report collects a run's metrics and failures.
type Report struct {
	Result
	reasons map[string]int
}

func newReport() *Report {
	return &Report{Result: Result{Correct: true, Metrics: map[string]Metric{}}, reasons: map[string]int{}}
}

// Set records a metric reported in the JSON result.
func (r *Report) Set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// Info prints a named figure that is not part of the JSON result, such
// as the workload-specific name of a generic metric.
func (*Report) Info(name string, v float64, unit, note string) {
	fmt.Printf("metric %-34s %14.6f %-6s %s\n", name, v, unit, note)
}

// Ops counts attempted operations and failures by reason.
func (r *Report) Ops(attempted int, reasons map[string]int) {
	r.Attempted += attempted
	for k, n := range reasons {
		r.Failed += n
		r.reasons[k] += n
	}
}

// Fail records a failed output check that is not tied to one operation.
func (r *Report) Fail(reason string) {
	r.Failed++
	r.reasons[reason]++
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "serve-read, churn-publish or batch-paper")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.Seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.StringVar(&o.LGServe, "lgserve", ".bench_build/bin/lgserve", "lgserve binary")
	flag.StringVar(&o.OutDir, "out", ".bench_build/trace", "directory for trace files")
	flag.Parse()
	o.Trace = trace == 1
	if o.Seconds < 1 {
		log.Fatal("--seconds must be at least 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	rep := newReport()
	err := run(ctx, o, rep)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	reasons := make([]string, 0, len(rep.reasons))
	for k := range rep.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("failed %-30s %d\n", k, rep.reasons[k])
	}
	fmt.Printf("operations attempted %d failed %d\n", rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, o Options, rep *Report) error {
	fmt.Printf("perfbench workload %s seed %d seconds %d trace %v gomaxprocs %d\n",
		o.Workload, o.Seed, o.Seconds, o.Trace, runtime.GOMAXPROCS(0))
	measure := time.Duration(o.Seconds) * time.Second
	if o.Trace {
		return runTraced(ctx, o, rep)
	}
	switch o.Workload {
	case "serve-read":
		return serveRead(ctx, o, measure, rep)
	case "churn-publish":
		return churnPublish(ctx, o, measure, rep)
	case "batch-paper":
		return batchPaper(ctx, o, measure, rep)
	}
	return fmt.Errorf("unknown workload %q (want serve-read, churn-publish or batch-paper)", o.Workload)
}
