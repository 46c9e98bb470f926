// Command perfbench is the repository benchmark: it runs one workload of the
// crawl → oracle pipeline built from a seed, checks the workload's outputs,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced; with
// -trace 1 they are the per-layer ledger of a separate traced run. A failed
// output check exits non-zero and prints no result.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"study":  runStudy,
	"stream": runStreamWorkload,
	"serve":  runServe,
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "workload: study, stream or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	secs := flag.Float64("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.Parse()
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	res, notes, err := run(o)
	for _, n := range notes {
		fmt.Println(n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload, untraced or traced, and assembles its result.
// Any failed output check is an error.
func run(o options) (*result, []string, error) {
	if o.seed == 0 {
		return nil, nil, errors.New("seed must be positive")
	}
	if o.trace {
		return runLedger(o)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	out, err := wl(o)
	if err != nil {
		return nil, nil, err
	}
	measured := out.reps.medians()
	measured["setup_s"] = median(out.setups)
	values := out.scaledMedians()
	out.notef("%s: %d repetitions, %d set-ups; by repetition ads_per_s %.0f, CPUs busy %.2f",
		o.workload, len(out.reps["ads_per_s"]), len(out.setups), out.reps["ads_per_s"], out.reps["cores"])
	out.notef("as measured: %v", measured)
	out.notef("machine speed %.0f jobs/s (reference %.0f)", out.speeds, referenceSpeed)
	res, err := assemble(endToEnd, values, out.attempted, out.failed)
	if err != nil {
		return nil, out.notes, err
	}
	return res, out.notes, nil
}

// assemble builds the result from the named values, failing if any defined
// metric was not measured.
func assemble(defs []metricDef, values map[string]float64, attempted, failed int64) (*result, error) {
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
