// Command perfbench is seqbist's end-to-end benchmark. It runs one named
// workload per invocation against the repository's packages, checks every
// output, and prints its metrics by name with their units; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every layer's public calls and prints the
// per-layer split instead. Workloads, metrics and the recorded
// default-seed outputs are described in README.md and expected.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload proc2-s5378 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workDir holds everything a run writes: daemon data directories, span
// dumps and the per-seed result memo. It sits inside the checkout.
const workDir = ".bench_build"

// workload is one named input set. run executes it, untraced or traced,
// and records its checks and metrics on the run.
type workload struct {
	name string
	run  func(w *run) error
}

var workloads = []workload{
	{"proc2-s5378", runProc2},
	{"atpg-registry", runRegistry},
	{"daemon-mixed", runDaemonMixed},
}

// run is the state of one invocation: its arguments, the checks it made
// and the metrics it reports.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	id       string // identifies this run's spans

	attempted int
	failed    int
	problems  []string

	metrics map[string]metric
	tracer  *tracer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check counts one output check; a false ok fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: proc2-s5378, atpg-registry or daemon-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the recorded outputs in expected.json are for seed 1")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	makeT0Flag := flag.Bool("make-t0", false, "regenerate perfbench/data/s5378-t0.txt and exit")
	flag.Parse()

	if *makeT0Flag {
		if err := makeT0(); err != nil {
			fatal(err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	if _, err := os.Stat(t0Path); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	r := &run{
		workload: wl.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		id:       fmt.Sprintf("%s-seed%d-%d", wl.name, *seed, time.Now().UnixNano()),
		metrics:  make(map[string]metric),
	}
	if r.traced {
		r.tracer = newTracer(r.id)
	}
	if err := wl.run(r); err != nil {
		fatal(err)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if r.traced {
		path := filepath.Join(workDir, "trace", r.id+".json")
		if err := r.tracer.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %s\n", path)
	}
	printMetrics(r)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, r.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
