package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/service"
	"seqbist/internal/vectors"
)

// The library workloads run service.Synthesize — the pipeline a daemon
// job runs, minus queue and store — on a fixed batch of specs.

// registryCircuits is atpg-registry's batch, synthesized one after
// another with the daemon's defaults, once per generation seed of
// registrySeeds.
var registryCircuits = []string{"s298", "s344", "s382", "s641", "s820", "s1196", "s1488"}

// registrySeeds are the generation seeds atpg-registry synthesizes every
// circuit with: the daemon default 1, then 2, then one derived from the
// workload seed. A generation seed changes a circuit's T0 and so its cost
// (s820's by up to ±20%); with every seed drawn from the workload seed,
// that moved the batch's figures from one workload seed to the next as
// much as the shared host does. Two fixed seeds keep most of the batch
// the same, and the third still gives every workload seed, the held-out
// one too, work of its own.
func registrySeeds(seed uint64) []uint64 { return []uint64{1, 2, deriveSeed(seed, 1)} }

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median. Set-up takes milliseconds, so one measurement would be mostly
// noise.
const setupRepeats = 25

// libJob is one synthesis of a library workload's batch.
type libJob struct {
	key  string // circuit@generation-seed
	spec service.JobSpec
	c    *netlist.Circuit
	fl   []faults.Fault
}

// genSeed is proc2-s5378's generation seed for the workload seed: the
// workload seed itself, so workload seed 1, the seed expected.json
// records, uses the daemon default 1.
func genSeed(seed uint64) uint64 {
	if seed != 0 {
		return seed
	}
	return deriveSeed(seed, 0)
}

func newLibJob(c *netlist.Circuit, spec service.JobSpec) libJob {
	return libJob{
		key:  fmt.Sprintf("%s@%d", spec.Circuit, spec.Config.Seed),
		spec: spec,
		c:    c,
		fl:   faults.CollapsedUniverse(c),
	}
}

func runProc2(r *run) error {
	var jobs []libJob
	setup, err := timeMedian(setupRepeats, func() error {
		c, err := iscas.Load(t0Circuit)
		if err != nil {
			return err
		}
		t0, err := loadT0()
		if err != nil {
			return err
		}
		jobs = []libJob{newLibJob(c, service.JobSpec{Circuit: t0Circuit, T0: t0, Config: service.GenConfig{
			N: 2, Seed: genSeed(r.seed), MaxOmissionTrials: 20, Parallelism: 2, Strategy: "greedy",
		}})}
		return nil
	})
	if err != nil {
		return err
	}
	return runLibrary(r, jobs, setup)
}

func runRegistry(r *run) error {
	var jobs []libJob
	setup, err := timeMedian(setupRepeats, func() error {
		jobs = jobs[:0]
		for _, gs := range registrySeeds(r.seed) {
			for _, name := range registryCircuits {
				c, err := iscas.Load(name)
				if err != nil {
					return err
				}
				jobs = append(jobs, newLibJob(c, service.JobSpec{Circuit: name, Config: service.GenConfig{
					N: 4, Seed: gs, ATPGMaxLen: 1500, MaxOmissionTrials: 20, Parallelism: 2, Strategy: "greedy",
				}}))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return runLibrary(r, jobs, setup)
}

// loadT0 reads the committed proc2-s5378 T0 and checks its hash.
func loadT0() (string, error) {
	b, err := os.ReadFile(t0Path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != t0SHA256 {
		return "", fmt.Errorf("%s: sha256 %s, want %s", t0Path, got, t0SHA256)
	}
	return string(b), nil
}

func runLibrary(r *run, jobs []libJob, setup float64) error {
	if r.traced {
		return traceLibrary(r, jobs)
	}
	ctx := context.Background()
	var (
		batchWall, batchCPU, jobMS []float64
		circuitMS                  = make(map[string][]float64)
		first                      = make(map[string]string)
		stored                     int
		done                       int
	)
	// As many whole batches as fit in --seconds, and at least one.
	start := time.Now()
	for batch := 0; batch == 0 || time.Since(start)+time.Duration(batchWall[batch-1]*1e9) <= r.seconds; batch++ {
		cpu0, t0 := cpuTime(), time.Now()
		stored = 0
		for _, j := range jobs {
			ts := time.Now()
			res, err := service.Synthesize(ctx, j.spec)
			ms := float64(time.Since(ts).Nanoseconds()) / 1e6
			jobMS = append(jobMS, ms)
			circuitMS[j.spec.Circuit] = append(circuitMS[j.spec.Circuit], ms)
			r.check(err == nil, "%s: synthesize: %v", j.key, err)
			if err != nil {
				continue
			}
			done++
			stored += res.TotalLen
			h := resultHash(res)
			printOutcome(j.key, ms, outcomeOf(res, h))
			if batch == 0 {
				first[j.key] = h
				r.checkResult(j, res, h)
			} else {
				r.check(h == first[j.key], "%s: batch %d result %s differs from batch 0 %s", j.key, batch, h, first[j.key])
			}
		}
		batchWall = append(batchWall, time.Since(t0).Seconds())
		batchCPU = append(batchCPU, (cpuTime() - cpu0).Seconds())
	}
	elapsed := time.Since(start).Seconds()
	if err := r.seedMemo(first); err != nil {
		return err
	}
	fmt.Printf("%s seed %d: %d batches of %d syntheses in %.2fs\n", r.workload, r.seed, len(batchWall), len(jobs), elapsed)
	r.set("setup_s", setup, "s")
	r.set("synth_s", median(batchWall), "s")
	r.set("cpu_s", median(batchCPU), "s")
	r.set("peak_rss_mb", peakRSSMiB(), "MiB")
	r.set("stored_vectors", float64(stored), "vectors")
	r.set("job_p50_ms", median(jobMS), "ms")
	jobTail, _ := tail(circuitMeans(circuitMS))
	r.set("job_tail_ms", jobTail, "ms")
	r.set("sweep_p50_ms", median(batchWall)*1000, "ms")
	r.set("jobs_per_s", float64(done)/sum(batchWall), "jobs/s")
	r.setOK()
	return nil
}

// checkResult checks one synthesis result: against the values
// expected.json records for the default seed, and for every seed against
// what the workload input fixes.
func (r *run) checkResult(j libJob, res *service.Result, hash string) {
	name := j.key
	r.check(res.Circuit == j.spec.Circuit && res.NumFaults == len(j.fl), "%s: result is for %s with %d faults", name, res.Circuit, res.NumFaults)
	r.check(res.NumSequences > 0 && res.DetectedByT0 > 0, "%s: empty result", name)
	if j.spec.T0 != "" {
		r.check(res.DetectedByT0 == t0Detected && res.T0Len == t0Vectors,
			"%s: T0 of %d vectors detects %d faults, want %d and %d", name, res.T0Len, res.DetectedByT0, t0Vectors, t0Detected)
	}
	want, ok := expected.lookup(r.workload, r.seed, name)
	if !ok {
		return
	}
	got := outcomeOf(res, hash)
	r.check(got == want, "%s seed %d: got %+v, expected.json records %+v", name, r.seed, got, want)
}

// outcome is the deterministic summary expected.json records per circuit.
type outcome struct {
	Detected int    `json:"detected"`
	Sets     int    `json:"sets"`
	TotalLen int    `json:"total_len"`
	MaxLen   int    `json:"max_len"`
	Sims     int    `json:"sims"`
	Hash     string `json:"hash"`
}

func outcomeOf(res *service.Result, hash string) outcome {
	return outcome{res.DetectedByT0, res.NumSequences, res.TotalLen, res.MaxLen, res.Sims, hash}
}

// printOutcome prints one synthesis's outcome in the form expected.json
// records it.
func printOutcome(key string, ms float64, o outcome) {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // an outcome always marshals
	}
	fmt.Printf("  %-16s %10.1fms %s\n", key, ms, b)
}

// circuitMeans is every circuit's mean synthesis time over its
// generation seeds and batches. The library workloads' job_tail_ms is
// taken over these: the slow end of a batch is a handful of syntheses of
// its largest circuits, each of which moves by up to ±20% with the shared
// host's speed, and a tail over single syntheses moved with whichever of
// them ran through a slow spell.
func circuitMeans(byCircuit map[string][]float64) []float64 {
	var means []float64
	for _, ms := range byCircuit {
		means = append(means, sum(ms)/float64(len(ms)))
	}
	return means
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// setOK reports the share of checked operations that succeeded.
func (r *run) setOK() {
	r.set("ok_frac", 1-float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
}

// allocMB is the heap allocated so far, in MiB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// parseT0 parses a spec's T0 the way the service does.
func parseT0(spec service.JobSpec) (vectors.Sequence, error) {
	if spec.T0 == "" {
		return nil, nil
	}
	return vectors.ParseSequence(spec.T0)
}
