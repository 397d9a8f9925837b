package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"seqbist/internal/service"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the value at the highest percentile of xs that has at least
// ten samples beyond it, and that percentile. Below 101 samples that
// percentile would be under the 90th, and the 90th percentile is
// reported instead: a batch's maximum is a single sample, which moves
// with whatever the host did during that one operation.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 100 {
		return quantile(xs, 0.9), 90
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-11) / float64(n-1)
}

// timeMedian runs f k times and returns the median wall time in seconds.
func timeMedian(k int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < k; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// deriveSeed maps the workload seed and a stream index onto a non-zero
// generation seed (a zero GenConfig.Seed would mean "default").
func deriveSeed(seed uint64, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// resultHash fingerprints every deterministic field of a synthesis
// result: the stored vectors, windows, targets and golden MISRs included;
// only the wall-clock ElapsedMS is left out.
func resultHash(res *service.Result) string {
	cp := *res
	cp.ElapsedMS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		panic(err) // a Result always marshals
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// seedMemo compares this run's result hashes with those an earlier run of
// the same workload and seed recorded, and records the ones it had none
// for, so a seed without recorded outputs still has to repeat
// bit-identically between runs.
func (r *run) seedMemo(hashes map[string]string) error {
	path := filepath.Join(workDir, "seen", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		grew := false
		for k, h := range hashes {
			if p, ok := prev[k]; ok {
				r.check(p == h, "%s: result hash %s differs from %s recorded by an earlier run of seed %d", k, h, p, r.seed)
			} else {
				prev[k], grew = h, true
			}
		}
		if !grew {
			return nil
		}
		hashes = prev
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(hashes, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printMetrics lists every reported metric, one per line, before the JSON
// result line.
func printMetrics(r *run) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
}
