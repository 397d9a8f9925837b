package core

import (
	"sort"
	"time"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
)

// CompactStats reports what §3.2 static compaction did.
type CompactStats struct {
	// Dropped counts sequences removed, per pass (length 4).
	Dropped [4]int
	// Before and After summarize the set sizes.
	Before, After Stats
	// Elapsed is the wall time spent compacting.
	Elapsed time.Duration
}

// CompactSet applies the paper's §3.2 static compaction of S: sequences
// whose expanded versions detect no fault not already detected by
// earlier-simulated sequences are dropped. Four simulation orders are
// used, in the paper's order:
//
//  1. increasing length (drops long sequences that became unnecessary),
//  2. decreasing length (finds short sequences covered by long ones),
//  3. reverse order of generation,
//  4. decreasing number of faults detected during the previous pass.
//
// The target fault set for every pass is F, the faults detected by T0
// (res.DetectedByT0). Every expanded sequence is simulated from the
// all-unknown state, so dropping a zero-contribution sequence never
// changes what the others detect; the union of detections of the
// surviving set is therefore still exactly F. The returned slice
// preserves the generation order of the survivors.
func CompactSet(c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config) ([]Selected, CompactStats) {
	return CompactSetPasses(c, fl, res, cfg, [4]bool{true, true, true, true})
}

// CompactSetPasses is CompactSet with individual passes enabled or
// disabled, for the pass-order ablation benchmarks.
func CompactSetPasses(c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config, enabled [4]bool) ([]Selected, CompactStats) {
	start := time.Now()
	set := make([]Selected, len(res.Set))
	copy(set, res.Set)
	stats := CompactStats{Before: StatsOf(set)}

	// Targets: indices into fl of the faults T0 detects.
	targIdx := make([]int, 0, res.NumTargets)
	for i := range fl {
		if res.DetectedByT0[i] {
			targIdx = append(targIdx, i)
		}
	}

	// detCount[g] = faults detected by the sequence with generation key g
	// in the most recent pass (pass 4 orders by it).
	detCount := make(map[int]int, len(set))
	genKey := func(s *Selected) int { return s.TargetFault } // unique per sequence

	for pass := 0; pass < 4; pass++ {
		if !enabled[pass] {
			continue
		}
		work := make([]Selected, len(set))
		copy(work, set)
		switch pass {
		case 0: // increasing length
			sort.SliceStable(work, func(i, j int) bool {
				if work[i].Seq.Len() != work[j].Seq.Len() {
					return work[i].Seq.Len() < work[j].Seq.Len()
				}
				return genKey(&work[i]) < genKey(&work[j])
			})
		case 1: // decreasing length
			sort.SliceStable(work, func(i, j int) bool {
				if work[i].Seq.Len() != work[j].Seq.Len() {
					return work[i].Seq.Len() > work[j].Seq.Len()
				}
				return genKey(&work[i]) < genKey(&work[j])
			})
		case 2: // reverse order of generation
			for i, j := 0, len(work)-1; i < j; i, j = i+1, j-1 {
				work[i], work[j] = work[j], work[i]
			}
		case 3: // decreasing previous-pass detection count
			sort.SliceStable(work, func(i, j int) bool {
				ci, cj := detCount[genKey(&work[i])], detCount[genKey(&work[j])]
				if ci != cj {
					return ci > cj
				}
				return genKey(&work[i]) < genKey(&work[j])
			})
		}

		covered := make(map[int]bool, len(targIdx))
		keep := make(map[int]bool, len(work))
		for wi := range work {
			s := &work[wi]
			live := make([]faults.Fault, 0, len(targIdx))
			liveIdx := make([]int, 0, len(targIdx))
			for _, fi := range targIdx {
				if !covered[fi] {
					live = append(live, fl[fi])
					liveIdx = append(liveIdx, fi)
				}
			}
			newly := 0
			if len(live) > 0 {
				r := fsim.New(c, live, cfg.simOptions()).Run(expand.Compose(s.Seq, cfg.N, cfg.expandOps()))
				for k := range live {
					if r.Detected[k] {
						covered[liveIdx[k]] = true
						newly++
					}
				}
			}
			detCount[genKey(s)] = newly
			if newly > 0 {
				keep[genKey(s)] = true
			} else {
				stats.Dropped[pass]++
			}
		}

		survivors := set[:0:0]
		for _, s := range set {
			if keep[genKey(&s)] {
				survivors = append(survivors, s)
			}
		}
		set = survivors
	}
	stats.After = StatsOf(set)
	stats.Elapsed = time.Since(start)
	return set, stats
}

// VerifyCoverage checks that the expansions of set together detect every
// fault in F (res.DetectedByT0); it returns the indices of any faults
// missed, in index order. A nil/empty result certifies the BIST scheme's
// coverage guarantee.
//
// Each sequence is simulated from scratch, but only against the faults
// no earlier sequence detected (fault dropping): a fault counts as
// covered once any expansion detects it, so the outcome is that of
// simulating every sequence against every fault.
func VerifyCoverage(c *netlist.Circuit, fl []faults.Fault, res *Result, set []Selected, cfg Config) []int {
	left := make([]int, 0, res.NumTargets)
	for i := range fl {
		if res.DetectedByT0[i] {
			left = append(left, i)
		}
	}
	sub := make([]faults.Fault, 0, len(left))
	for _, s := range set {
		if len(left) == 0 {
			break
		}
		sub = sub[:0]
		for _, fi := range left {
			sub = append(sub, fl[fi])
		}
		r := fsim.New(c, sub, cfg.simOptions()).Run(expand.Compose(s.Seq, cfg.N, cfg.expandOps()))
		kept := left[:0]
		for k, fi := range left {
			if !r.Detected[k] {
				kept = append(kept, fi)
			}
		}
		left = kept
	}
	if len(left) == 0 {
		return nil
	}
	return left
}
