// Package core implements the paper's contribution: selection of a set of
// subsequences S of a deterministic test sequence T0 such that the
// on-chip expanded versions of the sequences in S achieve the same fault
// coverage as T0 (Pomeranz & Reddy, DAC 1999, §3).
//
// Three pieces:
//
//   - Select (Procedure 1): repeatedly target the yet-undetected fault
//     with the highest first-detection time under T0, construct a
//     subsequence for it, and fault-simulate its expansion to drop newly
//     covered faults.
//   - FindSubsequence (Procedure 2): for a target fault f, find the
//     latest window T0[ustart, udet(f)] whose expansion detects f, then
//     shrink it by random-order vector omission.
//   - CompactSet (§3.2): drop sequences that became redundant, using four
//     simulation orders (increasing length, decreasing length, reverse
//     generation order, decreasing previous-pass detection count).
//
// The package is deterministic given Config.Seed.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// Config controls sequence selection.
type Config struct {
	// N is the repetition count used in the expansion (the paper uses
	// n in {2,4,8,16}; the s27 walkthrough uses 1). Must be >= 1.
	N int
	// Seed drives Procedure 2's random omission order.
	Seed uint64
	// OmissionRestart selects the paper-faithful behaviour of restarting
	// the omission scan from scratch after every accepted omission. When
	// false, a single pass over the time units is made (cheaper; an
	// ablation in the benchmarks).
	OmissionRestart bool
	// MaxOmissionTrials bounds the number of expanded-sequence
	// simulations spent shrinking one subsequence (0 = unlimited). The
	// bound trades subsequence length for run time; coverage is never
	// affected.
	MaxOmissionTrials int
	// DisableOmission skips the omission phase entirely (ablation).
	DisableOmission bool
	// TargetOrder selects which yet-undetected fault Procedure 1 targets
	// next. The paper argues for the highest first-detection time
	// (OrderMaxUDet); the alternatives exist for the ablation benchmarks.
	TargetOrder TargetOrder
	// ExpandOps selects the §2 manipulations used for expansion (zero
	// value means the paper's full set). Subsets exist for the
	// manipulation ablation; the coverage guarantee holds for any subset.
	ExpandOps expand.Ops
	// Parallelism is the goroutine count for the sharded fault simulator
	// that backs Procedure 1's bulk simulations (0 = one worker per CPU,
	// 1 = serial). Any value yields identical results; see fsim.Options.
	Parallelism int
	// Lanes is ignored: every simulation packs 64 faults or candidate
	// sequences per word. The field remains so existing callers compile.
	Lanes int
	// Interrupt, when non-nil, is polled between units of work: once per
	// targeted fault and once per Procedure 2 simulation pass (each pass
	// checks up to 64 windows or omission candidates). When it returns
	// true, selection stops with ErrInterrupted. The service layer uses
	// this to cancel in-flight jobs promptly.
	Interrupt func() bool
}

// ErrInterrupted is returned by Select/Run when Config.Interrupt fired.
var ErrInterrupted = errors.New("core: selection interrupted")

// simWorkers resolves the fault-simulation parallelism.
func (cfg Config) simWorkers() int {
	if cfg.Parallelism > 0 {
		return cfg.Parallelism
	}
	return fsim.DefaultParallelism()
}

// simOptions assembles the fsim.Options for the bulk simulations.
func (cfg Config) simOptions() fsim.Options {
	return fsim.Options{Workers: cfg.simWorkers()}
}

// interrupted polls the cancellation hook.
func (cfg Config) interrupted() bool {
	return cfg.Interrupt != nil && cfg.Interrupt()
}

// expandOps resolves the configured op set (zero value = the full paper
// expansion).
func (cfg Config) expandOps() expand.Ops {
	if cfg.ExpandOps == 0 {
		return expand.AllOps
	}
	return cfg.ExpandOps
}

// TargetOrder enumerates fault-targeting policies for Procedure 1.
type TargetOrder int

// Target orders.
const (
	// OrderMaxUDet targets the fault with the highest detection time
	// first (the paper's choice: such faults need longer sequences that
	// tend to detect many others).
	OrderMaxUDet TargetOrder = iota
	// OrderMinUDet targets the easiest (earliest-detected) fault first.
	OrderMinUDet
	// OrderRandom targets faults in seeded random order.
	OrderRandom
)

// DefaultConfig returns the paper-faithful configuration with the given
// repetition count.
func DefaultConfig(n int) Config {
	return Config{N: n, Seed: 1, OmissionRestart: true}
}

// Selected is one subsequence chosen for the set S.
type Selected struct {
	// Seq is the stored subsequence S (loaded into on-chip memory).
	Seq vectors.Sequence
	// TargetFault is the index (into the fault list) of the fault this
	// sequence was constructed for.
	TargetFault int
	// UStart, UDet delimit the window T0[UStart, UDet] the sequence was
	// extracted from before omission.
	UStart, UDet int
	// NewlyDetected is the number of additional target faults the
	// expanded sequence detected when it was added.
	NewlyDetected int
}

// Stats summarizes a set of selected sequences.
type Stats struct {
	NumSequences int
	TotalLen     int
	MaxLen       int
}

// StatsOf computes summary statistics for a set.
func StatsOf(set []Selected) Stats {
	st := Stats{NumSequences: len(set)}
	for _, s := range set {
		st.TotalLen += s.Seq.Len()
		if s.Seq.Len() > st.MaxLen {
			st.MaxLen = s.Seq.Len()
		}
	}
	return st
}

// Result is the outcome of Procedure 1 (and optionally compaction).
type Result struct {
	// Set is the selected sequences in generation order.
	Set []Selected
	// DetectedByT0 flags, per fault-list index, membership in F (the
	// faults T0 detects).
	DetectedByT0 []bool
	// NumTargets is |F|.
	NumTargets int
	// UDet is the first detection time under T0 per fault (fsim.Undetected
	// for faults outside F).
	UDet []int
	// Sims counts expanded-sequence fault simulations performed
	// (Procedure 2 trials), the dominant cost.
	Sims int
}

// Selector holds the circuit-dependent state shared by Procedure 1 and 2.
//
// Procedure 2's inner loop — one target fault checked against thousands
// of candidate expanded sequences — runs on the reused fsim.Batch, which
// checks up to 64 candidates per word pass while charging Sims as if
// they were checked one at a time (DESIGN.md §8); the bulk simulations
// of Procedure 1 and §3.2 compaction go through a sharded active-region
// fsim.Engine built from cfg.simOptions().
type Selector struct {
	c     *netlist.Circuit
	fl    []faults.Fault
	t0    vectors.Sequence
	cfg   Config
	batch *fsim.Batch
	rng   *xrand.RNG
	sims  int
	// lanes and laneBuf are the pooled candidate sequences of one Batch
	// pass: windows of T0 alias it, omission candidates are copied into
	// laneBuf.
	lanes   [fsim.BatchLanes]vectors.Sequence
	laneBuf [fsim.BatchLanes]vectors.Sequence
	// baseRes memoizes the T0 fault simulation (step 1 of Procedure 1),
	// which depends only on the circuit, fault list, and T0 — strategies
	// that call RunOrder many times on one Selector pay for it once.
	baseRes *fsim.Result
}

// NewSelector prepares selection of subsequences of t0 for the given
// circuit and fault list.
func NewSelector(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Selector, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("core: repetition count N=%d, must be >= 1", cfg.N)
	}
	if t0.Len() == 0 {
		return nil, errors.New("core: empty T0")
	}
	if t0.Width() != c.NumPIs() {
		return nil, fmt.Errorf("core: T0 width %d, circuit has %d PIs", t0.Width(), c.NumPIs())
	}
	return &Selector{
		c:     c,
		fl:    fl,
		t0:    t0,
		cfg:   cfg,
		batch: fsim.NewBatch(c),
		rng:   xrand.New(cfg.Seed),
	}, nil
}

// Select runs Procedure 1: it returns a set of subsequences whose
// expansions together detect every fault T0 detects.
func Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Result, error) {
	sel, err := NewSelector(c, fl, t0, cfg)
	if err != nil {
		return nil, err
	}
	return sel.Run()
}

// base simulates T0 once and memoizes the outcome (step 1 of
// Procedure 1).
func (sel *Selector) base() *fsim.Result {
	if sel.baseRes == nil {
		r := fsim.New(sel.c, sel.fl, sel.cfg.simOptions()).Run(sel.t0)
		sel.baseRes = &r
	}
	return sel.baseRes
}

// Targets returns the fault-list indices of the faults T0 detects, in
// index order, alongside their first-detection times (indexed by fault,
// not by position). Strategies use this to enumerate the search space of
// target orders before calling RunOrder.
func (sel *Selector) Targets() (targets []int, detTime []int) {
	base := sel.base()
	targets = make([]int, 0, base.NumDetected)
	for i := range sel.fl {
		if base.Detected[i] {
			targets = append(targets, i)
		}
	}
	return targets, base.DetTime
}

// Reseed replaces the selector's random stream. Strategies that run many
// selection trials on one Selector use it to give each trial an
// independent, reproducible omission order.
func (sel *Selector) Reseed(seed uint64) {
	sel.rng = xrand.New(seed)
}

// Run executes Procedure 1.
func (sel *Selector) Run() (*Result, error) {
	// Step 1: simulate T0; F = detected faults with first detection times.
	base := sel.base()

	// Ftarg as index list, kept sorted by (udet desc, index asc) so step 2
	// is a deterministic pop.
	targ := make([]int, 0, base.NumDetected)
	for i := range sel.fl {
		if base.Detected[i] {
			targ = append(targ, i)
		}
	}
	switch sel.cfg.TargetOrder {
	case OrderMaxUDet:
		sort.Slice(targ, func(a, b int) bool {
			if base.DetTime[targ[a]] != base.DetTime[targ[b]] {
				return base.DetTime[targ[a]] > base.DetTime[targ[b]]
			}
			return targ[a] < targ[b]
		})
	case OrderMinUDet:
		sort.Slice(targ, func(a, b int) bool {
			if base.DetTime[targ[a]] != base.DetTime[targ[b]] {
				return base.DetTime[targ[a]] < base.DetTime[targ[b]]
			}
			return targ[a] < targ[b]
		})
	case OrderRandom:
		sel.rng.Shuffle(targ)
	}
	return sel.runTargets(targ)
}

// RunOrder executes Procedure 1 with an explicit target-priority order:
// order lists fault-list indices, highest priority first. Indices that T0
// does not detect are skipped; detected faults missing from order are
// appended in index order, so every detected fault is always covered.
// Strategies search over such orders — each permutation yields a
// different (coverage-equivalent) subsequence set.
func (sel *Selector) RunOrder(order []int) (*Result, error) {
	base := sel.base()
	targ := make([]int, 0, base.NumDetected)
	seen := make(map[int]bool, len(order))
	for _, fi := range order {
		if fi < 0 || fi >= len(sel.fl) || !base.Detected[fi] || seen[fi] {
			continue
		}
		seen[fi] = true
		targ = append(targ, fi)
	}
	for i := range sel.fl {
		if base.Detected[i] && !seen[i] {
			targ = append(targ, i)
		}
	}
	return sel.runTargets(targ)
}

// runTargets is the shared body of Procedure 1: pop targets in the given
// priority order, construct a subsequence for each (Procedure 2), and
// drop every target the expansion newly detects. Result.Sims counts only
// this run's trials, so repeated runs on one Selector report per-run
// cost.
func (sel *Selector) runTargets(targ []int) (*Result, error) {
	base := sel.base()
	simsBefore := sel.sims
	res := &Result{
		DetectedByT0: base.Detected,
		UDet:         base.DetTime,
		NumTargets:   base.NumDetected,
	}

	remaining := make(map[int]bool, len(targ))
	for _, fi := range targ {
		remaining[fi] = true
	}

	for pos := 0; pos < len(targ); pos++ {
		f := targ[pos]
		if !remaining[f] {
			continue
		}
		if sel.cfg.interrupted() {
			return nil, ErrInterrupted
		}
		// Step 3: Procedure 2 for the selected fault.
		s, ustart, err := sel.FindSubsequence(f)
		if err != nil {
			return nil, err
		}
		// Step 4: simulate remaining targets under Sexp and drop those
		// detected.
		subsetIdx := make([]int, 0, len(remaining))
		subset := make([]faults.Fault, 0, len(remaining))
		for _, fi := range targ[pos:] {
			if remaining[fi] {
				subsetIdx = append(subsetIdx, fi)
				subset = append(subset, sel.fl[fi])
			}
		}
		sexp := expand.Compose(s, sel.cfg.N, sel.cfg.expandOps())
		r := fsim.New(sel.c, subset, sel.cfg.simOptions()).Run(sexp)
		newly := 0
		for k, fi := range subsetIdx {
			if r.Detected[k] {
				delete(remaining, fi)
				newly++
			}
		}
		if remaining[f] {
			// The construction guarantees the target is detected; a
			// violation indicates an implementation bug.
			return nil, fmt.Errorf("core: expanded sequence failed to detect its target fault %s",
				sel.fl[f].Name(sel.c))
		}
		res.Set = append(res.Set, Selected{
			Seq:           s,
			TargetFault:   f,
			UStart:        ustart,
			UDet:          base.DetTime[f],
			NewlyDetected: newly,
		})
		if len(remaining) == 0 {
			break
		}
	}
	res.Sims = sel.sims - simsBefore
	return res, nil
}

// FindSubsequence runs Procedure 2 for fault index f (which must be
// detected by T0). It returns the shrunken subsequence and the ustart of
// the pre-omission window.
//
// Every candidate is checked on the trial-parallel fsim.Batch, up to 64
// per pass, and each pass is charged only for the trials the sequential
// procedure would have run up to and including the first success, so
// the result, Sims and the random stream equal those of checking one
// candidate at a time.
func (sel *Selector) FindSubsequence(f int) (vectors.Sequence, int, error) {
	base := sel.base()
	if !base.Detected[f] {
		return nil, 0, fmt.Errorf("core: fault %s not detected by T0", sel.fl[f].Name(sel.c))
	}
	udet := base.DetTime[f]

	// Steps 1-3: find the latest ustart whose expanded window detects f.
	// Lane q of a pass starting at k holds T0[udet-k-q, udet]; passes grow
	// from 8 to 64 lanes because most targets need only a short window.
	for k, block := 0, 8; k <= udet; k, block = k+block, min(2*block, fsim.BatchLanes) {
		if sel.cfg.interrupted() {
			return nil, 0, ErrInterrupted
		}
		lanes := sel.lanes[:min(block, udet+1-k)]
		for q := range lanes {
			lanes[q] = sel.t0[udet-k-q : udet+1]
		}
		if tried, ok := sel.firstDetecting(f, lanes); ok {
			ustart := udet - k - (tried - 1)
			t1 := sel.t0.Subsequence(ustart, udet)
			if sel.cfg.DisableOmission {
				return t1, ustart, nil
			}
			// Steps 4-9: random-order omission.
			return sel.omit(f, t1), ustart, nil
		}
	}
	// Cannot happen: the expansion of T0[0,udet] begins with T0[0,udet]
	// itself, which detects f at time udet.
	return nil, 0, fmt.Errorf("core: no window of T0 detects %s when expanded; simulator inconsistency",
		sel.fl[f].Name(sel.c))
}

// firstDetecting simulates the expansions of lanes against fault f in one
// Batch pass. It returns the number of trials the sequential procedure
// would have run — every lane up to and including the lowest one that
// detects f, or all of them — charges them to Sims, and reports whether
// the last of them detects f.
func (sel *Selector) firstDetecting(f int, lanes []vectors.Sequence) (tried int, ok bool) {
	det := sel.batch.Detects(sel.fl[f], lanes, sel.cfg.N, sel.cfg.expandOps(), fsim.FirstDetected)
	tried, ok = len(lanes), det != 0
	if ok {
		tried = bits.TrailingZeros64(det) + 1
	}
	sel.sims += tried
	return tried, ok
}

// omit shrinks t1 by random-order vector omission while the expansion
// still detects fault f (Procedure 2 steps 4-9).
func (sel *Selector) omit(f int, t1 vectors.Sequence) vectors.Sequence {
	if sel.cfg.OmissionRestart {
		return sel.omitWithRestart(f, t1)
	}
	return sel.omitSinglePass(f, t1)
}

// omissionLanes fills one pass's lanes with cur minus the vector at each
// of the given positions and returns them.
func (sel *Selector) omissionLanes(cur vectors.Sequence, at []int) []vectors.Sequence {
	lanes := sel.lanes[:len(at)]
	for q, i := range at {
		buf := append(sel.laneBuf[q][:0], cur[:i]...)
		sel.laneBuf[q] = append(buf, cur[i+1:]...)
		lanes[q] = sel.laneBuf[q]
	}
	return lanes
}

// passSize is the number of omission trials the next pass speculates
// on: at most one word of lanes, the rest of the permutation, and the
// trial budget left.
func (sel *Selector) passSize(left, trials int) int {
	nl := min(fsim.BatchLanes, left)
	if budget := sel.cfg.MaxOmissionTrials; budget > 0 {
		nl = min(nl, budget-trials)
	}
	return nl
}

// omitWithRestart is the paper-faithful omission: after every accepted
// omission the scan restarts over the shorter sequence (Procedure 2's
// "go to Step 4"); the loop terminates when a full random-order scan
// accepts nothing. Each pass tries the next candidates of the
// permutation against the same t1 and accepts the first success in
// permutation order, which is the omission the sequential scan accepts.
func (sel *Selector) omitWithRestart(f int, t1 vectors.Sequence) vectors.Sequence {
	trials := 0
	budget := sel.cfg.MaxOmissionTrials
	for {
		accepted := false
		perm := sel.rng.Perm(t1.Len())
		for p := 0; p < len(perm); {
			if t1.Len() == 1 {
				// Omitting the last vector would leave an empty sequence,
				// which cannot detect anything.
				return t1
			}
			if budget > 0 && trials >= budget {
				return t1
			}
			if sel.cfg.interrupted() {
				// Stop shrinking; the caller's loop observes the
				// interrupt and aborts with ErrInterrupted.
				return t1
			}
			at := perm[p : p+sel.passSize(len(perm)-p, trials)]
			tried, ok := sel.firstDetecting(f, sel.omissionLanes(t1, at))
			trials += tried
			if ok {
				t1 = t1.OmitAt(at[tried-1])
				accepted = true
				break
			}
			p += tried
		}
		if !accepted {
			return t1
		}
	}
}

// omitSinglePass is the ablation variant: each time unit is considered at
// most once, in one random order, with accepted omissions applied as the
// scan proceeds. A pass speculates on the next candidates against the
// current sequence; after its first success the scan resumes right
// behind it, on the shortened sequence.
func (sel *Selector) omitSinglePass(f int, t1 vectors.Sequence) vectors.Sequence {
	trials := 0
	budget := sel.cfg.MaxOmissionTrials
	omitted := make([]bool, t1.Len())
	cur := t1
	perm := sel.rng.Perm(t1.Len())
	var at []int
	for p := 0; p < len(perm); {
		if cur.Len() == 1 {
			break
		}
		if budget > 0 && trials >= budget {
			break
		}
		if sel.cfg.interrupted() {
			break
		}
		// Map each original position to its index in the current sequence.
		at = at[:0]
		for _, orig := range perm[p : p+sel.passSize(len(perm)-p, trials)] {
			idx := 0
			for j := 0; j < orig; j++ {
				if !omitted[j] {
					idx++
				}
			}
			at = append(at, idx)
		}
		tried, ok := sel.firstDetecting(f, sel.omissionLanes(cur, at))
		trials += tried
		if ok {
			cur = cur.OmitAt(at[tried-1])
			omitted[perm[p+tried-1]] = true
		}
		p += tried
	}
	return cur
}

// Sims returns the number of expanded-sequence simulations performed.
func (sel *Selector) Sims() int { return sel.sims }
