package core

import (
	"slices"
	"testing"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func TestCompactPreservesCoverage(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, stats := CompactSet(c, fl, res, cfg)
	if missed := VerifyCoverage(c, fl, res, set, cfg); len(missed) != 0 {
		t.Errorf("compaction broke coverage: missed %v", missed)
	}
	if len(set) > len(res.Set) {
		t.Errorf("compaction grew the set: %d -> %d", len(res.Set), len(set))
	}
	if stats.Before.NumSequences != len(res.Set) || stats.After.NumSequences != len(set) {
		t.Errorf("stats inconsistent: %+v", stats)
	}
}

func TestCompactNeverIncreasesLengths(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(17), c.NumPIs(), 50)
	cfg := DefaultConfig(2)
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, stats := CompactSet(c, fl, res, cfg)
	if stats.After.TotalLen > stats.Before.TotalLen {
		t.Errorf("total length grew: %d -> %d", stats.Before.TotalLen, stats.After.TotalLen)
	}
	if stats.After.MaxLen > stats.Before.MaxLen {
		t.Errorf("max length grew: %d -> %d", stats.Before.MaxLen, stats.After.MaxLen)
	}
	if missed := VerifyCoverage(c, fl, res, set, cfg); len(missed) != 0 {
		t.Errorf("missed %v", missed)
	}
}

func TestCompactSurvivorsKeepGenerationOrder(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, _ := CompactSet(c, fl, res, cfg)
	pos := -1
	for _, s := range set {
		found := -1
		for i, orig := range res.Set {
			if orig.TargetFault == s.TargetFault {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatal("survivor not in the original set")
		}
		if found <= pos {
			t.Error("survivors not in generation order")
		}
		pos = found
	}
}

func TestCompactDropsRedundantSequence(t *testing.T) {
	// Inject an artificial duplicate: a second copy of an existing
	// sequence can never detect anything new in some pass ordering, so
	// the compacted set must be strictly smaller than the inflated one.
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inflated := *res
	dup := res.Set[len(res.Set)-1]
	dup.TargetFault = dup.TargetFault + 1000 // distinct generation key
	inflated.Set = append([]Selected{dup}, res.Set...)
	set, _ := CompactSet(c, fl, &inflated, cfg)
	if len(set) >= len(inflated.Set) {
		t.Errorf("duplicate sequence survived compaction: %d of %d", len(set), len(inflated.Set))
	}
	if missed := VerifyCoverage(c, fl, res, set, cfg); len(missed) != 0 {
		t.Errorf("missed %v", missed)
	}
}

func TestCompactPassesSubset(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each individual pass alone must preserve coverage too.
	for pass := 0; pass < 4; pass++ {
		var enabled [4]bool
		enabled[pass] = true
		set, _ := CompactSetPasses(c, fl, res, cfg, enabled)
		if missed := VerifyCoverage(c, fl, res, set, cfg); len(missed) != 0 {
			t.Errorf("pass %d alone: missed %v", pass, missed)
		}
	}
	// No passes: identity.
	set, stats := CompactSetPasses(c, fl, res, cfg, [4]bool{})
	if len(set) != len(res.Set) {
		t.Errorf("no-pass compaction changed the set")
	}
	if stats.Dropped != [4]int{} {
		t.Errorf("no-pass compaction reported drops: %v", stats.Dropped)
	}
}

func TestCompactEmptySet(t *testing.T) {
	c, fl, _ := s27Setup(t)
	res := &Result{DetectedByT0: make([]bool, len(fl))}
	set, stats := CompactSet(c, fl, res, DefaultConfig(1))
	if len(set) != 0 || stats.Before.NumSequences != 0 {
		t.Error("empty input mishandled")
	}
}

// allPairsMissed is VerifyCoverage without fault dropping: every
// sequence against every target.
func allPairsMissed(c *netlist.Circuit, fl []faults.Fault, res *Result, set []Selected, cfg Config) []int {
	targIdx := make([]int, 0, res.NumTargets)
	targFl := make([]faults.Fault, 0, res.NumTargets)
	for i := range fl {
		if res.DetectedByT0[i] {
			targIdx = append(targIdx, i)
			targFl = append(targFl, fl[i])
		}
	}
	covered := make([]bool, len(targFl))
	for _, s := range set {
		r := fsim.New(c, targFl, cfg.simOptions()).Run(expand.Compose(s.Seq, cfg.N, cfg.expandOps()))
		for k := range targFl {
			covered[k] = covered[k] || r.Detected[k]
		}
	}
	var missed []int
	for k, ok := range covered {
		if !ok {
			missed = append(missed, targIdx[k])
		}
	}
	return missed
}

// TestVerifyCoverageDroppingMatchesAllPairs removes needed sequences
// from a compacted set, one at a time and up to about six per circuit:
// the fault-dropping check must report exactly the faults the all-pairs
// check misses, in index order.
func TestVerifyCoverageDroppingMatchesAllPairs(t *testing.T) {
	circuits := []struct {
		name   string
		maxLen int
	}{{"s27", 0}, {"s298", 400}, {"s1423", 300}}
	if raceEnabled {
		circuits = circuits[:2]
	}
	for _, cc := range circuits {
		c := iscas.MustLoad(cc.name)
		fl := faults.CollapsedUniverse(c)
		t0 := s27T0()
		if cc.maxLen > 0 {
			t0 = atpgT0(t, c, fl, cc.maxLen)
		}
		cfg := DefaultConfig(2)
		cfg.MaxOmissionTrials = 20
		res, err := Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		set, _ := CompactSet(c, fl, res, cfg)
		if missed := VerifyCoverage(c, fl, res, set, cfg); missed != nil {
			t.Fatalf("%s: compacted set misses %v", cc.name, missed)
		}
		needed := 0
		for i := 0; i < len(set); i += max(1, len(set)/6) {
			cut := append(append([]Selected(nil), set[:i]...), set[i+1:]...)
			got, want := VerifyCoverage(c, fl, res, cut, cfg), allPairsMissed(c, fl, res, cut, cfg)
			if !slices.Equal(got, want) {
				t.Fatalf("%s without sequence %d: missed %v, all-pairs %v", cc.name, i, got, want)
			}
			if len(want) > 0 {
				needed++
			}
		}
		if needed == 0 {
			t.Errorf("%s: no sequence of the compacted set is needed", cc.name)
		}
	}
}
