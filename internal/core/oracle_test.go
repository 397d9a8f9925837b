package core

import (
	"fmt"
	"sync"
	"testing"

	"seqbist/internal/atpg"
	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// atpgT0s memoizes the ATPG sequences the tests use as T0, by circuit
// and length cap.
var atpgT0s sync.Map

// atpgT0 returns the seed-1 ATPG sequence for c, capped at maxLen.
func atpgT0(t testing.TB, c *netlist.Circuit, fl []faults.Fault, maxLen int) vectors.Sequence {
	t.Helper()
	key := fmt.Sprintf("%s/%d", c.Name, maxLen)
	if t0, ok := atpgT0s.Load(key); ok {
		return t0.(vectors.Sequence)
	}
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: 1, MaxLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	atpgT0s.Store(key, gen.Seq)
	return gen.Seq
}

// seqProc2 is the sequential Procedure 2 the trial-parallel one replaced,
// kept as its test oracle: every candidate expansion is materialized and
// checked by its own fsim.Single run, one trial at a time, and T0 is
// re-simulated for every target.
type seqProc2 struct {
	c      *Selector // circuit, fault list, T0 and config; its RNG is unused
	single *fsim.Single
	rng    *xrand.RNG
	sims   int
}

func newSeqProc2(sel *Selector) *seqProc2 {
	return &seqProc2{c: sel, single: fsim.NewSingle(sel.c), rng: xrand.New(sel.cfg.Seed)}
}

func (o *seqProc2) try(f int, candidate vectors.Sequence) bool {
	o.sims++
	ok, _ := o.single.Detects(o.c.fl[f], expand.Compose(candidate, o.c.cfg.N, o.c.cfg.expandOps()))
	return ok
}

func (o *seqProc2) find(f int) (vectors.Sequence, int, error) {
	sel := o.c
	det, udet := o.single.Detects(sel.fl[f], sel.t0)
	if !det {
		return nil, 0, fmt.Errorf("fault %d not detected by T0", f)
	}
	ustart := udet
	var t1 vectors.Sequence
	for {
		t1 = sel.t0.Subsequence(ustart, udet)
		if o.try(f, t1) {
			break
		}
		if ustart--; ustart < 0 {
			return nil, 0, fmt.Errorf("no window detects fault %d", f)
		}
	}
	switch {
	case sel.cfg.DisableOmission:
		return t1, ustart, nil
	case sel.cfg.OmissionRestart:
		return o.omitWithRestart(f, t1), ustart, nil
	default:
		return o.omitSinglePass(f, t1), ustart, nil
	}
}

func (o *seqProc2) omitWithRestart(f int, t1 vectors.Sequence) vectors.Sequence {
	trials := 0
	budget := o.c.cfg.MaxOmissionTrials
	for {
		accepted := false
		for _, i := range o.rng.Perm(t1.Len()) {
			if t1.Len() == 1 || budget > 0 && trials >= budget {
				return t1
			}
			trials++
			if candidate := t1.OmitAt(i); o.try(f, candidate) {
				t1 = candidate
				accepted = true
				break
			}
		}
		if !accepted {
			return t1
		}
	}
}

func (o *seqProc2) omitSinglePass(f int, t1 vectors.Sequence) vectors.Sequence {
	trials := 0
	budget := o.c.cfg.MaxOmissionTrials
	omitted := make([]bool, t1.Len())
	cur := t1
	for _, orig := range o.rng.Perm(t1.Len()) {
		if cur.Len() == 1 || budget > 0 && trials >= budget {
			break
		}
		idx := 0
		for j := 0; j < orig; j++ {
			if !omitted[j] {
				idx++
			}
		}
		trials++
		if candidate := cur.OmitAt(idx); o.try(f, candidate) {
			cur = candidate
			omitted[orig] = true
		}
	}
	return cur
}

// TestProcedure2MatchesSequentialOracle checks that trial-parallel
// Procedure 2 is bit-identical to the sequential one: Procedure 1 is
// replayed target by target through the oracle, which must produce the
// same subsequences and windows, the same Sims, and leave the random
// stream in the same state, across the omission variants and budgets.
// It also checks the memoized T0 simulation against Single's first
// detection time for every target.
func TestProcedure2MatchesSequentialOracle(t *testing.T) {
	circuits := []struct {
		name   string
		maxLen int
	}{{"s27", 0}, {"s298", 400}, {"s344", 300}, {"s1423", 300}}
	if raceEnabled {
		circuits = circuits[:3]
	}
	variants := []struct {
		name    string
		restart bool
		trials  int
		disable bool
	}{
		{"restart/unbounded", true, 0, false},
		{"restart/1", true, 1, false},
		{"restart/20", true, 20, false},
		{"single-pass/unbounded", false, 0, false},
		{"single-pass/1", false, 1, false},
		{"single-pass/20", false, 20, false},
		{"no-omission", true, 0, true},
	}
	for _, cc := range circuits {
		c := iscas.MustLoad(cc.name)
		fl := faults.CollapsedUniverse(c)
		t0 := s27T0()
		if cc.maxLen > 0 {
			t0 = atpgT0(t, c, fl, cc.maxLen)
		}
		for _, v := range variants {
			cfg := Config{N: 2, Seed: 5, OmissionRestart: v.restart, MaxOmissionTrials: v.trials,
				DisableOmission: v.disable, Parallelism: 1}
			t.Run(cc.name+"/"+v.name, func(t *testing.T) {
				sel, err := NewSelector(c, fl, t0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sel.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Set) == 0 {
					t.Fatal("empty selection")
				}
				o := newSeqProc2(sel)
				for i, s := range res.Set {
					seq, ustart, err := o.find(s.TargetFault)
					if err != nil {
						t.Fatal(err)
					}
					if ustart != s.UStart || !seq.Equal(s.Seq) {
						t.Fatalf("sequence %d (%s): got [%d] %s, oracle [%d] %s", i,
							fl[s.TargetFault].Name(c), s.UStart, s.Seq, ustart, seq)
					}
				}
				t.Logf("targets %d, |S| %d, sims %d", res.NumTargets, len(res.Set), res.Sims)
				if o.sims != res.Sims {
					t.Errorf("Sims = %d, oracle %d", res.Sims, o.sims)
				}
				if got, want := sel.rng.Uint64(), o.rng.Uint64(); got != want {
					t.Errorf("random stream diverged from the oracle: next draw %x, oracle %x", got, want)
				}
			})
		}
		single := fsim.NewSingle(c)
		sel, err := NewSelector(c, fl, t0, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		targets, detTime := sel.Targets()
		for _, f := range targets {
			if ok, udet := single.Detects(fl[f], t0); !ok || udet != detTime[f] {
				t.Errorf("%s %s: base DetTime %d, Single (%v, %d)", cc.name, fl[f].Name(c), detTime[f], ok, udet)
			}
		}
	}
}

// TestOmissionLongWindowMatchesOracle shrinks a 100-vector window, whose
// permutations span two passes of lanes, under both omission variants
// and several budgets: the shrunken sequence, Sims and the random stream
// must match the sequential oracle.
func TestOmissionLongWindowMatchesOracle(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := atpgT0(t, c, fl, 400)
	sel, err := NewSelector(c, fl, t0, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	targets, detTime := sel.Targets()
	f := targets[0]
	for _, fi := range targets {
		if detTime[fi] > detTime[f] {
			f = fi
		}
	}
	if detTime[f] < 99 {
		t.Fatalf("latest detection at %d, need a 100-vector window", detTime[f])
	}
	window := t0.Subsequence(detTime[f]-99, detTime[f])
	for _, v := range []struct {
		restart bool
		trials  int
	}{{true, 0}, {true, 1}, {true, 20}, {true, 150}, {false, 0}, {false, 70}} {
		cfg := Config{N: 2, Seed: 3, OmissionRestart: v.restart, MaxOmissionTrials: v.trials}
		sel, err := NewSelector(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := newSeqProc2(sel)
		got := sel.omit(f, window)
		var want vectors.Sequence
		if v.restart {
			want = o.omitWithRestart(f, window)
		} else {
			want = o.omitSinglePass(f, window)
		}
		if !got.Equal(want) || sel.Sims() != o.sims || sel.rng.Uint64() != o.rng.Uint64() {
			t.Errorf("restart=%v trials=%d: got len %d after %d sims, oracle len %d after %d sims (or the random streams differ)",
				v.restart, v.trials, got.Len(), sel.Sims(), want.Len(), o.sims)
		}
		t.Logf("restart=%v trials=%d: %d -> %d vectors, %d sims", v.restart, v.trials, window.Len(), got.Len(), o.sims)
	}
}
