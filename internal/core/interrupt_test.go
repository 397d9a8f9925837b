package core

import (
	"errors"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestInterruptStopsSelection checks the cancellation hook: an Interrupt
// that fires immediately aborts Procedure 1 with ErrInterrupted, and one
// that never fires leaves the result unchanged.
func TestInterruptStopsSelection(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(1), c.NumPIs(), 120)

	cfg := DefaultConfig(2)
	cfg.MaxOmissionTrials = 50
	cfg.Interrupt = func() bool { return true }
	if _, err := Select(c, fl, t0, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Select with firing Interrupt: err = %v, want ErrInterrupted", err)
	}

	cfg.Interrupt = func() bool { return false }
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatalf("Select with quiet Interrupt: %v", err)
	}
	base, err := Select(c, fl, t0, DefaultConfigWithTrials(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != len(base.Set) {
		t.Fatalf("quiet Interrupt changed the selection: %d vs %d sequences",
			len(res.Set), len(base.Set))
	}
}

// DefaultConfigWithTrials mirrors the cfg used above without the hook.
func DefaultConfigWithTrials(n, trials int) Config {
	cfg := DefaultConfig(n)
	cfg.MaxOmissionTrials = trials
	return cfg
}

// TestInterruptDuringWindowScan cancels Procedure 2 between two passes
// of its window scan: the scan polls once per pass, so a target whose
// window needs more than one pass observes an interrupt that fires on
// the second poll, and FindSubsequence fails with ErrInterrupted without
// finishing the scan.
func TestInterruptDuringWindowScan(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := atpgT0(t, c, fl, 400)

	cfg := DefaultConfig(2)
	cfg.DisableOmission = true
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for _, s := range res.Set {
		if s.UDet-s.UStart >= 8 { // lanes 0-7 of the first pass all fail
			target = s.TargetFault
			break
		}
	}
	if target < 0 {
		t.Fatal("no target needs a window scan longer than one pass")
	}

	polls := 0
	cfg.Interrupt = func() bool {
		polls++
		return polls == 2
	}
	sel, err := NewSelector(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := sel.Sims()
	if _, _, err := sel.FindSubsequence(target); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("FindSubsequence with an interrupt on the second pass: err = %v, want ErrInterrupted", err)
	}
	if polls != 2 || sel.Sims()-before != 8 {
		t.Errorf("scan stopped after %d polls and %d sims, want 2 polls and the 8 sims of the first pass",
			polls, sel.Sims()-before)
	}
}
