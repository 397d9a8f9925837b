package fsim

import (
	"math/bits"
	"testing"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// faultKind classifies a fault by where the simulators inject it.
func faultKind(c *netlist.Circuit, f faults.Fault) string {
	if !f.IsStem() {
		if c.Consumers(f.Signal)[f.Consumer].Kind == netlist.ConsumerDFF {
			return "dff-branch"
		}
		return "gate-branch"
	}
	if c.Driver(f.Signal) >= 0 {
		return "gate-stem"
	}
	for _, pi := range c.PIs {
		if pi == f.Signal {
			return "pi-stem"
		}
	}
	return "ffq-stem"
}

// randomXSequence draws a sequence whose values are 0 and 1, with about
// one value in xEvery an X.
func randomXSequence(rng *xrand.RNG, width, length, xEvery int) vectors.Sequence {
	s := vectors.RandomSequence(rng, width, length)
	for _, v := range s {
		for i := range v {
			if rng.Intn(xEvery) == 0 {
				v[i] = logic.X
			}
		}
	}
	return s
}

// checkBatchLanes runs one Batch pass without early stop and compares
// every lane's verdict and detection time with Single on the
// materialized expansion; it also checks that a FirstDetected pass
// reports the same lowest detecting lane.
func checkBatchLanes(t testing.TB, b *Batch, single *Single, f faults.Fault, seqs []vectors.Sequence, n int, ops expand.Ops) {
	t.Helper()
	det := b.Detects(f, seqs, n, ops, nil)
	lowest := -1
	for q, s := range seqs {
		want, wantT := single.Detects(f, expand.Compose(s, n, ops))
		got := det>>q&1 == 1
		if got != want || b.DetTime(q) != wantT {
			t.Fatalf("%s n=%d ops=%04b lane %d/%d (len %d): batch (%v, %d), single (%v, %d)",
				f.Name(b.c), n, ops, q, len(seqs), len(s), got, b.DetTime(q), want, wantT)
		}
		if want && lowest < 0 {
			lowest = q
		}
	}
	first := b.Detects(f, seqs, n, ops, FirstDetected)
	got := -1
	if first != 0 {
		got = bits.TrailingZeros64(first)
	}
	if got != lowest {
		t.Fatalf("%s n=%d ops=%04b: FirstDetected pass gives lane %d, want %d", f.Name(b.c), n, ops, got, lowest)
	}
}

// TestBatchMatchesSingle is the differential test of the stepper: lane
// by lane against Single.Detects, on random stimuli containing X, with
// 1 to 64 lanes of unequal length, every fault kind, N in {1, 2, 4} and
// several expansion op subsets.
func TestBatchMatchesSingle(t *testing.T) {
	opsSets := []expand.Ops{expand.AllOps, 0, expand.OpRepeat, expand.OpComplement | expand.OpReverse,
		expand.OpShift, expand.OpRepeat | expand.OpShift | expand.OpReverse}
	exercised := map[string]bool{}
	for _, name := range []string{"s27", "s298", "s344"} {
		c := iscas.MustLoad(name)
		b, single := NewBatch(c), NewSingle(c)
		rng := xrand.New(11)
		byKind := map[string][]faults.Fault{}
		for _, f := range faults.Universe(c) {
			k := faultKind(c, f)
			byKind[k] = append(byKind[k], f)
		}
		for _, k := range []string{"pi-stem", "ffq-stem", "gate-stem", "gate-branch", "dff-branch"} {
			fl := byKind[k]
			if len(fl) > 0 {
				exercised[k] = true
			}
			for i := 0; i < 30 && i < len(fl); i++ {
				f := fl[rng.Intn(len(fl))]
				lanes := 1 + rng.Intn(BatchLanes)
				seqs := make([]vectors.Sequence, lanes)
				for q := range seqs {
					seqs[q] = randomXSequence(rng, c.NumPIs(), 1+rng.Intn(12), 8)
				}
				n := []int{1, 2, 4}[rng.Intn(3)]
				checkBatchLanes(t, b, single, f, seqs, n, opsSets[rng.Intn(len(opsSets))])
			}
		}
	}
	if len(exercised) != 5 {
		t.Errorf("fault kinds exercised: %v, want all five", exercised)
	}
}

// TestBatchEveryFaultS27 runs every uncollapsed s27 fault against a full
// 64-lane pass of windows of one sequence, the shape of Procedure 2's
// window scan.
func TestBatchEveryFaultS27(t *testing.T) {
	c := iscas.MustLoad("s27")
	b, single := NewBatch(c), NewSingle(c)
	t0 := randomXSequence(xrand.New(3), c.NumPIs(), 80, 16)
	seqs := make([]vectors.Sequence, BatchLanes)
	for q := range seqs {
		seqs[q] = t0[79-q:]
	}
	for _, f := range faults.Universe(c) {
		checkBatchLanes(t, b, single, f, seqs, 2, expand.AllOps)
	}
}

// TestFirstDetected pins the early-stop predicate.
func TestFirstDetected(t *testing.T) {
	for _, tc := range []struct {
		det, running uint64
		want         bool
	}{
		{0, 0, false},
		{0, 0b111, false},
		{0b1, 0b110, true},
		{0b100, 0b010, false},
		{0b100, 0b1000, true},
		{0b110, 0b001, false},
	} {
		if got := FirstDetected(tc.det, tc.running); got != tc.want {
			t.Errorf("FirstDetected(%b, %b) = %v, want %v", tc.det, tc.running, got, tc.want)
		}
	}
}

// FuzzBatchMatchesSingle drives the stepper with fuzzed stimuli, lane
// counts, repetition counts and op subsets on s27 and s298; every lane
// must agree with Single on the materialized expansion.
func FuzzBatchMatchesSingle(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint8(1), uint8(1), uint8(15), []byte{0, 1, 2, 1, 0, 0, 1})
	f.Add(uint8(0), uint16(17), uint8(64), uint8(2), uint8(15), []byte{5, 1, 1, 0, 2, 0, 1, 1, 0, 0, 2, 1})
	f.Add(uint8(1), uint16(200), uint8(20), uint8(4), uint8(9), []byte{7, 0, 1, 1, 1, 0, 0, 1, 0, 1, 2, 0, 1})
	f.Add(uint8(1), uint16(41), uint8(33), uint8(1), uint8(0), []byte{})
	circuits := []*netlist.Circuit{iscas.MustLoad("s27"), iscas.MustLoad("s298")}
	universes := [][]faults.Fault{faults.Universe(circuits[0]), faults.Universe(circuits[1])}
	f.Fuzz(func(t *testing.T, ci uint8, fi uint16, lanes, nSel, opsSel uint8, stim []byte) {
		c := circuits[int(ci)%len(circuits)]
		fl := universes[int(ci)%len(circuits)]
		fault := fl[int(fi)%len(fl)]
		k := 0
		next := func() int {
			if len(stim) == 0 {
				return 0
			}
			v := int(stim[k%len(stim)])
			k++
			return v
		}
		seqs := make([]vectors.Sequence, 1+int(lanes)%BatchLanes)
		for q := range seqs {
			seqs[q] = make(vectors.Sequence, 1+next()%8)
			for u := range seqs[q] {
				v := make(vectors.Vector, c.NumPIs())
				for i := range v {
					v[i] = []logic.Value{logic.Zero, logic.One, logic.X}[next()%3]
				}
				seqs[q][u] = v
			}
		}
		n := []int{1, 2, 4}[int(nSel)%3]
		checkBatchLanes(t, NewBatch(c), NewSingle(c), fault, seqs, n, expand.Ops(opsSel)&expand.AllOps)
	})
}
