package expand

import (
	"testing"
	"testing/quick"

	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestPaperTable1 reproduces the paper's Table 1 exactly: S = (000, 110),
// n = 2.
func TestPaperTable1(t *testing.T) {
	s := vectors.MustParseSequence("000 110")

	sP := Repeat(s, 2)
	if got, want := sP.String(), "000 110 000 110"; got != want {
		t.Errorf("S'exp = %s, want %s", got, want)
	}

	sPP := sP.Concat(Complement(sP))
	if got, want := sPP.String(), "000 110 000 110 111 001 111 001"; got != want {
		t.Errorf("S''exp = %s, want %s", got, want)
	}

	sPPP := sPP.Concat(ShiftLeftCircular(sPP))
	want := "000 110 000 110 111 001 111 001 " +
		"000 101 000 101 111 010 111 010"
	if got := sPPP.String(); got != want {
		t.Errorf("S'''exp = %s, want %s", got, want)
	}

	sexp := sPPP.Concat(Reverse(sPPP))
	wantExp := "000 110 000 110 111 001 111 001 " +
		"000 101 000 101 111 010 111 010 " +
		"010 111 010 111 101 000 101 000 " +
		"001 111 001 111 110 000 110 000"
	if got := sexp.String(); got != wantExp {
		t.Errorf("Sexp = %s, want %s", got, wantExp)
	}

	// Expand composes all four steps.
	if got := Expand(s, 2).String(); got != wantExp {
		t.Errorf("Expand = %s, want %s", got, wantExp)
	}
}

// TestPaperS27UstartExample reproduces the §3.1 illustration: for
// T' = T0[9,9] = (1011) and n = 1, T'exp = (1011, 0100, 0111, 1000,
// 1000, 0111, 0100, 1011).
func TestPaperS27UstartExample(t *testing.T) {
	got := Expand(vectors.MustParseSequence("1011"), 1)
	want := vectors.MustParseSequence("1011 0100 0111 1000 1000 0111 0100 1011")
	if !got.Equal(want) {
		t.Errorf("T'exp = %s, want %s", got, want)
	}
}

func TestExpandedLength(t *testing.T) {
	for _, c := range []struct{ l, n, want int }{
		{1, 1, 8}, {2, 2, 32}, {5, 4, 160}, {0, 16, 0},
	} {
		if got := ExpandedLength(c.l, c.n); got != c.want {
			t.Errorf("ExpandedLength(%d,%d) = %d, want %d", c.l, c.n, got, c.want)
		}
	}
}

func TestExpandLengthProperty(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, l := range []int{1, 2, 3, 7} {
			s := vectors.RandomSequence(rng, 5, l)
			if got := Expand(s, n).Len(); got != 8*n*l {
				t.Errorf("len(Expand(len %d, n=%d)) = %d, want %d", l, n, got, 8*n*l)
			}
		}
	}
}

func TestExpandEmpty(t *testing.T) {
	if got := Expand(nil, 4); got.Len() != 0 {
		t.Errorf("Expand(empty) has length %d", got.Len())
	}
}

func TestRepeatPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Repeat(s, 0) did not panic")
		}
	}()
	Repeat(vectors.MustParseSequence("01"), 0)
}

func TestReverseInvolution(t *testing.T) {
	s := vectors.MustParseSequence("000 001 111")
	if got := Reverse(s); got.String() != "111 001 000" {
		t.Errorf("Reverse = %s", got)
	}
	if !Reverse(Reverse(s)).Equal(s) {
		t.Error("double reversal is not identity")
	}
}

func TestComplementInvolution(t *testing.T) {
	s := vectors.MustParseSequence("01X 110")
	if !Complement(Complement(s)).Equal(s) {
		t.Error("double complement is not identity")
	}
}

// TestStreamMatchesExpand is the keystone property: the streaming
// (hardware-shaped) generator must produce exactly the materialized
// expansion for random sequences and all paper repetition counts.
func TestStreamMatchesExpand(t *testing.T) {
	f := func(seed uint64, lRaw, wRaw, nRaw uint8) bool {
		l := int(lRaw%6) + 1
		w := int(wRaw%8) + 1
		ns := []int{1, 2, 4, 8, 16}
		n := ns[int(nRaw)%len(ns)]
		s := vectors.RandomSequence(xrand.New(seed), w, l)
		want := Expand(s, n)
		st := NewStream(s, n)
		if st.Len() != want.Len() {
			return false
		}
		for i := 0; i < want.Len(); i++ {
			if !st.At(i).Equal(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLocateMatchesCompose checks the streaming index arithmetic against
// the materialized expansion for every op subset, including the empty
// one (no expansion).
func TestLocateMatchesCompose(t *testing.T) {
	rng := xrand.New(5)
	for ops := Ops(0); ops <= AllOps; ops++ {
		for _, n := range []int{1, 2, 4} {
			for l := 1; l <= 5; l++ {
				s := vectors.RandomSequence(rng, 4, l)
				want := Compose(s, n, ops)
				if got := ops.Len(n) * l; got != want.Len() {
					t.Fatalf("ops %04b n=%d l=%d: Len %d, Compose %d", ops, n, l, got, want.Len())
				}
				for i := range want {
					j, comp, shift := ops.Locate(i, l, n)
					v := s[j]
					if comp {
						v = v.Complement()
					}
					if shift {
						v = v.ShiftLeftCircular()
					}
					if !v.Equal(want[i]) {
						t.Fatalf("ops %04b n=%d l=%d: Locate(%d) = (%d,%v,%v) gives %s, want %s",
							ops, n, l, i, j, comp, shift, v, want[i])
					}
				}
			}
		}
	}
}

func TestStreamNextAndReset(t *testing.T) {
	s := vectors.MustParseSequence("01 10")
	st := NewStream(s, 1)
	want := Expand(s, 1)
	var got vectors.Sequence
	for {
		v, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if !got.Equal(want) {
		t.Errorf("Next stream = %s, want %s", got, want)
	}
	st.Reset()
	v, ok := st.Next()
	if !ok || !v.Equal(want[0]) {
		t.Error("Reset did not rewind")
	}
}

func TestStreamAtBounds(t *testing.T) {
	st := NewStream(vectors.MustParseSequence("01"), 1)
	for _, i := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			st.At(i)
		}()
	}
}

// TestExpansionSegments verifies the segment structure directly: the first
// n*L vectors are S repeated; the next n*L are complements; the second
// quarter is the shifted copy of the first; the second half is the mirror
// of the first.
func TestExpansionSegments(t *testing.T) {
	rng := xrand.New(77)
	s := vectors.RandomSequence(rng, 6, 3)
	n := 4
	e := Expand(s, n)
	l := s.Len()
	nl := n * l
	for i := 0; i < nl; i++ {
		if !e[i].Equal(s[i%l]) {
			t.Fatalf("segment A at %d differs from S", i)
		}
		if !e[nl+i].Equal(s[i%l].Complement()) {
			t.Fatalf("segment B at %d is not complement", i)
		}
	}
	for i := 0; i < 2*nl; i++ {
		if !e[2*nl+i].Equal(e[i].ShiftLeftCircular()) {
			t.Fatalf("segment C at %d is not shifted A·B", i)
		}
	}
	total := 8 * nl
	for i := 0; i < total/2; i++ {
		if !e[total-1-i].Equal(e[i]) {
			t.Fatalf("mirror property fails at %d", i)
		}
	}
}

// TestExpansionPreservesWidth confirms all manipulations keep vector
// width, so the expanded sequence remains applicable to the circuit.
func TestExpansionPreservesWidth(t *testing.T) {
	s := vectors.RandomSequence(xrand.New(3), 9, 4)
	for _, v := range Expand(s, 2) {
		if len(v) != 9 {
			t.Fatalf("expanded vector has width %d", len(v))
		}
	}
}
