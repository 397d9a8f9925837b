// Package expand implements the paper's §2 sequence manipulations and the
// composite expansion function that turns a stored subsequence S into the
// applied test sequence Sexp.
//
// The operations mirror hardware that is trivially cheap on-chip:
//
//   - Repetition (S^n): a counter incremented each time the memory address
//     counter wraps;
//   - Complementation (comp S): inverters plus a multiplexer on each
//     memory output;
//   - Shifting (S << 1): a multiplexer on each memory output selecting
//     output (i+1) mod m, i.e. a per-vector circular left shift;
//   - Reversal (r S): running the up/down memory address counter down.
//
// The composite expansion is
//
//	A  = S^n
//	B  = comp(A)
//	C  = (A·B) << 1
//	S''' = A·B·C
//	Sexp = S'''·r(S''')
//
// giving |Sexp| = 8·n·|S|. Expand materializes Sexp; Stream produces the
// same vectors one at a time in O(|S|) memory, exactly as the on-chip
// controller does (package bist builds on it).
package expand

import (
	"fmt"

	"seqbist/internal/vectors"
)

// Repeat returns s concatenated with itself n times (the paper's S^n).
// n must be >= 1.
func Repeat(s vectors.Sequence, n int) vectors.Sequence {
	if n < 1 {
		panic(fmt.Sprintf("expand: Repeat with n=%d", n))
	}
	out := make(vectors.Sequence, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return out
}

// Complement returns the sequence whose every vector is the complement of
// the corresponding vector of s.
func Complement(s vectors.Sequence) vectors.Sequence {
	out := make(vectors.Sequence, len(s))
	for i, v := range s {
		out[i] = v.Complement()
	}
	return out
}

// ShiftLeftCircular returns the sequence whose every vector is the
// circular left shift of the corresponding vector of s.
func ShiftLeftCircular(s vectors.Sequence) vectors.Sequence {
	out := make(vectors.Sequence, len(s))
	for i, v := range s {
		out[i] = v.ShiftLeftCircular()
	}
	return out
}

// Reverse returns the vectors of s in reverse order (the paper's rS).
func Reverse(s vectors.Sequence) vectors.Sequence {
	out := make(vectors.Sequence, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// ExpandedLength returns |Sexp| for a stored sequence of length l and
// repetition count n: 8*n*l.
func ExpandedLength(l, n int) int { return 8 * n * l }

// Expand returns the full expanded sequence Sexp for stored sequence s and
// repetition count n. The vectors of the result share storage with s (the
// manipulations allocate new vectors only where values change).
func Expand(s vectors.Sequence, n int) vectors.Sequence {
	return Compose(s, n, AllOps)
}

// Ops selects which §2 manipulations the composite expansion applies; the
// paper's Sexp uses all four. Subsets exist for the ablation study of the
// individual manipulations ("We define a set of functions that can be
// applied to test sequences ... to obtain longer sequences with higher
// fault coverages").
type Ops uint8

// Expansion stages, applied in the paper's order.
const (
	// OpRepeat applies S -> S^n (without it the repetition count is
	// effectively 1).
	OpRepeat Ops = 1 << iota
	// OpComplement appends the complemented copy: X -> X·comp(X).
	OpComplement
	// OpShift appends the circular-shifted copy: X -> X·(X<<1).
	OpShift
	// OpReverse appends the reversal: X -> X·r(X).
	OpReverse

	// AllOps is the paper's full expansion.
	AllOps = OpRepeat | OpComplement | OpShift | OpReverse
)

// Len returns the expansion factor of the op set: |Compose(S,n,ops)| =
// Len(ops,n) * |S|.
func (o Ops) Len(n int) int {
	f := 1
	if o&OpRepeat != 0 {
		f = n
	}
	for _, stage := range []Ops{OpComplement, OpShift, OpReverse} {
		if o&stage != 0 {
			f *= 2
		}
	}
	return f
}

// Compose applies the selected expansion stages in the paper's order.
// Compose(s, n, AllOps) == Expand(s, n); every subset still begins with s
// itself, so a window that detects a fault unexpanded keeps detecting it
// (the termination guarantee of Procedure 2 holds for any op set).
func Compose(s vectors.Sequence, n int, ops Ops) vectors.Sequence {
	if len(s) == 0 {
		return nil
	}
	x := s
	if ops&OpRepeat != 0 {
		x = Repeat(s, n)
	}
	if ops&OpComplement != 0 {
		x = x.Concat(Complement(x))
	}
	if ops&OpShift != 0 {
		x = x.Concat(ShiftLeftCircular(x))
	}
	if ops&OpReverse != 0 {
		x = x.Concat(Reverse(x))
	}
	return x
}

// Stream generates the vectors of Sexp one at a time without materializing
// the expansion, mirroring the on-chip address-counter/multiplexer
// hardware. It is also the random-access form: At(i) returns vector i of
// Sexp in O(width) time.
type Stream struct {
	s   vectors.Sequence
	n   int
	pos int
}

// NewStream returns a Stream over the expansion of s with repetition
// count n.
func NewStream(s vectors.Sequence, n int) *Stream {
	if n < 1 {
		panic(fmt.Sprintf("expand: NewStream with n=%d", n))
	}
	return &Stream{s: s, n: n}
}

// Len returns the total number of vectors the stream produces.
func (st *Stream) Len() int { return ExpandedLength(len(st.s), st.n) }

// At returns vector i of Sexp. The returned vector is freshly allocated
// when a manipulation applies; it must not be assumed to alias the stored
// sequence.
func (st *Stream) At(i int) vectors.Vector {
	if total := st.Len(); i < 0 || i >= total {
		panic(fmt.Sprintf("expand: At(%d) out of range [0,%d)", i, total))
	}
	j, complemented, shifted := AllOps.Locate(i, len(st.s), st.n)
	v := st.s[j]
	if complemented {
		v = v.Complement()
	}
	if shifted {
		v = v.ShiftLeftCircular()
	}
	return v
}

// Locate maps time unit i of Compose(s, n, o), for a stored sequence s
// of length l, back to its source: vector j of s, complemented and/or
// circularly shifted. It is the address-counter arithmetic of the
// on-chip controller, so expansions can be streamed without being
// materialized. i must lie in [0, o.Len(n)*l).
func (o Ops) Locate(i, l, n int) (j int, complemented, shifted bool) {
	size := o.Len(n) * l
	if o&OpReverse != 0 {
		if size /= 2; i >= size {
			i = 2*size - 1 - i
		}
	}
	if o&OpShift != 0 {
		if size /= 2; i >= size {
			i -= size
			shifted = true
		}
	}
	if o&OpComplement != 0 {
		if size /= 2; i >= size {
			i -= size
			complemented = true
		}
	}
	return i % l, complemented, shifted
}

// Next returns the next vector and false when the stream is exhausted.
func (st *Stream) Next() (vectors.Vector, bool) {
	if st.pos >= st.Len() {
		return nil, false
	}
	v := st.At(st.pos)
	st.pos++
	return v, true
}

// Reset rewinds the stream to the beginning.
func (st *Stream) Reset() { st.pos = 0 }
