package fsim

import (
	"fmt"
	"math"
	"math/bits"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// BatchLanes is the number of candidate sequences one Batch pass
// simulates: one per bit of a logic.Word.
const BatchLanes = 64

// Batch is the dual of Engine: one fault against up to 64 candidate
// sequences per pass. Lane q of every word carries the q-th candidate —
// its own input stream, its own length, its own fault-free and faulty
// machine — so one word-level evaluation of the netlist advances 64
// two-machine simulations at once. It exists for Procedure 2 of the
// paper, whose window scan and omission trials check one target fault
// against many expanded candidates; Single is the scalar oracle it is
// tested against.
//
// Each lane's stimulus is streamed from its stored sequence with the
// expansion's index arithmetic (expand.Ops.Locate), never materialized,
// so a pass costs no allocation. Both machines are evaluated densely.
// While no lane's faulty flip-flops differ from the fault-free ones and
// the fault site is inactive in every running lane, the faulty machine
// equals the fault-free one and is not evaluated at all. A Batch is not
// safe for concurrent use.
type Batch struct {
	c   *netlist.Circuit
	csr *netlist.CSR

	good, bad           []logic.Word // per signal, current time unit
	goodState, badState []logic.Word // per flip-flop
	detTime             [BatchLanes]int
}

// NewBatch returns a Batch simulator for c.
func NewBatch(c *netlist.Circuit) *Batch {
	return &Batch{
		c:         c,
		csr:       c.CSR(),
		good:      make([]logic.Word, c.NumSignals()),
		bad:       make([]logic.Word, c.NumSignals()),
		goodState: make([]logic.Word, c.NumDFFs()),
		badState:  make([]logic.Word, c.NumDFFs()),
	}
}

// FirstDetected is the early-stop predicate of a scan that wants the
// lowest detecting lane: it holds once some lane has detected and every
// lower lane has ended without detecting, so the lowest set bit of the
// detection mask can no longer change.
func FirstDetected(det, running uint64) bool {
	low := det & -det
	return det != 0 && running&(low-1) == 0
}

// Detects simulates fault f against the expansions Compose(seqs[q], n,
// ops), lane q per sequence, each from the all-unknown state, and
// returns the mask of lanes that detect f. A lane stops at its first
// detection or at the end of its expansion; the pass ends when every
// lane has stopped or, if stop is non-nil, as soon as stop(det,
// running) holds after a time unit, where det is the detection mask so
// far and running the mask of lanes still undecided. Lanes that had not
// stopped by then report no detection. DetTime reports the detection
// times of the last pass.
func (b *Batch) Detects(f faults.Fault, seqs []vectors.Sequence, n int, ops expand.Ops, stop func(det, running uint64) bool) uint64 {
	if len(seqs) > BatchLanes {
		panic(fmt.Sprintf("fsim: Batch.Detects with %d lanes, at most %d", len(seqs), BatchLanes))
	}
	c, csr := b.c, b.csr
	good, bad := b.good, b.bad
	inj := decode(c, f)
	stuck := logic.Broadcast(inj.stuck)
	// The gate whose evaluation the fault alters: the stem's driver or
	// the gate with the forced pin (bf).
	special := int(inj.seedGate)
	if special < 0 {
		special = len(csr.Out)
	}
	pin := [1]pinForce{{pin: inj.branchPin, m0: stuck.DefiniteZero(), m1: stuck.DefiniteOne()}}
	bf := pin[:0]
	if inj.branchGate >= 0 {
		bf = pin[:]
	}

	var lens [BatchLanes]int
	var live uint64 // lanes whose expansion has not ended
	for q, s := range seqs {
		lens[q] = ops.Len(n) * len(s)
		b.detTime[q] = Undetected
		if lens[q] > 0 {
			live |= 1 << q
		}
	}
	nextEnd := nextLaneEnd(&lens, live)
	for i := range b.goodState {
		b.goodState[i] = logic.AllX()
	}
	diverged := false
	var det uint64
	applied := 0

	for t := 0; live&^det != 0; t++ {
		running := live &^ det
		applied += bits.OnesCount64(running)
		b.loadInputs(seqs, running, t, n, ops)
		for i, ff := range c.DFFs {
			good[ff.Q] = b.goodState[i]
		}
		evalWords(csr, good, 0, len(csr.Out))

		site := good[f.Signal]
		active := ((site.CanZero ^ stuck.CanZero) | (site.CanOne ^ stuck.CanOne)) & running
		if !diverged && active == 0 {
			// Quiescent: the faulty machine is the fault-free machine.
			for i, ff := range c.DFFs {
				b.goodState[i] = good[ff.D]
			}
		} else {
			for _, pi := range c.PIs {
				bad[pi] = good[pi]
			}
			for i, ff := range c.DFFs {
				if diverged {
					bad[ff.Q] = b.badState[i]
				} else {
					bad[ff.Q] = b.goodState[i]
				}
			}
			if inj.stemSig >= 0 && c.Driver(inj.stemSig) < 0 {
				bad[inj.stemSig] = stuck
			}
			evalWords(csr, bad, 0, special)
			if special < len(csr.Out) {
				v := evalForced(bad, &c.Gates[special], bf)
				if netlist.SignalID(csr.Out[special]) == inj.stemSig {
					v = stuck
				}
				bad[csr.Out[special]] = v
				evalWords(csr, bad, special+1, len(csr.Out))
			}

			var d uint64
			for _, po := range c.POs {
				g, w := good[po], bad[po]
				d |= g.DefiniteZero()&w.DefiniteOne() | g.DefiniteOne()&w.DefiniteZero()
			}
			if d &= running; d != 0 {
				det |= d
				for r := d; r != 0; r &= r - 1 {
					b.detTime[bits.TrailingZeros64(r)] = t
				}
			}

			var div uint64
			for i, ff := range c.DFFs {
				g, w := good[ff.D], bad[ff.D]
				if int32(i) == inj.branchDFF {
					w = stuck
				}
				b.goodState[i], b.badState[i] = g, w
				div |= (g.CanZero ^ w.CanZero) | (g.CanOne ^ w.CanOne)
			}
			diverged = div&running&^det != 0
		}

		if t+1 == nextEnd {
			for r := live; r != 0; r &= r - 1 {
				if q := bits.TrailingZeros64(r); lens[q] == nextEnd {
					live &^= 1 << q
				}
			}
			nextEnd = nextLaneEnd(&lens, live)
		}
		if stop != nil && stop(det, live&^det) {
			break
		}
	}
	patternsApplied.Add(int64(applied))
	return det
}

// nextLaneEnd returns the shortest expansion length among the live
// lanes: the time unit after which the next lane ends.
func nextLaneEnd(lens *[BatchLanes]int, live uint64) int {
	end := math.MaxInt
	for r := live; r != 0; r &= r - 1 {
		end = min(end, lens[bits.TrailingZeros64(r)])
	}
	return end
}

// DetTime returns lane q's first detection time in the last Detects
// pass, or Undetected.
func (b *Batch) DetTime(q int) int { return b.detTime[q] }

// loadInputs packs time unit t of every running lane's expansion into
// the primary-input words; stopped lanes read as all-zero words, which
// no running lane can observe.
func (b *Batch) loadInputs(seqs []vectors.Sequence, running uint64, t, n int, ops expand.Ops) {
	pis := b.c.PIs
	for _, pi := range pis {
		b.good[pi] = logic.Word{}
	}
	m := len(pis)
	for r := running; r != 0; r &= r - 1 {
		q := bits.TrailingZeros64(r)
		s := seqs[q]
		j, complemented, shifted := ops.Locate(t, len(s), n)
		vec := s[j]
		zero, one := uint(0), uint(1)
		if complemented {
			zero, one = 1, 0
		}
		k := 0
		if shifted {
			k = 1
		}
		for _, pi := range pis {
			if k == m {
				k = 0
			}
			v := uint64(vec[k])
			k++
			w := &b.good[pi]
			w.CanZero |= (v >> zero & 1) << q
			w.CanOne |= (v >> one & 1) << q
		}
	}
}

// evalWords evaluates gates [lo, hi) of the levelized netlist over dense
// per-signal words.
func evalWords(csr *netlist.CSR, vals []logic.Word, lo, hi int) {
	for gi := lo; gi < hi; gi++ {
		ins := csr.In[csr.InOff[gi]:csr.InOff[gi+1]]
		v := vals[ins[0]]
		switch csr.Type[gi] {
		case netlist.Buf:
		case netlist.Not:
			v = v.Not()
		case netlist.And:
			for _, in := range ins[1:] {
				v = v.And(vals[in])
			}
		case netlist.Nand:
			for _, in := range ins[1:] {
				v = v.And(vals[in])
			}
			v = v.Not()
		case netlist.Or:
			for _, in := range ins[1:] {
				v = v.Or(vals[in])
			}
		case netlist.Nor:
			for _, in := range ins[1:] {
				v = v.Or(vals[in])
			}
			v = v.Not()
		case netlist.Xor:
			for _, in := range ins[1:] {
				v = v.Xor(vals[in])
			}
		case netlist.Xnor:
			for _, in := range ins[1:] {
				v = v.Xor(vals[in])
			}
			v = v.Not()
		}
		vals[csr.Out[gi]] = v
	}
}
