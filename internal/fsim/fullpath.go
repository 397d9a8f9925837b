package fsim

// The flat full-netlist evaluation path, kept verbatim from the pre-cone
// engine: every gate of the circuit is evaluated for every group at
// every time unit, with dense per-group state words and per-signal
// forcing-mask probes. It serves two roles: the differential-testing
// reference (Engine.fullEval, set only by the package's tests — the
// active-region engine must produce bit-for-bit identical results), and the escalation target the
// activity heuristic falls back to for persistently hot whole-netlist
// groups, where the cone restriction's bookkeeping costs more than it
// saves (fsim.go, noteActivity).

import (
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// stepGroupFull evaluates one time unit for group g over the entire
// netlist using sc's scratch words and the given dense flip-flop state
// words (updated in place), and returns the mask of lanes detected at a
// primary output this cycle. Forcing plans must already be loaded into
// sc. This is the pre-change engine, byte for byte except that the
// fault-free values arrive as a precomputed snapshot.
func (e *Engine) stepGroupFull(sc *scratch, g *group, vec vectors.Vector, goodVals []logic.Value, state []logic.Word) uint64 {
	c := e.c
	words := sc.words
	for i, pi := range c.PIs {
		w := logic.Broadcast(vec[i])
		if m0, m1 := sc.stem0[pi], sc.stem1[pi]; m0|m1 != 0 {
			w = forceWord(w, m0, m1)
		}
		words[pi] = w
	}
	for i, ff := range c.DFFs {
		w := state[i]
		if m0, m1 := sc.stem0[ff.Q], sc.stem1[ff.Q]; m0|m1 != 0 {
			w = forceWord(w, m0, m1)
		}
		words[ff.Q] = w
	}
	for gi := range c.Gates {
		gate := &c.Gates[gi]
		var v logic.Word
		if bf := sc.branchAt[gi]; len(bf) != 0 {
			v = evalForced(words, gate, bf)
		} else {
			v = words[gate.In[0]]
			switch gate.Type {
			case netlist.Buf:
			case netlist.Not:
				v = v.Not()
			case netlist.And:
				for _, in := range gate.In[1:] {
					v = v.And(words[in])
				}
			case netlist.Nand:
				for _, in := range gate.In[1:] {
					v = v.And(words[in])
				}
				v = v.Not()
			case netlist.Or:
				for _, in := range gate.In[1:] {
					v = v.Or(words[in])
				}
			case netlist.Nor:
				for _, in := range gate.In[1:] {
					v = v.Or(words[in])
				}
				v = v.Not()
			case netlist.Xor:
				for _, in := range gate.In[1:] {
					v = v.Xor(words[in])
				}
			case netlist.Xnor:
				for _, in := range gate.In[1:] {
					v = v.Xor(words[in])
				}
				v = v.Not()
			}
		}
		if m0, m1 := sc.stem0[gate.Out], sc.stem1[gate.Out]; m0|m1 != 0 {
			v = forceWord(v, m0, m1)
		}
		words[gate.Out] = v
	}
	sc.evaluated += int64(len(c.Gates))
	// Detection at primary outputs.
	var det uint64
	for _, po := range c.POs {
		switch goodVals[po] {
		case logic.Zero:
			det |= words[po].DefiniteOne()
		case logic.One:
			det |= words[po].DefiniteZero()
		}
	}
	// Capture next state.
	for i, ff := range c.DFFs {
		w := words[ff.D]
		if m0, m1 := sc.dff0[i], sc.dff1[i]; m0|m1 != 0 {
			w = forceWord(w, m0, m1)
		}
		state[i] = w
	}
	return det & g.alive
}

// evalForced evaluates a gate whose input pins carry branch-forced lanes
// over dense per-signal words (the full-path companion of
// evalForcedLazy).
func evalForced(words []logic.Word, gate *netlist.Gate, bf []pinForce) logic.Word {
	in := func(pin int) logic.Word {
		w := words[gate.In[pin]]
		for i := range bf {
			if int(bf[i].pin) == pin {
				w = forceWord(w, bf[i].m0, bf[i].m1)
			}
		}
		return w
	}
	v := in(0)
	switch gate.Type {
	case netlist.Buf:
	case netlist.Not:
		v = v.Not()
	case netlist.And, netlist.Nand:
		for p := 1; p < len(gate.In); p++ {
			v = v.And(in(p))
		}
		if gate.Type == netlist.Nand {
			v = v.Not()
		}
	case netlist.Or, netlist.Nor:
		for p := 1; p < len(gate.In); p++ {
			v = v.Or(in(p))
		}
		if gate.Type == netlist.Nor {
			v = v.Not()
		}
	case netlist.Xor, netlist.Xnor:
		for p := 1; p < len(gate.In); p++ {
			v = v.Xor(in(p))
		}
		if gate.Type == netlist.Xnor {
			v = v.Not()
		}
	}
	return v
}
