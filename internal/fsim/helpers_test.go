package fsim

import (
	"testing"

	"seqbist/internal/bench"
	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/sim"
	"seqbist/internal/vectors"
)

func mustParse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(src, "test")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// simGoodPOs returns the fault-free PO values per time unit.
func simGoodPOs(c *netlist.Circuit, seq vectors.Sequence) [][]logic.Value {
	s := sim.New(c)
	tr := s.Run(seq)
	return tr.POs
}

// newFullReference returns an engine on the flat full-netlist reference
// path (fullpath.go): every gate of every group at every time unit.
func newFullReference(c *netlist.Circuit, fl []faults.Fault, workers int) *Engine {
	e := New(c, fl, Options{Workers: workers})
	e.fullEval = true
	return e
}
