package fsim

// Cone-sharded group scheduler for the Engine.
//
// Groups are mutually independent once the fault-free value trace is
// known: each group owns its state words, the circuit, plans, and fault
// list are read-only, and the forcing masks and propagation stamps live
// in a per-shard scratch. Every Extend and Evaluate therefore computes
// the good-machine trace for the whole subsequence first, runs the live
// groups shard by shard, and merges the per-group detections back in
// one canonical order. Detection results — Detected, DetTime,
// NumDetected, and the order of newly reported faults — are bit-for-bit
// identical for every worker count; Workers 1 is simply the one-shard
// case, run on the caller's goroutine.
//
// Work is divided by static cone-aware shards rather than a dynamic
// work-stealing queue. Groups are packed in cone-locality order
// (packOrder), so consecutive groups share most of their active regions;
// netlist.ConePartition cuts that ordered list into contiguous,
// weight-balanced shards at the points of least region overlap. Each
// worker then owns a near-disjoint slice of the netlist: its scratch's
// per-signal words, stamps, and forcing masks keep touching the same
// cache lines from group to group instead of interleaving the whole
// netlist with every other worker. Shards are rebuilt only when enough
// groups die for the balance to drift (half the groups since the last
// build), so the steady state has no scheduling overhead beyond one
// goroutine launch for each shard but the caller's own.

import (
	"runtime"

	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// DefaultParallelism is the worker count Run uses for group sharding: one
// worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// earlyExitStride is the number of time units Run extends between checks
// of the all-detected early-exit condition. It scales with the circuit's
// sequential depth (memoized on the Circuit): a fault needs at least that
// many cycles to traverse the state registers to an observation point, so
// shallow circuits can afford frequent checks and exit as soon as
// coverage completes, while deep circuits use longer chunks that amortize
// trace construction and goroutine scheduling.
func earlyExitStride(c *netlist.Circuit) int {
	stride := 4 * (c.SequentialDepth() + 1)
	if stride < 8 {
		stride = 8
	}
	if stride > 256 {
		stride = 256
	}
	return stride
}

// liveGroups returns the indices of groups that still carry undetected
// faults. The returned slice is pooled on the Engine and valid until the
// next call.
func (e *Engine) liveGroups() []int {
	live := e.liveBuf[:0]
	for gi := range e.groups {
		if e.groups[gi].alive != 0 {
			live = append(live, gi)
		}
	}
	e.liveBuf = live
	return live
}

// ensureShards (re)builds the static cone-aware shards over the live
// groups. A shard is a contiguous run of the locality-ordered group list;
// netlist.ConePartition balances the region weights and places the cuts
// where adjacent regions overlap least. Shards are kept until half the
// groups they were built over have died, then rebuilt to restore balance.
func (e *Engine) ensureShards(live []int) {
	if e.shards != nil && len(live)*2 > e.shardLive {
		return
	}
	cones := e.conesBuf[:0]
	for _, gi := range live {
		cones = append(cones, e.groups[gi].plan.gates)
	}
	e.conesBuf = cones
	parts := netlist.ConePartition(cones, e.workers)
	shards := e.shards[:0]
	for _, part := range parts {
		var shard []int
		if len(shards) < len(e.shards) {
			shard = e.shards[len(shards)][:0]
		}
		for _, idx := range part {
			shard = append(shard, live[idx])
		}
		shards = append(shards, shard)
	}
	e.shards = shards
	e.shardLive = len(live)
}

// runShards simulates every live group through runGroup on the
// cone-aware shards, one private scratch per shard. The caller's
// goroutine runs the first shard itself and one goroutine starts per
// other shard (ConePartition returns only non-empty shards), so a lone
// shard — every call at Workers 1 — runs inline and starts none. Dead
// groups (detected since the shards were built) are skipped.
func (e *Engine) runShards(live []int, seq vectors.Sequence, goodVals [][]logic.Value, commit bool) {
	e.ensureShards(live)
	for len(e.workerScratch) < len(e.shards) {
		e.workerScratch = append(e.workerScratch, newScratch(e.c))
	}
	for w := 1; w < len(e.shards); w++ {
		e.wg.Add(1)
		go func(w int) {
			defer e.wg.Done()
			e.runShard(w, seq, goodVals, commit)
		}(w)
	}
	if len(e.shards) > 0 {
		e.runShard(0, seq, goodVals, commit)
	}
	e.wg.Wait()
}

// runShard runs the live groups of shard w in order on its scratch.
func (e *Engine) runShard(w int, seq vectors.Sequence, goodVals [][]logic.Value, commit bool) {
	sc := e.workerScratch[w]
	for _, gi := range e.shards[w] {
		if e.groups[gi].alive != 0 {
			e.runGroup(sc, gi, seq, goodVals, commit)
		}
	}
}
