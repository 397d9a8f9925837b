package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"seqbist/internal/atpg"
	"seqbist/internal/bist"
	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/service"
	"seqbist/internal/strategy"
	"seqbist/internal/tcompact"
	"seqbist/internal/vectors"
)

// libLayers accumulates the library per-layer split over a batch.
type libLayers struct {
	atpg, tcompact, selectT, compactSet, verify, bist float64 // s
	prepare, result                                   float64 // s: load, fault list, T0 parse; result assembly
	t0Check, windowOnly, fullReplay                   float64 // s: Procedure 2 replays
	sims                                              int
	fsim                                              map[string]fsim.SimStats // by phase
	alloc                                             map[string]float64       // MiB by phase
	traced, untraced                                  float64                  // s: composed pipeline vs service.Synthesize
}

// traceLibrary is the traced run of a library workload. For every
// synthesis it runs service.Synthesize untimed by spans, then the same
// pipeline composed from the layers' public calls with a span around
// each, and requires both to produce the same result hash. It then
// replays Procedure 2 from outside — every FindSubsequence of the result,
// in order, once in full and once with omission disabled — and times the
// T0 detection check alone, which splits selection into the T0 check,
// the window scan, omission and the bulk simulations of Procedure 1.
func traceLibrary(r *run, jobs []libJob) error {
	L := libLayers{fsim: make(map[string]fsim.SimStats), alloc: make(map[string]float64)}
	root := r.tracer.begin("run", 0)
	for _, j := range jobs {
		jspan := r.tracer.begin("synthesis", root)
		ts := time.Now()
		ref, err := service.Synthesize(context.Background(), j.spec)
		L.untraced += time.Since(ts).Seconds()
		r.check(err == nil, "%s: synthesize: %v", j.key, err)
		if err != nil {
			r.tracer.end(jspan)
			continue
		}
		r.checkResult(j, ref, resultHash(ref))

		ts = time.Now()
		res, comp, err := composedPipeline(r.tracer, jspan, j.spec, &L)
		L.traced += time.Since(ts).Seconds()
		r.tracer.end(jspan)
		if err != nil {
			return fmt.Errorf("%s: composed pipeline: %w", j.key, err)
		}
		r.check(resultHash(res) == resultHash(ref), "%s: composed pipeline result %s differs from service.Synthesize %s",
			j.key, resultHash(res), resultHash(ref))
		if err := replayProc2(r, comp, &L); err != nil {
			return err
		}
	}
	r.tracer.end(root)

	overhead := L.traced - L.untraced
	r.check(math.Abs(L.gap()) <= math.Max(math.Abs(overhead), 0.02*L.traced),
		"layer spans leave %.3fs of the traced pipeline (%.3fs) uncovered, more than the tracing overhead %.3fs",
		L.gap(), L.traced, overhead)
	setLibraryLayers(r, &L)
	setDaemonLayers(r, nil)
	r.tracer.printSelfTimes()
	return nil
}

// gap is the traced pipeline time no layer span covers.
func (L *libLayers) gap() float64 {
	return L.traced - (L.prepare + L.atpg + L.tcompact + L.selectT + L.compactSet + L.verify + L.bist + L.result)
}

// setLibraryLayers reports the library per-layer metrics; a nil L
// (daemon-mixed, whose syntheses run inside the daemons) reports them as
// 0.
func setLibraryLayers(r *run, L *libLayers) {
	if L == nil {
		L = &libLayers{}
	}
	sel := L.selectT
	r.set("atpg.generate_s", L.atpg, "s")
	r.set("tcompact.compact_s", L.tcompact, "s")
	r.set("core.select_s", sel, "s")
	r.set("core.t0_check_s", L.t0Check, "s")
	r.set("core.window_scan_s", L.windowOnly-L.t0Check, "s")
	r.set("core.omission_s", L.fullReplay-L.windowOnly, "s")
	r.set("core.bulk_sim_s", sel-L.fullReplay, "s")
	r.set("core.compact_set_s", L.compactSet, "s")
	r.set("core.verify_s", L.verify, "s")
	r.set("bist.golden_s", L.bist, "s")
	r.set("core.sims", float64(L.sims), "count")
	simsPerS := 0.0
	if L.fullReplay > 0 {
		simsPerS = float64(L.sims) / L.fullReplay
	}
	r.set("core.sims_per_s", simsPerS, "1/s")
	for _, ph := range []string{"atpg", "select", "verify"} {
		st := L.fsim[ph]
		ratio := 0.0
		if tot := st.GatesEvaluated + st.GatesSkipped; tot > 0 {
			ratio = float64(st.GatesEvaluated) / float64(tot)
		}
		r.set("fsim."+ph+".gates_evaluated", float64(st.GatesEvaluated), "count")
		r.set("fsim."+ph+".active_ratio", ratio, "ratio")
		r.set("fsim."+ph+".groups_escalated", float64(st.GroupsEscalated), "count")
	}
	for _, ph := range []string{"atpg", "select", "compact_set", "verify"} {
		r.set(ph+".alloc_mb", L.alloc[ph], "MiB")
	}
	r.set("trace.synth_s", L.traced, "s")
	r.set("trace.untraced_synth_s", L.untraced, "s")
	r.set("trace.overhead_s", L.traced-L.untraced, "s")
	r.set("trace.parts_gap_s", L.gap(), "s")
}

// composed is what the Procedure 2 replay needs from a composed run.
type composed struct {
	name string
	c    *netlist.Circuit
	fl   []faults.Fault
	t0   vectors.Sequence
	cfg  core.Config
	res  *core.Result
}

// phase runs f inside a span, adding its wall time to *acc and, when
// stats is set, the change in fsim counters and allocation under that
// phase name.
func phase(t *tracer, parent int64, name, stat string, L *libLayers, acc *float64, f func() error) error {
	var st0 fsim.SimStats
	var a0 float64
	if stat != "" {
		st0, a0 = fsim.Stats(), allocMB()
	}
	id := t.begin(name, parent)
	ts := time.Now()
	err := f()
	*acc += time.Since(ts).Seconds()
	t.end(id)
	if stat != "" {
		st1 := fsim.Stats()
		d := L.fsim[stat]
		d.GatesEvaluated += st1.GatesEvaluated - st0.GatesEvaluated
		d.GatesSkipped += st1.GatesSkipped - st0.GatesSkipped
		d.GroupsEscalated += st1.GroupsEscalated - st0.GroupsEscalated
		L.fsim[stat] = d
		L.alloc[stat] += allocMB() - a0
	}
	return err
}

// composedPipeline is service.Synthesize's pipeline rebuilt from the
// layers' public calls, one span per call.
func composedPipeline(t *tracer, parent int64, spec service.JobSpec, L *libLayers) (*service.Result, *composed, error) {
	cfg := spec.Config
	ctx := context.Background()
	cp := &composed{name: fmt.Sprintf("%s@%d", spec.Circuit, cfg.Seed)}
	err := phase(t, parent, "pipeline.prepare", "", L, &L.prepare, func() error {
		var err error
		if cp.c, err = iscas.Load(spec.Circuit); err != nil {
			return err
		}
		cp.fl = faults.CollapsedUniverse(cp.c)
		cp.t0, err = parseT0(spec)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	c, fl := cp.c, cp.fl
	rawT0Len := cp.t0.Len()
	if cp.t0 == nil {
		var raw vectors.Sequence
		err := phase(t, parent, "atpg.Generate", "atpg", L, &L.atpg, func() error {
			gen, err := atpg.Generate(c, fl, atpg.Config{Seed: cfg.Seed, MaxLen: cfg.ATPGMaxLen})
			if err == nil {
				raw = gen.Seq
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		rawT0Len = raw.Len()
		_ = phase(t, parent, "tcompact.Compact", "atpg", L, &L.tcompact, func() error {
			cp.t0, _ = tcompact.Compact(c, fl, raw)
			return nil
		})
	}
	cp.cfg = core.Config{
		N: cfg.N, Seed: cfg.Seed, OmissionRestart: true, MaxOmissionTrials: cfg.MaxOmissionTrials,
		Parallelism: cfg.Parallelism, Lanes: cfg.Lanes, Interrupt: func() bool { return ctx.Err() != nil },
	}
	strat, err := strategy.Get(cfg.Strategy)
	if err != nil {
		return nil, nil, err
	}
	var out *strategy.Outcome
	err = phase(t, parent, "strategy.Select", "select", L, &L.selectT, func() error {
		var err error
		out, err = strat.Select(c, fl, cp.t0, strategy.Config{Core: cp.cfg, SkipCompact: cfg.SkipCompact})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	cp.res = out.Result
	set := cp.res.Set
	_ = phase(t, parent, "core.CompactSet", "compact_set", L, &L.compactSet, func() error {
		set, _ = core.CompactSet(c, fl, cp.res, cp.cfg)
		return nil
	})
	err = phase(t, parent, "core.VerifyCoverage", "verify", L, &L.verify, func() error {
		if missed := core.VerifyCoverage(c, fl, cp.res, set, cp.cfg); len(missed) != 0 {
			return fmt.Errorf("%d faults lost by selection", len(missed))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stored := make([]vectors.Sequence, len(set))
	for i, s := range set {
		stored[i] = s.Seq
	}
	var sess *bist.Session
	err = phase(t, parent, "bist.Session.RunGolden", "", L, &L.bist, func() error {
		var err error
		if sess, err = bist.NewSession(c, stored, cfg.N); err != nil {
			return err
		}
		return sess.RunGolden()
	})
	if err != nil {
		return nil, nil, err
	}
	var res *service.Result
	_ = phase(t, parent, "pipeline.result", "", L, &L.result, func() error {
		res = buildResult(c, fl, cfg, rawT0Len, cp.t0, cp.res, set, sess, out)
		return nil
	})
	return res, cp, nil
}

// buildResult assembles the service's Result from the pipeline's parts,
// field for field as the service does.
func buildResult(c *netlist.Circuit, fl []faults.Fault, cfg service.GenConfig, rawT0Len int, t0 vectors.Sequence,
	res *core.Result, set []core.Selected, sess *bist.Session, out *strategy.Outcome) *service.Result {
	stored := make([]vectors.Sequence, len(set))
	for i, s := range set {
		stored[i] = s.Seq
	}
	st := core.StatsOf(set)
	r := &service.Result{
		Circuit: c.Name, N: cfg.N, NumFaults: len(fl), DetectedByT0: res.NumTargets,
		RawT0Len: rawT0Len, T0Len: t0.Len(),
		NumSequences: st.NumSequences, TotalLen: st.TotalLen, MaxLen: st.MaxLen,
		LoadCycles: sess.LoadCycles(), AtSpeedCycles: sess.AtSpeedCycles(), MemoryBits: sess.MemoryBits(),
		HardwareCost:   bist.CostOf(c.NumPIs(), cfg.N, stored).String(),
		Sims:           res.Sims,
		Strategy:       out.Winner,
		StrategyTrials: out.Trials,
	}
	if len(fl) > 0 {
		r.Coverage = float64(res.NumTargets) / float64(len(fl))
	}
	golden := sess.GoldenSignatures()
	for i, s := range set {
		vecs := make([]string, s.Seq.Len())
		for k, v := range s.Seq {
			vecs[k] = v.String()
		}
		r.Sequences = append(r.Sequences, service.StoredSequence{
			Vectors: vecs, Len: s.Seq.Len(), Window: [2]int{s.UStart, s.UDet},
			TargetFault: fl[s.TargetFault].Name(c), GoldenMISR: fmt.Sprintf("%016x", golden[i]),
		})
	}
	return r
}

// replayProc2 re-runs Procedure 2 for every selected target of a composed
// run, in selection order, on fresh Selectors with the run's config. The
// omission random stream is consumed only by Procedure 2, so the full
// replay must reproduce every subsequence, ustart and the Sims count
// exactly; the window-only replay (omission disabled) and the bare T0
// checks then split its time.
func replayProc2(r *run, cp *composed, L *libLayers) error {
	full, err := core.NewSelector(cp.c, cp.fl, cp.t0, cp.cfg)
	if err != nil {
		return err
	}
	ts := time.Now()
	id := r.tracer.begin("replay.FindSubsequence", 0)
	ok := true
	for _, s := range cp.res.Set {
		seq, ustart, err := full.FindSubsequence(s.TargetFault)
		if err != nil {
			return fmt.Errorf("%s: replay: %w", cp.name, err)
		}
		ok = ok && ustart == s.UStart && seq.String() == s.Seq.String()
	}
	r.tracer.end(id)
	L.fullReplay += time.Since(ts).Seconds()
	r.check(ok && full.Sims() == cp.res.Sims, "%s: Procedure 2 replay did not reproduce Result.Set (match %v) and Sims (%d vs %d)",
		cp.name, ok, full.Sims(), cp.res.Sims)
	L.sims += full.Sims()

	wcfg := cp.cfg
	wcfg.DisableOmission = true
	window, err := core.NewSelector(cp.c, cp.fl, cp.t0, wcfg)
	if err != nil {
		return err
	}
	ts = time.Now()
	id = r.tracer.begin("replay.window_scan", 0)
	for _, s := range cp.res.Set {
		if _, ustart, err := window.FindSubsequence(s.TargetFault); err != nil || ustart != s.UStart {
			return fmt.Errorf("%s: window replay: ustart %d, want %d (%v)", cp.name, ustart, s.UStart, err)
		}
	}
	r.tracer.end(id)
	L.windowOnly += time.Since(ts).Seconds()

	single := fsim.NewSingle(cp.c)
	ts = time.Now()
	id = r.tracer.begin("replay.t0_check", 0)
	for _, s := range cp.res.Set {
		single.Detects(cp.fl[s.TargetFault], cp.t0)
	}
	r.tracer.end(id)
	L.t0Check += time.Since(ts).Seconds()
	return nil
}
