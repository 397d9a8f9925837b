package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqbist/internal/service"
	"seqbist/internal/store"
)

// daemon-mixed runs two in-process daemons in cluster mode on one shared
// store.Disk directory, each behind its own loopback HTTP listener, and
// drives them with two closed-loop tenant clients: interactive single s27
// jobs on daemon a, and four-member sweeps streamed over NDJSON on
// daemon b.

const (
	pollEvery   = 2 * time.Millisecond // interactive status-poll cadence
	timedSweeps = 10                   // distinct sweeps timed for synth_s
	// leaseTTL is shorter than seqbistd's 10 s so the claim loop polls
	// every 100 ms instead of 500 ms: at 500 ms, whether 1% of interactive
	// jobs waited a whole poll for a peer's result flipped from run to run
	// and with it the latency tail.
	leaseTTL       = 2 * time.Second
	jobTimeout     = 30 * time.Second // a job or sweep stream slower than this fails
	interactiveKey = "key-interactive"
	batchKey       = "key-batch"
)

// The tenants file both daemons load, as seqbistd -tenants would. The
// quotas never bind for one closed-loop client each, but are checked.
const tenantsFile = `{"tenants": [
  {"name": "interactive", "key": "` + interactiveKey + `", "priority": 1, "max_queued_jobs": 64},
  {"name": "batch", "key": "` + batchKey + `", "priority": 0, "max_queued_jobs": 64, "max_active_sweeps": 4}
]}`

// sweepCircuits are the members of every batch sweep.
var sweepCircuits = []string{"s27", "s298", "s344", "s382"}

// sweepConfig is a batch sweep's shared config; the seed varies.
func sweepConfig(seed uint64) service.GenConfig {
	return service.GenConfig{N: 4, Seed: seed, ATPGMaxLen: 30, MaxOmissionTrials: 10, Strategy: "greedy"}
}

func interactiveSpec(seed uint64) service.JobSpec {
	return service.JobSpec{Circuit: "s27", Config: service.GenConfig{N: 4, Seed: seed, Strategy: "greedy"}}
}

// cluster is the two daemons of one daemon-mixed run.
type cluster struct {
	nodes []*node
	t     *tracer
}

type node struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error // Serve's return
	span int64      // parent of this node's store spans (traced runs)
}

// startCluster opens both daemons on a fresh data directory. With lt set
// (traced runs), their stores and HTTP handlers are wrapped in the
// layer timers.
func startCluster(dir string, lt *layerTimers, t *tracer) (*cluster, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tenantsPath := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenantsPath, []byte(tenantsFile), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Open(tenantsPath)
	if err != nil {
		return nil, err
	}
	tenants, err := service.ParseTenants(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	cl := &cluster{t: t}
	for _, id := range []string{"a", "b"} {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, "data"), Fsync: true, NodeID: id})
		if err != nil {
			cl.stop()
			return nil, err
		}
		n := &node{done: make(chan error, 1)}
		var s store.Store = st
		if lt != nil {
			n.span = t.begin("daemon."+id, 0)
			s = &timedStore{Store: st, lt: lt, t: t, parent: n.span}
		}
		n.svc = service.New(service.Config{
			Workers: 1, SimParallelism: 1, LeaseTTL: leaseTTL, Store: s, NodeID: id, Tenants: tenants,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.svc.Close()
			cl.stop()
			return nil, err
		}
		var h http.Handler = service.NewHandler(n.svc)
		if lt != nil {
			h = lt.middleware(h, t)
		}
		n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		n.url = "http://" + ln.Addr().String()
		go func() { n.done <- n.srv.Serve(ln) }()
		cl.nodes = append(cl.nodes, n)
	}
	return cl, nil
}

// stop shuts both daemons down and waits for their servers and workers.
func (cl *cluster) stop() {
	for _, n := range cl.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.srv.Shutdown(ctx) // on timeout Close below still tears the service down
		cancel()
		<-n.done
		n.svc.Close()
		cl.t.end(n.span)
	}
	cl.nodes = nil
}

// client is one closed-loop tenant client.
type client struct {
	base, key string
	http      *http.Client
	t         *tracer
}

// do sends one request and decodes a JSON response into out; any status
// outside 2xx is an error.
func (c *client) do(parent int64, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	id := c.t.begin("client."+method+" "+routeOf(method, path), parent)
	defer c.t.end(id)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body) // best effort: the body only decorates the error
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jobSample is one interactive job as the client saw it.
type jobSample struct {
	spec    service.JobSpec
	latency time.Duration
	status  service.Status
	hash    string
	err     error
}

// runInteractive submits single s27 jobs until the deadline, each with a
// fresh seed except every third, which repeats an earlier spec and so
// should be a cache hit. It polls a job's status every pollEvery until it
// is terminal, then fetches the result.
func (c *client) runInteractive(seed uint64, deadline time.Time) []jobSample {
	var out []jobSample
	var distinct []service.JobSpec
	for i := 0; time.Now().Before(deadline); i++ {
		s := jobSample{}
		if i%3 == 2 {
			s.spec = distinct[int(deriveSeed(seed, uint64(i))%uint64(len(distinct)))]
		} else {
			s.spec = interactiveSpec(deriveSeed(seed, 1000+uint64(i)))
			distinct = append(distinct, s.spec)
		}
		start := time.Now()
		id := c.t.begin("client.job", 0)
		s.status, s.hash, s.err = c.job(id, s.spec)
		c.t.end(id)
		s.latency = time.Since(start)
		if s.err == nil && s.status.StartedAt != nil && s.status.FinishedAt != nil {
			c.t.record("service.queue_wait", id, s.status.SubmittedAt, *s.status.StartedAt)
			c.t.record("service.run", id, *s.status.StartedAt, *s.status.FinishedAt)
		}
		out = append(out, s)
	}
	return out
}

func (c *client) job(parent int64, spec service.JobSpec) (service.Status, string, error) {
	var st service.Status
	if err := c.do(parent, "POST", "/v1/jobs", spec, &st); err != nil {
		return st, "", err
	}
	for !st.State.Terminal() {
		if time.Since(st.SubmittedAt) > jobTimeout {
			return st, "", fmt.Errorf("job %s still %s after %v", st.ID, st.State, jobTimeout)
		}
		time.Sleep(pollEvery)
		if err := c.do(parent, "GET", "/v1/jobs/"+st.ID, nil, &st); err != nil {
			return st, "", err
		}
	}
	if st.State != service.StateDone {
		return st, "", fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var res service.Result
	if err := c.do(parent, "GET", "/v1/jobs/"+st.ID+"/result", nil, &res); err != nil {
		return st, "", err
	}
	return st, resultHash(&res), nil
}

// sweepSample is one batch sweep as the client saw it.
type sweepSample struct {
	seed    uint64
	latency time.Duration
	hashes  []string // per member, from the done events
	err     error
}

// runBatch submits four-member sweeps until the deadline, each with a
// fresh seed except every third, which repeats an earlier sweep, and
// streams each sweep's events until its summary arrives.
func (c *client) runBatch(seed uint64, deadline time.Time) []sweepSample {
	var out []sweepSample
	var distinct []uint64
	for i := 0; time.Now().Before(deadline); i++ {
		s := sweepSample{}
		if i%3 == 2 {
			s.seed = distinct[int(deriveSeed(seed, uint64(i))%uint64(len(distinct)))]
		} else {
			s.seed = deriveSeed(seed, 2000+uint64(i))
			distinct = append(distinct, s.seed)
		}
		start := time.Now()
		id := c.t.begin("client.sweep", 0)
		s.hashes, s.err = c.sweep(id, s.seed)
		c.t.end(id)
		s.latency = time.Since(start)
		out = append(out, s)
	}
	return out
}

func (c *client) sweep(parent int64, seed uint64) ([]string, error) {
	spec := service.SweepSpec{Config: sweepConfig(seed)}
	for _, name := range sweepCircuits {
		spec.Circuits = append(spec.Circuits, service.CircuitRef{Circuit: name})
	}
	var st service.SweepStatus
	if err := c.do(parent, "POST", "/v1/sweeps", spec, &st); err != nil {
		return nil, err
	}
	req, err := http.NewRequest("GET", c.base+"/v1/sweeps/"+st.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	id := c.t.begin("client.GET events", parent)
	defer c.t.end(id)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: %d", st.ID, resp.StatusCode)
	}
	hashes := make([]string, len(sweepCircuits))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	for sc.Scan() {
		var ev service.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("events %s: %w", st.ID, err)
		}
		if m := ev.Member; m != nil && m.Result != nil && m.Index >= 0 && m.Index < len(hashes) {
			hashes[m.Index] = resultHash(m.Result)
		}
		if ev.Type == "sweep_done" {
			if ev.Summary == nil || ev.Summary.Done != len(sweepCircuits) {
				return nil, fmt.Errorf("sweep %s ended %s with summary %+v", st.ID, ev.State, ev.Summary)
			}
			return hashes, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("events stream ended before sweep_done")
}

// sweepMemberSpec is the job a sweep runs for member name.
func sweepMemberSpec(name string, seed uint64) service.JobSpec {
	return service.JobSpec{Circuit: name, Config: sweepConfig(seed)}
}

func runDaemonMixed(r *run) error {
	base := filepath.Join(workDir, "daemon", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(base)
	var lt *layerTimers
	if r.traced {
		lt = newLayerTimers()
	}
	// Set up setupRepeats times, each on a fresh directory, tearing the
	// previous cluster down outside the timed part.
	var cl *cluster
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.stop()
		}
		t := time.Now()
		var err error
		if cl, err = startCluster(filepath.Join(base, strconv.Itoa(i)), nil, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	setup := median(setups)
	var err error
	if lt != nil {
		// The traced run measures on a cluster with the layer timers
		// installed; its set-up is not reported.
		cl.stop()
		if cl, err = startCluster(filepath.Join(base, "traced"), lt, r.tracer); err != nil {
			return err
		}
	}
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()

	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: jobTimeout}
	inter := &client{base: cl.nodes[0].url, key: interactiveKey, http: hc, t: r.tracer}
	batch := &client{base: cl.nodes[1].url, key: batchKey, http: hc, t: r.tracer}
	before, err := clusterMetrics(hc, cl)
	if err != nil {
		return err
	}

	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(r.seconds)
	var jobs []jobSample
	var sweeps []sweepSample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); jobs = inter.runInteractive(r.seed, deadline) }()
	go func() { defer wg.Done(); sweeps = batch.runBatch(r.seed, deadline) }()
	wg.Wait()
	window := time.Since(start).Seconds()
	cpu := (cpuTime() - cpu0).Seconds()
	rss := peakRSSMiB()
	after, err := clusterMetrics(hc, cl)
	if err != nil {
		return err
	}
	cl.stop()
	cl = nil

	// Output checks: every distinct spec against a direct
	// service.Synthesize run, every repeat against its original.
	var jobMS, sweepMS []float64
	completed := 0
	got := make(map[string]string) // spec key -> first observed hash
	observe := func(key, hash, what string) {
		if prev, ok := got[key]; ok {
			r.check(prev == hash, "%s: result %s differs from earlier identical submission %s", what, hash, prev)
		} else {
			got[key] = hash
		}
	}
	for _, s := range jobs {
		r.check(s.err == nil, "interactive job: %v", s.err)
		if s.err != nil {
			continue
		}
		completed++
		jobMS = append(jobMS, float64(s.latency.Nanoseconds())/1e6)
		observe(specKey(s.spec), s.hash, "interactive s27 seed "+strconv.FormatUint(s.spec.Config.Seed, 10))
	}
	for _, s := range sweeps {
		r.check(s.err == nil, "batch sweep: %v", s.err)
		if s.err != nil {
			continue
		}
		completed += len(sweepCircuits)
		sweepMS = append(sweepMS, float64(s.latency.Nanoseconds())/1e6)
		for i, name := range sweepCircuits {
			observe(specKey(sweepMemberSpec(name, s.seed)), s.hashes[i], "sweep member "+name)
		}
	}
	verifyStart := time.Now()
	// Every distinct spec against direct synthesis. The first
	// timedSweeps distinct sweeps are synthesized one at a time, and
	// synth_s is the median over them of one sweep's four members
	// synthesized in turn; stored_vectors is the mean over all distinct
	// sweeps of the four members' total TotalLen. The rest are checked on
	// two goroutines.
	var units [][]service.JobSpec
	seen := make(map[string]bool)
	addUnit := func(specs ...service.JobSpec) {
		for _, spec := range specs {
			if _, ok := got[specKey(spec)]; !ok || seen[specKey(spec)] {
				return // failed above, or already queued
			}
		}
		for _, spec := range specs {
			seen[specKey(spec)] = true
		}
		units = append(units, specs)
	}
	for _, s := range sweeps {
		var specs []service.JobSpec
		for _, name := range sweepCircuits {
			specs = append(specs, sweepMemberSpec(name, s.seed))
		}
		addUnit(specs...)
	}
	timed := min(len(units), timedSweeps)
	for _, s := range jobs {
		addUnit(s.spec)
	}
	refs := append(verifyUnits(units[:timed], 1), verifyUnits(units[timed:], 2)...)
	var synth []float64
	stored, distinctSweeps := 0, 0
	for i, u := range units {
		total := 0
		for k, spec := range u {
			ref := refs[i].results[k]
			h := got[specKey(spec)]
			r.check(ref.err == nil && ref.hash == h, "%s seed %d: daemon result %s, direct synthesis %s %v",
				spec.Circuit, spec.Config.Seed, h, ref.hash, ref.err)
			total += ref.totalLen
		}
		if i < timed {
			synth = append(synth, refs[i].wall.Seconds())
		}
		if len(u) == len(sweepCircuits) {
			stored += total
			distinctSweeps++
		}
	}

	fmt.Printf("daemon-mixed seed %d: %d interactive jobs, %d sweeps in %.2fs; output checks took %.2fs\n",
		r.seed, len(jobs), len(sweeps), window, time.Since(verifyStart).Seconds())
	if r.traced {
		setLibraryLayers(r, nil)
		setDaemonLayers(r, &daemonLayers{lt: lt, jobs: jobs, completed: completed, window: window,
			jobP50: median(jobMS), before: before, after: after})
		r.tracer.printSelfTimes()
		return nil
	}
	jobTail, tailPct := tail(jobMS)
	fmt.Printf("interactive latency: n=%d p50 %.2fms p%.2f %.2fms; sweeps n=%d p50 %.2fms\n",
		len(jobMS), median(jobMS), tailPct, jobTail, len(sweepMS), median(sweepMS))
	r.set("setup_s", setup, "s")
	r.set("synth_s", median(synth), "s")
	r.set("cpu_s", cpu*1000/float64(max(completed, 1)), "s")
	r.set("peak_rss_mb", rss, "MiB")
	r.set("stored_vectors", float64(stored)/float64(max(distinctSweeps, 1)), "vectors")
	r.set("job_p50_ms", median(jobMS), "ms")
	r.set("job_tail_ms", jobTail, "ms")
	r.set("sweep_p50_ms", median(sweepMS), "ms")
	r.set("jobs_per_s", float64(completed)/window, "jobs/s")
	r.setOK()
	return nil
}

// reference is one direct synthesis of a spec the daemons ran.
type reference struct {
	hash     string
	totalLen int
	err      error
}

// unitResult is the direct synthesis of one unit of specs, in order.
type unitResult struct {
	results []reference
	wall    time.Duration
}

// verifyUnits synthesizes every unit's specs directly on the given number
// of goroutines, timing each unit.
func verifyUnits(units [][]service.JobSpec, workers int) []unitResult {
	out := make([]unitResult, len(units))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				for _, spec := range units[i] {
					var ref reference
					res, err := service.Synthesize(context.Background(), spec)
					if ref.err = err; err == nil {
						ref.hash, ref.totalLen = resultHash(res), res.TotalLen
					}
					out[i].results = append(out[i].results, ref)
				}
				out[i].wall = time.Since(start)
			}
		}()
	}
	for i := range units {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// specKey identifies a job spec for the repeat and reference checks.
func specKey(spec service.JobSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	return string(b)
}

// clusterMetrics sums the counters the per-layer split needs over both
// daemons' GET /metrics.
func clusterMetrics(hc *http.Client, cl *cluster) (metricsSum, error) {
	var m metricsSum
	for _, n := range cl.nodes {
		resp, err := hc.Get(n.url + "/metrics")
		if err != nil {
			return m, err
		}
		var snap service.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return m, fmt.Errorf("/metrics: %w", err)
		}
		m.cacheHits += snap.Cache.Hits
		m.cacheMisses += snap.Cache.Misses
		if snap.Cluster != nil {
			m.claimsWon += snap.Cluster.ClaimsWon
			m.claimsLost += snap.Cluster.ClaimsLost
		}
	}
	return m, nil
}

type metricsSum struct {
	cacheHits, cacheMisses, claimsWon, claimsLost int64
}
