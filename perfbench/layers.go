package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqbist/internal/store"
)

// The daemon layers are timed from outside the program: a store.Store
// decorator passed as service.Config.Store, and an http.Handler middleware
// around service.NewHandler. Both are installed only in traced runs.

// spanHeader carries the client's request span to the server middleware,
// so server spans nest under the client call that caused them.
const spanHeader = "X-Perfbench-Span"

// storeMethods are the timed store.Store methods.
var storeMethods = []string{"PutJob", "PutResult", "AppendEvent", "PutSweep", "ClaimJob", "RenewLease", "Changes", "Heartbeat"}

// httpRoutes are the timed API routes; "events" is the whole NDJSON
// stream of a sweep.
var httpRoutes = []string{"post_jobs", "get_job", "get_result", "post_sweeps", "events"}

// layerTimers collects duration samples per layer key.
type layerTimers struct {
	mu      sync.Mutex
	samples map[string][]float64 // ms
}

func newLayerTimers() *layerTimers { return &layerTimers{samples: make(map[string][]float64)} }

func (lt *layerTimers) add(key string, d time.Duration) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.samples[key] = append(lt.samples[key], float64(d.Nanoseconds())/1e6)
}

func (lt *layerTimers) get(key string) []float64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return append([]float64(nil), lt.samples[key]...)
}

// routeOf names the API route of a request.
func routeOf(method, path string) string {
	p := strings.TrimPrefix(path, "/v1")
	switch {
	case method == "POST" && p == "/jobs":
		return "post_jobs"
	case method == "GET" && strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/result"):
		return "get_result"
	case method == "GET" && strings.HasPrefix(p, "/jobs/"):
		return "get_job"
	case method == "POST" && p == "/sweeps":
		return "post_sweeps"
	case method == "GET" && strings.HasPrefix(p, "/sweeps/") && strings.HasSuffix(p, "/events"):
		return "events"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

// middleware times every request server-side, by route.
func (lt *layerTimers) middleware(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.Method, r.URL.Path)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent: a root span
		id := t.begin("http."+route, parent)
		start := time.Now()
		h.ServeHTTP(w, r)
		lt.add("http."+route, time.Since(start))
		t.end(id)
	})
}

// timedStore times the store methods the service calls per job.
type timedStore struct {
	store.Store
	lt     *layerTimers
	t      *tracer
	parent int64
}

func (s *timedStore) time(method string) func() {
	id := s.t.begin("store."+method, s.parent)
	start := time.Now()
	return func() {
		s.lt.add("store."+method, time.Since(start))
		s.t.end(id)
	}
}

func (s *timedStore) PutJob(rec store.JobRecord) error {
	defer s.time("PutJob")()
	return s.Store.PutJob(rec)
}

func (s *timedStore) PutResult(key string, data []byte) error {
	defer s.time("PutResult")()
	return s.Store.PutResult(key, data)
}

func (s *timedStore) AppendEvent(ev store.EventRecord) error {
	defer s.time("AppendEvent")()
	return s.Store.AppendEvent(ev)
}

func (s *timedStore) PutSweep(rec store.SweepRecord) error {
	defer s.time("PutSweep")()
	return s.Store.PutSweep(rec)
}

func (s *timedStore) ClaimJob(jobID, nodeID string, ttl time.Duration) (bool, error) {
	defer s.time("ClaimJob")()
	return s.Store.ClaimJob(jobID, nodeID, ttl)
}

func (s *timedStore) RenewLease(jobID, nodeID string, ttl time.Duration) (bool, error) {
	defer s.time("RenewLease")()
	return s.Store.RenewLease(jobID, nodeID, ttl)
}

func (s *timedStore) Changes(cursor uint64) (*store.Delta, uint64, error) {
	defer s.time("Changes")()
	return s.Store.Changes(cursor)
}

func (s *timedStore) Heartbeat(rec store.NodeRecord) error {
	defer s.time("Heartbeat")()
	return s.Store.Heartbeat(rec)
}

// daemonLayers is what a traced daemon-mixed run hands to the per-layer
// report.
type daemonLayers struct {
	lt        *layerTimers
	jobs      []jobSample
	completed int
	window    float64 // s
	jobP50    float64 // ms
	before    metricsSum
	after     metricsSum
}

// setDaemonLayers reports the daemon per-layer metrics; a nil d (the
// library workloads, which run no daemon) reports them as 0.
func setDaemonLayers(r *run, d *daemonLayers) {
	ms := func(name string, xs []float64) {
		t, _ := tail(xs)
		r.set(name+"_p50_ms", median(xs), "ms")
		r.set(name+"_tail_ms", t, "ms")
	}
	var get func(string) []float64
	var queue, runT []float64
	jobs := 1
	if d != nil {
		get = d.lt.get
		jobs = max(d.completed, 1)
		for _, s := range d.jobs {
			if s.err == nil && s.status.StartedAt != nil && s.status.FinishedAt != nil {
				queue = append(queue, float64(s.status.StartedAt.Sub(s.status.SubmittedAt).Nanoseconds())/1e6)
				runT = append(runT, float64(s.status.FinishedAt.Sub(*s.status.StartedAt).Nanoseconds())/1e6)
			}
		}
	} else {
		get = func(string) []float64 { return nil }
	}
	requests := 0
	for _, route := range httpRoutes {
		xs := get("http." + route)
		requests += len(xs)
		ms("http."+route, xs)
	}
	ms("service.queue_wait", queue)
	ms("service.run", runT)
	for _, m := range storeMethods {
		xs := get("store." + m)
		ms("store."+m, xs)
		per := 0.0
		if d != nil {
			per = float64(len(xs)) / float64(jobs)
		}
		r.set("store."+m+"_per_job", per, "count")
	}
	hitRatio, winRatio, reqPerJob, jobP50, jobsPerS := 0.0, 0.0, 0.0, 0.0, 0.0
	if d != nil {
		jobP50, jobsPerS = d.jobP50, float64(d.completed)/d.window
		hits := d.after.cacheHits - d.before.cacheHits
		misses := d.after.cacheMisses - d.before.cacheMisses
		if hits+misses > 0 {
			hitRatio = float64(hits) / float64(hits+misses)
		}
		won := d.after.claimsWon - d.before.claimsWon
		lost := d.after.claimsLost - d.before.claimsLost
		if won+lost > 0 {
			winRatio = float64(won) / float64(won+lost)
		}
		reqPerJob = float64(requests) / float64(jobs)
	}
	r.set("service.cache_hit_ratio", hitRatio, "ratio")
	r.set("cluster.claim_win_ratio", winRatio, "ratio")
	r.set("http.requests_per_job", reqPerJob, "count")
	// The traced run's own end-to-end figures: against the untraced runs'
	// job_p50_ms and jobs_per_s they give the tracing overhead.
	r.set("trace.job_p50_ms", jobP50, "ms")
	r.set("trace.jobs_per_s", jobsPerS, "jobs/s")
}
