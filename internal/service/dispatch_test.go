package service

import (
	"errors"
	"testing"
	"time"
)

// TestStorelessFairShare pins that a daemon without a data directory is
// scheduled by the claim loop's fair share, not FIFO: a priority-1
// tenant's job submitted behind a priority-0 tenant's flood starts
// before the flood's fourth job (at most Workers+1 flood jobs are
// claimed ahead of it).
func TestStorelessFairShare(t *testing.T) {
	svc := New(Config{Workers: 1, SimParallelism: 1, Tenants: []TenantConfig{
		{Name: "batch", Key: "kb"},
		{Name: "interactive", Key: "ki", Priority: 1},
	}})
	defer svc.Close()

	var flood []string
	for seed := uint64(1); seed <= 8; seed++ {
		st, err := svc.SubmitAs("batch", fastSpec("s298", seed))
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, st.ID)
	}
	st, err := svc.SubmitAs("interactive", fastSpec("s27", 100))
	if err != nil {
		t.Fatal(err)
	}
	inter := waitTerminal(t, svc, st.ID, 120*time.Second)
	fourth := waitTerminal(t, svc, flood[3], 120*time.Second)
	if inter.State != StateDone || fourth.State != StateDone {
		t.Fatalf("states %s / %s, want done/done", inter.State, fourth.State)
	}
	if !inter.StartedAt.Before(*fourth.StartedAt) {
		t.Fatalf("interactive job started %v, after the flood's fourth job (%v)",
			inter.StartedAt, fourth.StartedAt)
	}
}

// TestCompletionNudgesClaimLoop pins that a finished execution refills
// its worker slot at once: with a claim loop that never ticks on its
// own, only the completion nudge gets every job past the first
// Workers+1 claims.
func TestCompletionNudgesClaimLoop(t *testing.T) {
	svc := New(Config{Workers: 1, SimParallelism: 1, PollInterval: time.Hour})
	defer svc.Close()
	var ids []string
	for seed := uint64(1); seed <= 10; seed++ {
		st, err := svc.Submit(fastSpec("s27", seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, svc, id, 60*time.Second); st.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
		}
	}
}

// TestQueueDepthBoundsDirectSubmissions pins the backpressure of the
// claim-loop dispatch: QueueDepth counts this node's queued direct
// submissions — claimed-but-unstarted ones included — and Readiness and
// queue_len report that same count, while sweep members bypass the
// bound.
func TestQueueDepthBoundsDirectSubmissions(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 2, SimParallelism: 1})
	defer svc.Close()

	blocker, err := svc.Submit(JobSpec{Circuit: "s526", Config: GenConfig{N: 8, Seed: 1, ATPGMaxLen: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{blocker.ID}
	waitRunning(t, svc, blocker.ID, 30*time.Second)
	for seed := uint64(2); seed <= 3; seed++ {
		st, err := svc.Submit(fastSpec("s27", seed))
		if err != nil {
			t.Fatalf("submission %d under the bound: %v", seed, err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := svc.Submit(fastSpec("s27", 4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third queued submission: err = %v, want ErrQueueFull", err)
	}
	if ok, reason := svc.Readiness(); ok || reason != "queue full" {
		t.Fatalf("Readiness = %v %q, want not ready: queue full", ok, reason)
	}
	sw, err := svc.SubmitSweep(SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}},
		Config:   GenConfig{N: 2, Seed: 5, ATPGMaxLen: 300, MaxOmissionTrials: 40},
	})
	if err != nil {
		t.Fatalf("sweep while direct submissions are full: %v", err)
	}
	if n := svc.Metrics().QueueLen; n != 2 {
		t.Fatalf("queue_len = %d, want the 2 queued direct submissions", n)
	}
	if _, err := svc.CancelSweep(sw.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorelessServiceKeepsMemoryStore pins that a service configured
// without a store runs on a private in-memory one: /metrics reports the
// store and cluster sections, and a result body is deleted from the
// store once its last referent (job record and cache entry) is gone.
func TestStorelessServiceKeepsMemoryStore(t *testing.T) {
	svc := New(Config{Workers: 1, SimParallelism: 1, CacheSize: 1, MaxJobs: 1})
	defer svc.Close()

	first, err := svc.Submit(fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, first.ID, 60*time.Second)
	svc.mu.Lock()
	firstKey := svc.jobs[first.ID].key
	svc.mu.Unlock()
	if _, ok, _ := svc.store.Result(firstKey); !ok {
		t.Fatal("finished job's result body not in the store")
	}

	// The second job evicts the first job's record (MaxJobs 1) and its
	// cache entry (CacheSize 1): the first body has no referent left.
	second, err := svc.Submit(fastSpec("s27", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, second.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("second job: state %s", st.State)
	}
	if _, ok, _ := svc.store.Result(firstKey); ok {
		t.Fatal("result body kept after its last referent was evicted")
	}
	snap := svc.Metrics()
	if snap.Store == nil || snap.Cluster == nil {
		t.Fatal("store or cluster metrics section missing")
	}
	if snap.Store.RecordsWritten == 0 || snap.Cluster.ClaimsWon != 2 {
		t.Fatalf("store records_written %d, claims_won %d; want > 0 and 2",
			snap.Store.RecordsWritten, snap.Cluster.ClaimsWon)
	}
}
