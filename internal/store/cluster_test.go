package store

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// claimHolders projects a lease table onto its holders: implementations
// stamp expiry with their own clocks, so cross-implementation equality
// is defined on who holds each lease, not on the instants.
func claimHolders(m map[string]Claim) map[string]string {
	out := make(map[string]string, len(m))
	for id, c := range m {
		out[id] = c.Node
	}
	return out
}

// openShared opens one shared handle on dir for the named node.
func openShared(t *testing.T, dir, node string) *Disk {
	t.Helper()
	d, err := Open(Options{Dir: dir, NodeID: node})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSharedInterleavedReplayEquivalence is the multi-writer extension
// of the PR 4 durability property: a random operation stream is dealt
// across three shared handles on one directory (so the log holds an
// interleaved multi-writer history), a crash point drops every handle
// without Close, and the replayed state must equal the memory oracle
// that saw the same global order — jobs, sweeps, events, results, and
// lease holders alike.
func TestSharedInterleavedReplayEquivalence(t *testing.T) {
	seeds := []int64{11, 12, 13, 14, 15, 16}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := genOps(rng, 150)
			crash := 1 + rng.Intn(len(ops))

			dir := t.TempDir()
			handles := []*Disk{
				openShared(t, dir, "n1"),
				openShared(t, dir, "n2"),
				openShared(t, dir, "n3"),
			}
			oracle := NewMemory()
			for _, o := range ops[:crash] {
				h := handles[rng.Intn(len(handles))]
				apply(t, h, o, false)
				apply(t, oracle, o, false)
			}
			// Every handle's view converges to the same log prefix.
			for i, h := range handles {
				got, err := h.Load()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := oracle.Load()
				if !statesEqual(want, got) {
					t.Fatalf("handle %d diverged from oracle before crash:\nwant %s\ngot  %s",
						i, dumpState(want), dumpState(got))
				}
			}
			// Crash: no Close (shared Close would not compact, but even
			// the flush must not be needed).
			for _, h := range handles {
				h.crash()
			}

			// Survivor replays: a fresh shared handle and a fresh
			// exclusive handle must both reconstruct the oracle state.
			for _, node := range []string{"n4", ""} {
				d, err := Open(Options{Dir: dir, NodeID: node})
				if err != nil {
					t.Fatalf("reopen as %q: %v", node, err)
				}
				got, err := d.Load()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := oracle.Load()
				if !statesEqual(want, got) {
					t.Fatalf("crash at op %d, reopen as %q: replay != oracle:\nwant %s\ngot  %s",
						crash, node, dumpState(want), dumpState(got))
				}
				gotClaims, err := d.Claims()
				if err != nil {
					t.Fatal(err)
				}
				wantClaims, _ := oracle.Claims()
				if !reflect.DeepEqual(claimHolders(gotClaims), claimHolders(wantClaims)) {
					t.Fatalf("crash at op %d, reopen as %q: lease holders != oracle:\nwant %v\ngot  %v",
						crash, node, claimHolders(wantClaims), claimHolders(gotClaims))
				}
				for _, key := range got.ResultKeys {
					b1, ok1, err1 := d.Result(key)
					b2, ok2, err2 := oracle.Result(key)
					mustDo(t, err1, err2)
					if !ok1 || !ok2 || string(b1) != string(b2) {
						t.Fatalf("result %q diverged after multi-writer crash", key)
					}
				}
				d.crash()
			}
		})
	}
}

// TestSharedConcurrentAppends hammers one directory from three handles
// on separate goroutines (run under -race in CI) and checks that every
// record survives and all views converge. Writers use disjoint ID
// spaces, so the assertion is pure durability, not arbitration.
func TestSharedConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	const perNode = 40
	nodes := []string{"n1", "n2", "n3"}
	handles := make([]*Disk, len(nodes))
	for i, n := range nodes {
		handles[i] = openShared(t, dir, n)
	}
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *Disk) {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				rec := jobRec(int64(i*1000+k), "queued")
				rec.ID = fmt.Sprintf("job-%s-%06d", nodes[i], k)
				if err := h.PutJob(rec); err != nil {
					t.Errorf("node %s put %d: %v", nodes[i], k, err)
					return
				}
				if err := h.Heartbeat(NodeRecord{ID: nodes[i], Time: time.Now()}); err != nil {
					t.Errorf("node %s heartbeat: %v", nodes[i], err)
					return
				}
			}
		}(i, h)
	}
	wg.Wait()

	var prev *State
	for i, h := range handles {
		got, err := h.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Jobs) != len(nodes)*perNode {
			t.Fatalf("handle %d sees %d jobs, want %d", i, len(got.Jobs), len(nodes)*perNode)
		}
		if prev != nil && !statesEqual(prev, got) {
			t.Fatalf("handles %d and %d disagree after refresh", i-1, i)
		}
		prev = got
		if st := h.Stats(); st.SkippedFrames != 0 {
			t.Fatalf("handle %d skipped %d frames under concurrent appends", i, st.SkippedFrames)
		}
	}
	for _, h := range handles {
		h.crash() // crash, not Close
	}
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, _ := d.Load()
	if len(got.Jobs) != len(nodes)*perNode {
		t.Fatalf("replay lost records: %d jobs, want %d", len(got.Jobs), len(nodes)*perNode)
	}
	nodeRecs, err := d.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodeRecs) != len(nodes) {
		t.Fatalf("replay sees %d node records, want %d", len(nodeRecs), len(nodes))
	}
}

// TestClaimExactlyOneWinner is the arbitration property: any number of
// nodes claiming the same job concurrently produces exactly one winner,
// and every node's view names the same holder afterwards.
func TestClaimExactlyOneWinner(t *testing.T) {
	for seed := 0; seed < 4; seed++ {
		dir := t.TempDir()
		const claimants = 4
		handles := make([]*Disk, claimants)
		for i := range handles {
			handles[i] = openShared(t, dir, fmt.Sprintf("n%d", i+1))
		}
		rec := jobRec(1, "queued")
		if err := handles[0].PutJob(rec); err != nil {
			t.Fatal(err)
		}
		wins := make([]bool, claimants)
		var wg sync.WaitGroup
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *Disk) {
				defer wg.Done()
				won, err := h.ClaimJob(rec.ID, fmt.Sprintf("n%d", i+1), time.Hour)
				if err != nil {
					t.Errorf("claimant %d: %v", i, err)
					return
				}
				wins[i] = won
			}(i, h)
		}
		wg.Wait()
		winners := 0
		winner := ""
		for i, won := range wins {
			if won {
				winners++
				winner = fmt.Sprintf("n%d", i+1)
			}
		}
		if winners != 1 {
			t.Fatalf("seed %d: %d winners for one job (wins=%v)", seed, winners, wins)
		}
		for i, h := range handles {
			claims, err := h.Claims()
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := claims[rec.ID]; !ok || c.Node != winner {
				t.Fatalf("seed %d: handle %d sees holder %q, want %q", seed, i, c.Node, winner)
			}
			h.crash()
		}
	}
}

// TestClaimLeaseEdgeCases pins the lease rule's corners on both
// implementations: claims on terminal jobs are void, renewal after
// expiry succeeds only while nobody has displaced the holder, releases
// free the lease, and deleting a job drops its lease.
func TestClaimLeaseEdgeCases(t *testing.T) {
	dir := t.TempDir()
	disk, err := Open(Options{Dir: dir}) // exclusive path
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	shared := openShared(t, t.TempDir(), "n1") // shared path
	defer shared.crash()
	impls := []struct {
		name string
		s    Store
	}{
		{"memory", NewMemory()},
		{"disk", disk},
		{"disk-shared", shared},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.s

			// Claim on an already-terminal job is void.
			done := jobRec(1, "done")
			mustDo(t, s.PutJob(done))
			if won, err := s.ClaimJob(done.ID, "n1", time.Hour); err != nil || won {
				t.Fatalf("claim on terminal job: won=%v err=%v", won, err)
			}

			// Normal claim; a second node cannot take an unexpired lease.
			queued := jobRec(2, "queued")
			mustDo(t, s.PutJob(queued))
			if won, err := s.ClaimJob(queued.ID, "n1", time.Hour); err != nil || !won {
				t.Fatalf("first claim: won=%v err=%v", won, err)
			}
			if won, err := s.ClaimJob(queued.ID, "n2", time.Hour); err != nil || won {
				t.Fatalf("claim against live lease: won=%v err=%v", won, err)
			}

			// Renewal after expiry succeeds while nobody displaced the
			// holder (ttl 0 expires immediately)...
			expired := jobRec(3, "queued")
			mustDo(t, s.PutJob(expired))
			if won, err := s.ClaimJob(expired.ID, "n1", 0); err != nil || !won {
				t.Fatalf("expiring claim: won=%v err=%v", won, err)
			}
			if won, err := s.RenewLease(expired.ID, "n1", time.Hour); err != nil || !won {
				t.Fatalf("renewal after expiry without interloper: won=%v err=%v", won, err)
			}
			// ...but once a thief takes the expired lease, the old
			// holder's renewal loses.
			stolen := jobRec(4, "queued")
			mustDo(t, s.PutJob(stolen))
			if won, err := s.ClaimJob(stolen.ID, "n1", 0); err != nil || !won {
				t.Fatalf("expiring claim: won=%v err=%v", won, err)
			}
			if won, err := s.ClaimJob(stolen.ID, "n2", time.Hour); err != nil || !won {
				t.Fatalf("steal of expired lease: won=%v err=%v", won, err)
			}
			if won, err := s.RenewLease(stolen.ID, "n1", time.Hour); err != nil || won {
				t.Fatalf("renewal after displacement: won=%v err=%v", won, err)
			}

			// Release frees the lease for the next claimant; a
			// non-holder's release is a no-op.
			mustDo(t, s.ReleaseJob(stolen.ID, "n1")) // not the holder
			if claims, _ := s.Claims(); claims[stolen.ID].Node != "n2" {
				t.Fatalf("non-holder release dissolved the lease: %v", claims[stolen.ID])
			}
			mustDo(t, s.ReleaseJob(stolen.ID, "n2"))
			if won, err := s.ClaimJob(stolen.ID, "n3", time.Hour); err != nil || !won {
				t.Fatalf("claim after release: won=%v err=%v", won, err)
			}

			// Deleting the job drops the lease with it.
			mustDo(t, s.DeleteJob(stolen.ID))
			if claims, _ := s.Claims(); claims[stolen.ID].Node != "" {
				t.Fatalf("lease survived job deletion: %v", claims[stolen.ID])
			}
		})
	}
}

// TestSharedGluedFrameRecovery reproduces the one physical artifact a
// SIGKILLed cluster member can leave in the shared log — a torn,
// newline-free frame with a peer's intact frame appended right after —
// and checks that scans recover the peer's record instead of refusing
// or dropping it.
func TestSharedGluedFrameRecovery(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "n1")
	mustDo(t, a.PutJob(jobRec(1, "queued")))
	a.crash() // n1 dies...

	// ...mid-append: torn bytes in the shared manifest, no trailing
	// newline.
	wal := curManifest(t, dir)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"lsn":7,"n":"n1","t":"job","d":{"id":"job-torn`)
	f.Close()

	// A live peer appends a full record after the tear.
	b := openShared(t, dir, "n2")
	mustDo(t, b.PutJob(jobRec(2, "running")))
	got, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 2 {
		t.Fatalf("peer record lost behind torn frame: %s", dumpState(got))
	}
	if st := b.Stats(); st.SkippedFrames == 0 {
		t.Fatal("torn frame not counted as skipped")
	}
	b.crash()

	// A later shared open replays both intact records the same way.
	c := openShared(t, dir, "n3")
	defer c.crash()
	got2, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Jobs) != 2 || !statesEqual(got, got2) {
		t.Fatalf("reopen after glued frame diverged: %s", dumpState(got2))
	}
}
