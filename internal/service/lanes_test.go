package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seqbist/internal/iscas"
	"seqbist/internal/store"
)

// GenConfig.Lanes is accepted for compatibility and ignored. These
// constants pin what tinyCfg on s27 produced while the field still chose
// a lane width: the content key (lanes was zeroed out of it) and the
// hash of the Result with ElapsedMS zeroed. Neither may move.
const (
	laneCompatKey  = "b4475827878cc8317ed735973e8819bf684fb519c30295ebaebc290574b90874"
	laneCompatHash = "9db4929fd49a4d84579ebf1629628dde988321696fbd41c64f2236b6cd3ef530"
)

// resultHash hashes a Result's JSON with ElapsedMS, its only
// nondeterministic field, zeroed.
func resultHash(t *testing.T, res *Result) string {
	t.Helper()
	cp := *res
	cp.ElapsedMS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runToResult waits for job id to finish and returns its result hash.
func runToResult(t *testing.T, svc *Service, id string) string {
	t.Helper()
	if st := waitTerminal(t, svc, id, 60*time.Second); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	res, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return resultHash(t, res)
}

// TestLanesRejectedOnSubmit pins the submission edge: only 0 and 64 are
// accepted from new requests; any other lane width is a 400 invalid_spec.
func TestLanesRejectedOnSubmit(t *testing.T) {
	svc := New(Config{Workers: 1, SimParallelism: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cfg := tinyCfg()
	cfg.Lanes = 128
	var raw json.RawMessage
	code := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/jobs", JobSpec{Circuit: "s27", Config: cfg}, &raw)
	env := decodeEnvelope(t, raw)
	if code != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
		t.Fatalf("lanes=128: status %d, envelope %+v; want 400 %s", code, env, CodeInvalidSpec)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("%d jobs queued by a rejected submission", len(jobs))
	}
}

// TestLanesAcceptedUnchanged pins that lanes 0 and 64 still submit, and
// produce the content key and result hash the lane-width engine did.
func TestLanesAcceptedUnchanged(t *testing.T) {
	svc := New(Config{Workers: 1, SimParallelism: 1, CacheSize: -1})
	defer svc.Close()
	for _, lanes := range []int{0, 64} {
		cfg := tinyCfg()
		cfg.Lanes = lanes
		st, err := svc.Submit(JobSpec{Circuit: "s27", Config: cfg})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		svc.mu.Lock()
		key := svc.jobs[st.ID].key
		svc.mu.Unlock()
		if key != laneCompatKey {
			t.Errorf("lanes=%d: content key %s, want %s", lanes, key, laneCompatKey)
		}
		if h := runToResult(t, svc, st.ID); h != laneCompatHash {
			t.Errorf("lanes=%d: result hash %s, want %s", lanes, h, laneCompatHash)
		}
	}
}

// TestLanesRecoveredUnchanged pins the persisted side of the edge: a job
// record stored with a lane width new submissions may no longer carry is
// recovered and runs to the same result as lanes 0.
func TestLanesRecoveredUnchanged(t *testing.T) {
	dir := t.TempDir()
	st := diskStore(t, dir)
	cfg := tinyCfg()
	key := contentKey(iscas.MustLoad("s27"), "", cfg.withDefaults(1))
	if key != laneCompatKey {
		t.Fatalf("content key %s, want %s", key, laneCompatKey)
	}
	// Hand-written spec JSON: GenConfig would marshal the same bytes, but
	// spelling them out pins the stored shape a 256-lane job left behind.
	spec := json.RawMessage(`{"circuit":"s27","config":{"n":2,"seed":1,"atpg_max_len":60,"max_omission_trials":10,"lanes":256}}`)
	if err := st.PutJob(store.JobRecord{
		ID: jobID(1), Seq: 1, Key: key, Circuit: "s27", Spec: spec,
		Member: -1, State: string(StateQueued), Submitted: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 1, SimParallelism: 1, Store: diskStore(t, dir)})
	defer svc.Close()
	if h := runToResult(t, svc, jobID(1)); h != laneCompatHash {
		t.Fatalf("recovered lanes=256 job: result hash %s, want %s", h, laneCompatHash)
	}
}
