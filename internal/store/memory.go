package store

import (
	"sort"
	"sync"
	"time"
)

// Memory is the in-memory Store: the reference semantics for every
// implementation (the disk property tests replay identical operation
// streams into a Memory and a Disk store and require identical State).
// It persists nothing — a process restart loses everything — which is
// exactly the service's pre-store behavior.
type Memory struct {
	mu      sync.Mutex
	jobs    map[string]JobRecord
	sweeps  map[string]SweepRecord
	events  map[string][]EventRecord
	results map[string][]byte
	claims  map[string]Claim
	nodes   map[string]NodeRecord
	changes changeLog
	written int64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		jobs:    make(map[string]JobRecord),
		sweeps:  make(map[string]SweepRecord),
		events:  make(map[string][]EventRecord),
		results: make(map[string][]byte),
		claims:  make(map[string]Claim),
		nodes:   make(map[string]NodeRecord),
	}
}

// PutJob upserts a job record (see mergeJobRecord for the empty-Spec
// convention).
func (m *Memory) PutJob(rec JobRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[rec.ID] = mergeJobRecord(m.jobs[rec.ID], rec)
	m.changes.note(changeJob, rec.ID)
	m.written++
	return nil
}

// mergeJobRecord applies the upsert convention shared by every Store:
// a record with an empty Spec inherits the previously stored spec, so
// state transitions never re-carry the submission payload.
func mergeJobRecord(old, rec JobRecord) JobRecord {
	if len(rec.Spec) == 0 {
		rec.Spec = old.Spec
	}
	return rec
}

// DeleteJob removes a job record (and any lease on it).
func (m *Memory) DeleteJob(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	delete(m.claims, id)
	m.changes.note(changeJob, id)
	m.written++
	return nil
}

// PutSweep upserts a sweep record.
func (m *Memory) PutSweep(rec SweepRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweeps[rec.ID] = rec
	m.changes.note(changeSweep, rec.ID)
	m.written++
	return nil
}

// DeleteSweep removes a sweep record and its event log.
func (m *Memory) DeleteSweep(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sweeps, id)
	delete(m.events, id)
	m.changes.note(changeSweep, id)
	m.written++
	return nil
}

// AppendEvent appends (or, on replayed Seq, overwrites) one event.
func (m *Memory) AppendEvent(ev EventRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events[ev.SweepID] = placeEvent(m.events[ev.SweepID], ev)
	m.written++
	return nil
}

// placeEvent inserts ev into a Seq-ordered log, overwriting a duplicate
// Seq (last write wins, so re-appends after a partial replay converge).
func placeEvent(log []EventRecord, ev EventRecord) []EventRecord {
	if n := len(log); n == 0 || log[n-1].Seq < ev.Seq {
		return append(log, ev)
	}
	i := sort.Search(len(log), func(i int) bool { return log[i].Seq >= ev.Seq })
	if i < len(log) && log[i].Seq == ev.Seq {
		log[i] = ev
		return log
	}
	log = append(log, EventRecord{})
	copy(log[i+1:], log[i:])
	log[i] = ev
	return log
}

// PutResult stores one result body under its content key.
func (m *Memory) PutResult(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results[key] = append([]byte(nil), data...)
	m.written++
	return nil
}

// DeleteResult drops one result body.
func (m *Memory) DeleteResult(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.results, key)
	m.written++
	return nil
}

// Result fetches one result body.
func (m *Memory) Result(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.results[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

// Load snapshots the current state.
func (m *Memory) Load() (*State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return stateOf(m.jobs, m.sweeps, m.events, m.results), nil
}

// stateOf builds a deterministic State from the mirror maps: records in
// Seq order, events already Seq-ordered, result keys sorted. Shared by
// Memory and Disk so both rehydrate identically.
func stateOf(jobs map[string]JobRecord, sweeps map[string]SweepRecord, events map[string][]EventRecord, results map[string][]byte) *State {
	st := &State{Events: make(map[string][]EventRecord)}
	for _, rec := range jobs {
		st.Jobs = append(st.Jobs, rec)
	}
	sort.Slice(st.Jobs, func(i, j int) bool {
		if st.Jobs[i].Seq != st.Jobs[j].Seq {
			return st.Jobs[i].Seq < st.Jobs[j].Seq
		}
		return st.Jobs[i].ID < st.Jobs[j].ID
	})
	for _, rec := range sweeps {
		st.Sweeps = append(st.Sweeps, rec)
	}
	sort.Slice(st.Sweeps, func(i, j int) bool {
		if st.Sweeps[i].Seq != st.Sweeps[j].Seq {
			return st.Sweeps[i].Seq < st.Sweeps[j].Seq
		}
		return st.Sweeps[i].ID < st.Sweeps[j].ID
	})
	for id, log := range events {
		st.Events[id] = append([]EventRecord(nil), log...)
	}
	for key := range results {
		st.ResultKeys = append(st.ResultKeys, key)
	}
	sort.Strings(st.ResultKeys)
	return st
}

// ClaimJob attempts to acquire the execution lease on a job. A single
// process sharing one Memory between several Services arbitrates in
// call order, which *is* the operation stream's total order here.
func (m *Memory) ClaimJob(jobID, nodeID string, ttl time.Duration) (bool, error) {
	return m.claim(jobID, nodeID, ttl)
}

// RenewLease extends a held lease; false reports it was lost.
func (m *Memory) RenewLease(jobID, nodeID string, ttl time.Duration) (bool, error) {
	return m.claim(jobID, nodeID, ttl)
}

func (m *Memory) claim(jobID, nodeID string, ttl time.Duration) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	won := applyClaim(m.claims, m.jobs, m.nodes, ClaimRecord{
		JobID: jobID, Node: nodeID, Time: now, Expires: now.Add(ttl),
	})
	m.written++
	return won, nil
}

// ReleaseJob dissolves a held lease (no-op for a non-holder).
func (m *Memory) ReleaseJob(jobID, nodeID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	applyClaim(m.claims, m.jobs, m.nodes, ClaimRecord{JobID: jobID, Node: nodeID, Time: time.Now(), Released: true})
	m.written++
	return nil
}

// Heartbeat upserts one node record.
func (m *Memory) Heartbeat(rec NodeRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[rec.ID] = rec
	m.written++
	return nil
}

// Changes returns the records changed since cursor (0 or a stale
// cursor yields a full resync), plus the cursor for the next call.
func (m *Memory) Changes(cursor uint64) (*Delta, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	refs, ok := m.changes.window(cursor)
	if !ok {
		return fullDelta(m.jobs, m.sweeps), m.changes.ver, nil
	}
	return buildDelta(refs, m.jobs, m.sweeps), m.changes.ver, nil
}

// Claims snapshots the lease table.
func (m *Memory) Claims() (map[string]Claim, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return copyClaims(m.claims), nil
}

// Nodes snapshots the node records in ID order.
func (m *Memory) Nodes() ([]NodeRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return nodeList(m.nodes), nil
}

// Compact is a no-op: Memory has no log to rewrite.
func (m *Memory) Compact() error { return nil }

// Stats reports the write counter; Memory has no disk footprint.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{RecordsWritten: m.written}
}

// Close is a no-op.
func (m *Memory) Close() error { return nil }
