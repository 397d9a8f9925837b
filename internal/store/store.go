// Package store is the durable state layer of the synthesis service: a
// keyed record store for job records, sweep records, sweep event logs,
// and the content-addressed result cache. The service mirrors every
// state transition into its Store as an upsert or append; on startup it
// calls Load once and rebuilds its in-memory structures from the
// returned State (see internal/service's recovery path).
//
// Two implementations exist. Memory keeps everything in maps and is the
// reference semantics (and the oracle the disk tests compare against).
// Disk persists records through a write-ahead record log with per-record
// checksums plus periodic snapshot compaction, spilling large results to
// content-named files; it survives SIGKILL at any point, recovering
// every record whose WAL line was fully written. The record format is
// documented in DESIGN.md §9.
package store

import (
	"encoding/json"
	"time"
)

// JobRecord is the durable form of one service job. Spec is the
// service-level JobSpec kept as raw JSON so this package stays free of
// service types; the service re-resolves the circuit from it when a
// non-terminal job is re-enqueued after a crash.
type JobRecord struct {
	// ID is the service job ID ("job-000042"); the numeric suffix is
	// reflected in Seq so the service can restore its ID counter.
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	// Key is the content key of the job's circuit/T0/config triple; it
	// addresses the job's result in the result store.
	Key string `json:"key"`
	// Circuit is the resolved circuit name, kept so terminal job
	// statuses can be served after a restart without re-parsing
	// uploaded netlists.
	Circuit string `json:"circuit"`
	// Spec is the service-level JobSpec. It is immutable for a job's
	// lifetime, so the service sends it on the first upsert only: a
	// PutJob whose Spec is empty keeps the previously stored spec
	// (state transitions then cost bytes proportional to the state, not
	// to a possibly-megabyte uploaded netlist).
	Spec json.RawMessage `json:"spec,omitempty"`
	// SweepID and Member link a sweep-member job back to its sweep
	// (Member is the index; -1 when the job is not part of a sweep).
	SweepID string `json:"sweep_id,omitempty"`
	Member  int    `json:"member"`
	// Node identifies the daemon that accepted the submission (empty
	// outside cluster mode). In a multi-daemon cluster the submitter
	// owns the in-memory job object and its lifecycle hooks; any daemon
	// may execute the job by claiming it (see ClaimJob).
	Node string `json:"node,omitempty"`
	// Tenant names the tenant the accepting daemon attributed the
	// submission to (empty means the anonymous default tenant). It is
	// carried on the record — not derived — so recovery, cross-daemon
	// claims, and sweep adoption preserve ownership and the claim
	// loops' fair-share accounting after the accepting daemon is gone.
	Tenant string `json:"tenant,omitempty"`

	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Orphaned marks a job that was queued or running when a previous
	// process died; the restarted service re-enqueues it (re-running is
	// safe: results are content-addressed) and sets this flag on the
	// record for observability.
	Orphaned bool   `json:"orphaned,omitempty"`
	Error    string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// SweepMemberRecord is the durable per-member slice of a sweep record:
// enough to re-link member jobs and rebuild terminal member statuses.
type SweepMemberRecord struct {
	JobID    string `json:"job_id,omitempty"`
	Circuit  string `json:"circuit"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SweepRecord is the durable form of one sweep. Summary is the
// service-level SweepSummary as raw JSON, set once the sweep is
// terminal.
type SweepRecord struct {
	ID       string `json:"id"`
	Seq      int64  `json:"seq"`
	State    string `json:"state"`
	Canceled bool   `json:"canceled,omitempty"`
	// Node identifies the daemon that accepted (and owns) the sweep in
	// cluster mode; member jobs execute anywhere, but the owner appends
	// the event log and the final summary.
	Node string `json:"node,omitempty"`
	// Tenant names the owning tenant (empty = anonymous), preserved
	// across recovery and adoption like JobRecord.Tenant.
	Tenant string `json:"tenant,omitempty"`
	// Spec is the original service-level SweepSpec, kept so recovery
	// can re-submit members the crash caught before they were enqueued
	// (their job records never existed).
	Spec    json.RawMessage     `json:"spec,omitempty"`
	Members []SweepMemberRecord `json:"members"`
	Summary json.RawMessage     `json:"summary,omitempty"`

	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitempty"`
}

// EventRecord is one line of a sweep's ordered event log, persisted
// verbatim so a restarted daemon replays exactly the NDJSON bytes a
// streaming client saw before the crash (clients resume via the seq
// offsets embedded in the events).
type EventRecord struct {
	SweepID string          `json:"sweep_id"`
	Seq     int             `json:"seq"`
	Data    json.RawMessage `json:"data"`
}

// State is the full rehydration snapshot Load returns: records in
// insertion (Seq) order, per-sweep event logs in Seq order, and the set
// of result keys present (result bodies are fetched lazily via Result).
type State struct {
	Jobs       []JobRecord
	Sweeps     []SweepRecord
	Events     map[string][]EventRecord
	ResultKeys []string
}

// Stats is the operational counter set a store exports (surfaced under
// "store" in the service's GET /metrics).
type Stats struct {
	// RecordsWritten counts WAL appends (upserts, deletes, events,
	// results) since the store was opened.
	RecordsWritten int64 `json:"records_written"`
	// BytesOnDisk is the current on-disk footprint: WAL + snapshot +
	// spilled result files. Zero for Memory.
	BytesOnDisk int64 `json:"bytes_on_disk"`
	// Compactions counts snapshot compactions since open.
	Compactions int64 `json:"compactions"`
	// LastCompaction is the wall-clock time of the most recent
	// compaction (zero if none happened yet).
	LastCompaction time.Time `json:"last_compaction,omitempty"`
	// RecordsReplayed counts the records rehydrated when the store was
	// opened (snapshot entries + surviving WAL lines).
	RecordsReplayed int64 `json:"records_replayed"`
	// RecordsRefreshed counts records applied after open from other
	// writers sharing the same directory (always zero outside shared
	// mode — see Options.NodeID).
	RecordsRefreshed int64 `json:"records_refreshed,omitempty"`
	// SkippedFrames counts corrupt or torn frames skipped while
	// scanning a shared log (a crashed peer's torn write; expected to
	// stay 0 or very small).
	SkippedFrames int64 `json:"skipped_frames,omitempty"`
	// TruncatedTail reports that opening found (and discarded) a torn
	// or corrupt record at the WAL tail — expected after a crash
	// mid-write, a red flag otherwise.
	TruncatedTail bool `json:"truncated_tail,omitempty"`
	// Epoch is the current log generation (the fold frontier of the
	// segmented WAL). Zero for Memory.
	Epoch int64 `json:"epoch,omitempty"`
	// SegmentsLive counts per-node segment files currently on disk;
	// SegmentsDeleted counts segment files removed by compaction GC
	// since open.
	SegmentsLive    int64 `json:"segments_live,omitempty"`
	SegmentsDeleted int64 `json:"segments_deleted,omitempty"`
	// ManifestBytes is the on-disk size of the manifest (shared
	// ordering log) files, a subset of BytesOnDisk.
	ManifestBytes int64 `json:"manifest_bytes,omitempty"`
}

// Store persists service state. Implementations serialize their own
// access: the service calls methods under its own mutex, but tests and
// tools may not. Put methods are upserts keyed by ID (events are keyed
// by sweep ID + Seq, last write wins, so re-appends after a partial
// replay converge); Delete methods mirror the service's retention and
// reference-count eviction so a long-lived store does not grow with
// total submissions. The store itself never decides what to drop —
// replayed state is a pure function of the operation stream, which is
// what makes replay(compact(log)) == replay(log) an exact invariant
// (see the property tests).
type Store interface {
	PutJob(JobRecord) error
	DeleteJob(id string) error
	PutSweep(SweepRecord) error
	// DeleteSweep removes the sweep record and its event log.
	DeleteSweep(id string) error
	AppendEvent(EventRecord) error
	PutResult(key string, data []byte) error
	// DeleteResult drops one result body. The service calls it when the
	// last referent (done job record or cache entry) of a key is gone.
	DeleteResult(key string) error
	// Result fetches one result body; ok is false when the key is
	// unknown (never written, or deleted).
	Result(key string) ([]byte, bool, error)
	// Load returns the current rehydration snapshot. For Disk this is
	// the state replayed at Open plus any writes since.
	Load() (*State, error)

	// The lease layer, used when several daemons share one store to
	// agree on which of them executes each job (see claim.go for the
	// arbitration rule and DESIGN.md §10 for the protocol).
	//
	// ClaimJob attempts to acquire (or steal, once a prior lease has
	// expired) the execution lease on a job; RenewLease extends a held
	// lease and reports false when it was lost to another node;
	// ReleaseJob dissolves a held lease (no-op for a non-holder).
	// Exactly one concurrent claimant wins: arbitration happens in the
	// operation stream's total order, so every node that replays the
	// stream agrees on the holder.
	ClaimJob(jobID, nodeID string, ttl time.Duration) (bool, error)
	RenewLease(jobID, nodeID string, ttl time.Duration) (bool, error)
	ReleaseJob(jobID, nodeID string) error
	// Heartbeat upserts this node's identity record; peers read the set
	// via Nodes to size the cluster and detect dead members.
	Heartbeat(NodeRecord) error
	// Changes returns the job and sweep records that changed since
	// cursor (as returned by the previous call; 0 means "everything"),
	// plus the cursor for the next call. A cursor that has fallen too
	// far behind degrades to a full resync (Delta.Full) — the API may
	// over-deliver but never misses a change. Like Load, it folds
	// peers' appends first, but hands back only the changed records, so
	// a poll tick costs O(new records) instead of O(total state).
	Changes(cursor uint64) (*Delta, uint64, error)
	// Claims snapshots the evaluated lease table (job ID -> holder).
	Claims() (map[string]Claim, error)
	// Nodes snapshots the known node records in ID order.
	Nodes() ([]NodeRecord, error)
	// Compact rewrites durable storage toward its minimal form
	// (snapshot + pruned log). Pure representation change: Load before
	// and after are identical. Safe online in shared mode — the round
	// is arbitrated through the log itself, and losing the round to a
	// live peer is a successful no-op. A no-op for Memory.
	Compact() error
	Stats() Stats
	// Close flushes and releases the store. The service calls it after
	// the worker pool drains, so every terminal record lands first.
	Close() error
}
