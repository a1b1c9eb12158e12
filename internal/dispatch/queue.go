// Package dispatch is the service decomposition of the simulator: a
// dispatcher daemon owning a durable pull queue, worker daemons that
// lease trajectory batches and stream results back, and the HTTP
// plumbing between them (the SIMQ dispatcher/simd/psq shape).
//
// The package is deliberately OUTSIDE lint.DeterministicPackages: a
// daemon legitimately reads the wall clock (lease deadlines, drain
// timeouts) and moves data across goroutines. Everything that must be
// deterministic — wire schemas, payload expansion, result
// canonicalization — lives in the dispatch/wire subpackage, which is
// in scope; the merged outputs are pure functions of (seed, sealed
// submission stream) no matter what this package's clocks do.
package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
	"qcloud/internal/trace"
)

// TaskState is one queue entry's lifecycle state.
type TaskState int

const (
	TaskQueued TaskState = iota
	TaskLeased
	TaskDone
	TaskFailed
	TaskCancelled
)

func (s TaskState) String() string {
	switch s {
	case TaskQueued:
		return "queued"
	case TaskLeased:
		return "leased"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	case TaskCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// terminal reports whether the state is final.
func (s TaskState) terminal() bool {
	return s == TaskDone || s == TaskFailed || s == TaskCancelled
}

// Task is one submission's queue entry.
type Task struct {
	Seq     int64
	Key     string
	Spec    wire.Spec
	State   TaskState
	Attempt int // lease attempts consumed (expired leases + the completing one)
	Worker  string
	Counts  map[string]int
	Err     string

	deadline  time.Time // lease expiry, valid while leased
	notBefore time.Time // retry backoff gate, valid while queued
	// requeuePending marks a retried task whose requeue event has not
	// fired yet (it fires when the backoff gate opens, mirroring the
	// session's retry→requeue pairing).
	requeuePending bool
}

// ErrSealed rejects submissions after Seal.
var ErrSealed = errors.New("dispatch: submission stream sealed")

// QueueConfig parameterizes a durable queue.
type QueueConfig struct {
	// Dir is the queue's state directory: Dir/submits and Dir/results
	// hold the two WAL streams, Dir/checkpoint the watermark file.
	Dir string
	// Seed drives the deterministic backoff jitter (same seed as the
	// workload it queues).
	Seed int64
	// Lease bounds how long a pulled unit may go without a heartbeat
	// before it is requeued (default 30s).
	Lease time.Duration
	// Retry governs lease-expiry requeues through the session's
	// machinery. Defaults here are daemon-scale (5 attempts, 500ms
	// base, 15s cap) rather than the session's sim-scale defaults.
	Retry *cloud.RetryPolicy
	// CheckpointEvery writes the watermark checkpoint after this many
	// completion-log appends (default 64; Close always checkpoints).
	CheckpointEvery int
	// SyncEvery fsyncs the WALs every N records (default 0: flush to
	// the OS on every accept — SIGKILL-safe — but no fsync; see
	// journal.Options.SyncEvery).
	SyncEvery int
	// Now supplies wall time (default time.Now; tests inject clocks).
	Now func() time.Time
	// OnEvent, if set, observes the queue's live event stream (called
	// synchronously under the queue lock — keep it cheap and never
	// call back into the queue).
	OnEvent func(wire.Event)
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	if c.Retry == nil {
		c.Retry = &cloud.RetryPolicy{
			MaxAttempts: 5,
			BaseBackoff: 500 * time.Millisecond,
			MaxBackoff:  15 * time.Second,
		}
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Queue is the dispatcher's durable pull queue. Every accepted
// mutation (submit, seal, lease expiry, result, cancel) is appended to
// a WAL and flushed to the OS before it is acknowledged, so a SIGKILL
// at any instant loses nothing that was acked; recovery replays both
// streams. Leases are NOT journaled — they are leases precisely
// because losing them is safe: a restarted dispatcher forgets all
// in-flight leases and the units become pullable again, and the
// deterministic merge makes re-execution idempotent.
type Queue struct {
	cfg QueueConfig

	mu        sync.Mutex
	err       error // sticky WAL failure; queue refuses mutations after
	tasks     []*Task
	byKey     map[string]int64
	sealed    bool
	recovered bool

	submits *journal.Writer // submit/seal records
	results *journal.Writer // expire/result/cancel records

	sinceCkpt int
}

// checkpoint is the watermark file: how far each stream had definitely
// been written when the checkpoint was taken. Recovery refuses to
// proceed if a stream's surviving valid prefix is shorter than the
// watermark — that is media damage or tampering, not a crash tail, and
// silently replaying less than was acked would un-happen
// acknowledged work. It is stored as a trace snapshot ("QCSN" magic,
// CRC32C footer) whose version byte is wire.Version.
type checkpoint struct {
	SubmitRecs int64
	ResultRecs int64
}

const (
	submitsDirName = "submits"
	resultsDirName = "results"
	ckptName       = "checkpoint"
)

// OpenQueue opens (or creates) the durable queue rooted at cfg.Dir,
// replaying any existing state.
func OpenQueue(cfg QueueConfig) (*Queue, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("dispatch: QueueConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	q := &Queue{cfg: cfg, byKey: make(map[string]int64)}

	subDir := filepath.Join(cfg.Dir, submitsDirName)
	resDir := filepath.Join(cfg.Dir, resultsDirName)

	subScan, err := journal.ForEach(subDir, q.replaySubmit)
	if err != nil {
		return nil, fmt.Errorf("dispatch: replaying submit log: %w", err)
	}
	resScan, err := journal.ForEach(resDir, q.replayResult)
	if err != nil {
		return nil, fmt.Errorf("dispatch: replaying completion log: %w", err)
	}
	ck, err := readCheckpoint(filepath.Join(cfg.Dir, ckptName))
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if subScan.Records < ck.SubmitRecs {
			return nil, fmt.Errorf("dispatch: submit log has %d valid records but checkpoint pins %d — log damaged beyond the crash tail",
				subScan.Records, ck.SubmitRecs)
		}
		if resScan.Records < ck.ResultRecs {
			return nil, fmt.Errorf("dispatch: completion log has %d valid records but checkpoint pins %d — log damaged beyond the crash tail",
				resScan.Records, ck.ResultRecs)
		}
	}
	opts := journal.Options{SyncEvery: cfg.SyncEvery}
	if q.submits, err = journal.OpenAt(subDir, subScan.Records, opts); err != nil {
		return nil, fmt.Errorf("dispatch: opening submit log: %w", err)
	}
	if q.results, err = journal.OpenAt(resDir, resScan.Records, opts); err != nil {
		q.submits.Abandon()
		return nil, fmt.Errorf("dispatch: opening completion log: %w", err)
	}
	q.recovered = subScan.Records > 0 || resScan.Records > 0
	// Recovery forgets leases: anything non-terminal is queued and
	// immediately eligible (its backoff, if any, died with the
	// process — harmless, since eligibility timing never reaches the
	// merged outputs).
	for _, t := range q.tasks {
		if !t.State.terminal() {
			t.State = TaskQueued
			t.Worker = ""
			t.notBefore = time.Time{}
			t.requeuePending = false
		}
	}
	return q, nil
}

// replaySubmit applies one submit-log record during recovery.
func (q *Queue) replaySubmit(rec int64, payload []byte) error {
	env, err := wire.DecodeRecord(payload)
	if err != nil {
		return fmt.Errorf("submit record %d: %w", rec, err)
	}
	switch env.Type {
	case wire.RecSubmit:
		var sr wire.SubmitRec
		if err := json.Unmarshal(env.Data, &sr); err != nil {
			return fmt.Errorf("submit record %d: %w", rec, err)
		}
		if sr.Seq != int64(len(q.tasks)) {
			return fmt.Errorf("submit record %d: seq %d out of order (want %d)", rec, sr.Seq, len(q.tasks))
		}
		q.tasks = append(q.tasks, &Task{Seq: sr.Seq, Key: sr.Key, Spec: sr.Spec})
		if sr.Key != "" {
			q.byKey[sr.Key] = sr.Seq
		}
	case wire.RecSeal:
		q.sealed = true
	default:
		return fmt.Errorf("submit record %d: unexpected type %q", rec, env.Type)
	}
	return nil
}

// replayResult applies one completion-log record during recovery.
func (q *Queue) replayResult(rec int64, payload []byte) error {
	env, err := wire.DecodeRecord(payload)
	if err != nil {
		return fmt.Errorf("completion record %d: %w", rec, err)
	}
	task := func(seq int64) (*Task, error) {
		if seq < 0 || seq >= int64(len(q.tasks)) {
			return nil, fmt.Errorf("completion record %d: unknown seq %d", rec, seq)
		}
		return q.tasks[seq], nil
	}
	switch env.Type {
	case wire.RecExpire:
		var er wire.ExpireRec
		if err := json.Unmarshal(env.Data, &er); err != nil {
			return err
		}
		t, err := task(er.Seq)
		if err != nil {
			return err
		}
		if er.Attempt > t.Attempt {
			t.Attempt = er.Attempt
		}
	case wire.RecResult:
		var rr wire.ResultRec
		if err := json.Unmarshal(env.Data, &rr); err != nil {
			return err
		}
		t, err := task(rr.Seq)
		if err != nil {
			return err
		}
		if t.State.terminal() {
			break // first outcome wins, exactly like the live path
		}
		t.Worker = rr.Worker
		if rr.Attempt > t.Attempt {
			t.Attempt = rr.Attempt
		}
		if rr.Err != "" {
			t.State, t.Err = TaskFailed, rr.Err
		} else {
			t.State, t.Counts = TaskDone, wire.PairsToCounts(rr.Counts)
		}
	case wire.RecCancel:
		var cr wire.CancelRec
		if err := json.Unmarshal(env.Data, &cr); err != nil {
			return err
		}
		t, err := task(cr.Seq)
		if err != nil {
			return err
		}
		if !t.State.terminal() {
			t.State = TaskCancelled
		}
	default:
		return fmt.Errorf("completion record %d: unexpected type %q", rec, env.Type)
	}
	return nil
}

// Recovered reports whether OpenQueue replayed pre-existing state.
func (q *Queue) Recovered() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recovered
}

// emit delivers one live event (caller holds q.mu).
func (q *Queue) emit(ev wire.Event) {
	if q.cfg.OnEvent != nil {
		ev.At = q.cfg.Now()
		q.cfg.OnEvent(ev)
	}
}

// appendLocked journals one record to w and flushes it to the OS —
// the ack barrier. A failure here is sticky: the queue stops accepting
// mutations rather than diverging from its log.
func (q *Queue) appendLocked(w *journal.Writer, typ string, payload any) error {
	if q.err != nil {
		return q.err
	}
	raw, err := wire.EncodeRecord(typ, payload)
	if err == nil {
		if err = w.Append(raw); err == nil {
			err = w.Flush()
		}
	}
	if err != nil {
		q.err = fmt.Errorf("dispatch: journal append failed, queue is read-only: %w", err)
		return q.err
	}
	return nil
}

// Submit accepts one spec under an idempotency key. A repeated key
// returns the original seq with dup=true and journals nothing.
func (q *Queue) Submit(key string, spec wire.Spec) (seq int64, dup bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return 0, false, q.err
	}
	if key != "" {
		if s, ok := q.byKey[key]; ok {
			return s, true, nil
		}
	}
	if q.sealed {
		return 0, false, ErrSealed
	}
	seq = int64(len(q.tasks))
	if err := q.appendLocked(q.submits, wire.RecSubmit, wire.SubmitRec{Seq: seq, Key: key, Spec: spec}); err != nil {
		return 0, false, err
	}
	q.tasks = append(q.tasks, &Task{Seq: seq, Key: key, Spec: spec})
	if key != "" {
		q.byKey[key] = seq
	}
	q.emit(wire.Event{Kind: cloud.EventEnqueue, Seq: seq})
	return seq, false, nil
}

// Seal closes the submission stream (idempotent).
func (q *Queue) Seal() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	if q.sealed {
		return nil
	}
	if err := q.appendLocked(q.submits, wire.RecSeal, wire.SealRec{}); err != nil {
		return err
	}
	q.sealed = true
	return nil
}

// Sealed reports whether the submission stream is closed.
func (q *Queue) Sealed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sealed
}

// sweepLocked advances lease and backoff state to now: expired leases
// consume an attempt and either requeue through the retry policy or
// fail terminally; requeued tasks whose backoff gate has opened fire
// their requeue event.
func (q *Queue) sweepLocked(now time.Time) {
	for _, t := range q.tasks {
		switch t.State {
		case TaskLeased:
			if t.deadline.After(now) {
				continue
			}
			t.Attempt++
			worker := t.Worker
			t.Worker = ""
			if q.appendLocked(q.results, wire.RecExpire, wire.ExpireRec{Seq: t.Seq, Attempt: t.Attempt}) != nil {
				return
			}
			if t.Attempt >= q.cfg.Retry.MaxAttempts {
				errMsg := fmt.Sprintf("lease expired on attempt %d/%d (last worker %s)",
					t.Attempt, q.cfg.Retry.MaxAttempts, worker)
				if q.appendLocked(q.results, wire.RecResult, wire.ResultRec{Seq: t.Seq, Attempt: t.Attempt, Err: errMsg}) != nil {
					return
				}
				t.State, t.Err = TaskFailed, errMsg
				q.noteCompletionLocked()
				q.emit(wire.Event{Kind: cloud.EventError, Seq: t.Seq, Attempt: t.Attempt, Worker: worker, Err: errMsg})
				continue
			}
			delay := q.cfg.Retry.Backoff(t.Attempt, q.cfg.Seed, 0, t.Seq)
			t.State = TaskQueued
			t.notBefore = now.Add(time.Duration(delay * float64(time.Second)))
			t.requeuePending = true
			q.emit(wire.Event{Kind: cloud.EventRetry, Seq: t.Seq, Attempt: t.Attempt, Worker: worker, NextAttemptAt: t.notBefore})
		case TaskQueued:
			if t.requeuePending && !t.notBefore.After(now) {
				t.requeuePending = false
				q.emit(wire.Event{Kind: cloud.EventRequeue, Seq: t.Seq, Attempt: t.Attempt})
			}
		}
	}
}

// Pull leases up to max eligible units to the worker, lowest seq
// first.
func (q *Queue) Pull(worker string, max int) ([]wire.Unit, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return nil, q.err
	}
	now := q.cfg.Now()
	q.sweepLocked(now)
	if max <= 0 {
		max = 1
	}
	var units []wire.Unit
	for _, t := range q.tasks {
		if len(units) >= max {
			break
		}
		if t.State != TaskQueued || t.notBefore.After(now) {
			continue
		}
		t.State = TaskLeased
		t.Worker = worker
		t.deadline = now.Add(q.cfg.Lease)
		t.requeuePending = false
		units = append(units, wire.Unit{
			Seq:      t.Seq,
			Attempt:  t.Attempt,
			Spec:     t.Spec,
			LeaseSec: q.cfg.Lease.Seconds(),
		})
		q.emit(wire.Event{Kind: cloud.EventStart, Seq: t.Seq, Attempt: t.Attempt, Worker: worker})
	}
	return units, nil
}

// Heartbeat extends the worker's live leases, returning how many were
// still held.
func (q *Queue) Heartbeat(worker string, seqs []int64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.cfg.Now()
	q.sweepLocked(now)
	extended := 0
	for _, seq := range seqs {
		if seq < 0 || seq >= int64(len(q.tasks)) {
			continue
		}
		t := q.tasks[seq]
		if t.State == TaskLeased && t.Worker == worker {
			t.deadline = now.Add(q.cfg.Lease)
			extended++
		}
	}
	return extended
}

// Result records one unit's outcome. accepted=false means the task
// was already terminal (duplicate or post-cancel report) and the first
// outcome was kept. A late result from an expired lease is accepted:
// the work is deterministic, so the outcome is the one any other
// attempt would produce.
func (q *Queue) Result(worker string, seq int64, attempt int, counts map[string]int, errMsg string) (accepted bool, state TaskState, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return false, 0, q.err
	}
	q.sweepLocked(q.cfg.Now())
	if seq < 0 || seq >= int64(len(q.tasks)) {
		return false, 0, fmt.Errorf("dispatch: result for unknown seq %d", seq)
	}
	t := q.tasks[seq]
	if t.State.terminal() {
		return false, t.State, nil
	}
	rr := wire.ResultRec{Seq: seq, Attempt: attempt, Worker: worker, Err: errMsg}
	if errMsg == "" {
		rr.Counts = wire.CountsToPairs(counts)
	}
	if err := q.appendLocked(q.results, wire.RecResult, rr); err != nil {
		return false, 0, err
	}
	t.Worker = worker
	if attempt > t.Attempt {
		t.Attempt = attempt
	}
	if errMsg != "" {
		t.State, t.Err = TaskFailed, errMsg
		q.emit(wire.Event{Kind: cloud.EventError, Seq: seq, Attempt: attempt, Worker: worker, Err: errMsg})
	} else {
		t.State, t.Counts = TaskDone, counts
		q.emit(wire.Event{Kind: cloud.EventDone, Seq: seq, Attempt: attempt, Worker: worker})
	}
	q.noteCompletionLocked()
	return true, t.State, nil
}

// Cancel cancels by key (preferred) or seq. accepted=false means the
// task was already terminal.
func (q *Queue) Cancel(key string, seq int64) (accepted bool, state TaskState, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return false, 0, q.err
	}
	q.sweepLocked(q.cfg.Now())
	if key != "" {
		s, ok := q.byKey[key]
		if !ok {
			return false, 0, fmt.Errorf("dispatch: cancel of unknown key %q", key)
		}
		seq = s
	}
	if seq < 0 || seq >= int64(len(q.tasks)) {
		return false, 0, fmt.Errorf("dispatch: cancel of unknown seq %d", seq)
	}
	t := q.tasks[seq]
	if t.State.terminal() {
		return false, t.State, nil
	}
	if err := q.appendLocked(q.results, wire.RecCancel, wire.CancelRec{Seq: seq}); err != nil {
		return false, 0, err
	}
	t.State = TaskCancelled
	q.noteCompletionLocked()
	q.emit(wire.Event{Kind: cloud.EventCancel, Seq: seq, Attempt: t.Attempt})
	return true, TaskCancelled, nil
}

// Stats is a point-in-time tally of queue states.
type Stats struct {
	Sealed    bool
	Jobs      int
	Queued    int
	Leased    int
	Done      int
	Failed    int
	Cancelled int
}

// Terminal reports the number of finished tasks.
func (s Stats) Terminal() int { return s.Done + s.Failed + s.Cancelled }

// Stats sweeps and tallies.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(q.cfg.Now())
	st := Stats{Sealed: q.sealed, Jobs: len(q.tasks)}
	for _, t := range q.tasks {
		switch t.State {
		case TaskQueued:
			st.Queued++
		case TaskLeased:
			st.Leased++
		case TaskDone:
			st.Done++
		case TaskFailed:
			st.Failed++
		case TaskCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Results assembles the counts-plane merge of every terminal task.
func (q *Queue) Results() *cloud.ResultSet {
	q.mu.Lock()
	defer q.mu.Unlock()
	rs := cloud.NewResultSet()
	for _, t := range q.tasks {
		if !t.State.terminal() {
			continue
		}
		jr := cloud.JobResult{
			Seq: t.Seq, Circuit: t.Spec.ExecLabel(),
			Batch: t.Spec.ExecBatch, Shots: t.Spec.ExecShots,
		}
		switch t.State {
		case TaskCancelled:
			jr.Cancelled = true
		case TaskFailed:
			jr.Err = t.Err
		case TaskDone:
			jr.Counts = t.Counts
		}
		rs.Ingest(jr)
	}
	return rs
}

// TraceInputs returns every submission's spec in seq order plus its
// cancelled flag — the trace plane's replay input.
func (q *Queue) TraceInputs() (specs []wire.Spec, cancelled []bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	specs = make([]wire.Spec, len(q.tasks))
	cancelled = make([]bool, len(q.tasks))
	for i, t := range q.tasks {
		specs[i] = t.Spec
		cancelled[i] = t.State == TaskCancelled
	}
	return specs, cancelled
}

// noteCompletionLocked counts completion-log activity toward the
// checkpoint cadence.
func (q *Queue) noteCompletionLocked() {
	q.sinceCkpt++
	if q.sinceCkpt >= q.cfg.CheckpointEvery {
		q.writeCheckpointLocked()
	}
}

// writeCheckpointLocked persists the watermark (best-effort: a failed
// checkpoint only weakens future damage detection, never correctness).
func (q *Queue) writeCheckpointLocked() {
	q.sinceCkpt = 0
	ck := checkpoint{SubmitRecs: q.submits.Records(), ResultRecs: q.results.Records()}
	_ = writeCheckpointFile(filepath.Join(q.cfg.Dir, ckptName), ck)
}

// Close checkpoints and seals both WAL streams. The queue refuses
// further mutations once closed.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.submits == nil {
		return nil
	}
	q.writeCheckpointLocked()
	err1 := q.submits.Close()
	err2 := q.results.Close()
	q.submits, q.results = nil, nil
	if q.err == nil {
		q.err = errors.New("dispatch: queue closed")
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// --- checkpoint file framing ---------------------------------------------

// writeCheckpointFile writes the checkpoint snapshot to a temp file and
// renames it into place, so a crash never leaves a half-written
// checkpoint.
func writeCheckpointFile(path string, ck checkpoint) error {
	var buf bytes.Buffer
	if err := trace.WriteSnapshot(&buf, wire.Version, ck); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readCheckpoint loads the watermark file. A missing file is nil (no
// watermark to enforce); a torn, corrupt or other-version file is
// likewise nil — the checkpoint is an extra guard, and a file that died
// mid-rename must not block an otherwise clean recovery.
func readCheckpoint(path string) (*checkpoint, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck checkpoint
	if trace.ReadSnapshot(bytes.NewReader(buf), wire.Version, &ck) != nil {
		return nil, nil
	}
	return &ck, nil
}
