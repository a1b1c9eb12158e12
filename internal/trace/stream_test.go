package trace

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// streamJobs builds a deterministic job set covering the field space:
// every status, empty and long strings, zero and large counters.
func streamJobs() []*Job {
	base := time.Date(2019, 3, 14, 9, 26, 53, 589793238, time.UTC)
	r := rand.New(rand.NewSource(11))
	statuses := []Status{StatusDone, StatusError, StatusCancelled}
	jobs := make([]*Job, 64)
	for i := range jobs {
		submit := base.Add(time.Duration(i) * 97 * time.Minute)
		start := submit.Add(time.Duration(r.Intn(7200)) * time.Second)
		jobs[i] = &Job{
			ID:            int64(i),
			User:          "",
			Machine:       "ibmq_athens",
			MachineQubits: 5 + i%60,
			Public:        i%2 == 0,
			CircuitName:   "qft",
			BatchSize:     1 + i%900,
			Shots:         1 + r.Intn(8192),
			Width:         1 + i%27,
			TotalDepth:    r.Intn(1 << 20),
			TotalGateOps:  r.Intn(1 << 24),
			CXTotal:       r.Intn(1 << 16),
			MemSlots:      i % 32,
			SubmitTime:    submit,
			StartTime:     start,
			EndTime:       start.Add(time.Duration(r.Intn(3600)) * time.Second),
			Status:        statuses[i%3],
			CompileEpoch:  i,
			ExecEpoch:     i + i%2,
		}
		if i%5 == 0 {
			jobs[i].User = "user-with-a-longer-name-0123456789"
			jobs[i].CircuitName = ""
		}
	}
	return jobs
}

func TestJobStreamRoundTrip(t *testing.T) {
	var buf []byte
	jobs := streamJobs()
	var frames [][]byte
	for _, j := range jobs {
		buf = buf[:0]
		buf = AppendJob(buf, j)
		frames = append(frames, bytes.Clone(buf))
	}
	for i, f := range frames {
		got, err := DecodeJob(f)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, jobs[i]) {
			t.Fatalf("job %d round-trip mismatch:\n got %+v\nwant %+v", i, got, jobs[i])
		}
		// The JSON view — what traces are compared by — must be
		// byte-identical too (UTC locations, nanosecond precision).
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(jobs[i])
		if !bytes.Equal(gj, wj) {
			t.Fatalf("job %d JSON mismatch:\n got %s\nwant %s", i, gj, wj)
		}
	}
}

// TestJobStreamTruncationSafe decodes every strict prefix of an
// encoded record and a version-mangled copy: all must error, none may
// panic.
func TestJobStreamTruncationSafe(t *testing.T) {
	j := streamJobs()[7]
	full := AppendJob(nil, j)
	for n := 0; n < len(full); n++ {
		if _, err := DecodeJob(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	if _, err := DecodeJob(append(bytes.Clone(full), 0x7f)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	bad := bytes.Clone(full)
	bad[0] = 99
	if _, err := DecodeJob(bad); err == nil {
		t.Fatal("unknown wire version decoded without error")
	}
}

func TestSnapshotChecksumRoundTrip(t *testing.T) {
	type payload struct {
		Name  string
		Count int
		When  time.Time
	}
	in := payload{Name: "fleet", Count: 42, When: time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, 2, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := ReadSnapshot(bytes.NewReader(buf.Bytes()), 2, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: payload %+v", out)
	}
}

// TestSnapshotBitFlipRejected flips one bit at every byte position of
// a snapshot: every corruption — the version byte included — must
// surface as a clear error (never a panic, never a silent wrong
// decode).
func TestSnapshotBitFlipRejected(t *testing.T) {
	type payload struct {
		Name  string
		Count int
	}
	in := payload{Name: "fleet", Count: 42}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, 2, in); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for pos := 0; pos < len(data); pos++ {
		corrupt := bytes.Clone(data)
		corrupt[pos] ^= 0x04
		var out payload
		if err := ReadSnapshot(bytes.NewReader(corrupt), 2, &out); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", pos)
		}
	}
	// Torn footer: a file cut inside the checksum is corrupt, not
	// silently short.
	var out payload
	if err := ReadSnapshot(bytes.NewReader(data[:len(data)-2]), 2, &out); err == nil {
		t.Fatal("torn checksum footer went undetected")
	}
}

// TestSnapshotOtherVersionRejected: a reader accepts exactly the
// version it names. A version-1 envelope (the pre-checksum framing: no
// footer) and a newer one are both errors, never a silent decode.
func TestSnapshotOtherVersionRejected(t *testing.T) {
	type payload struct{ Count int }
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(payload{Count: 7}); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(snapshotMagic+"\x01"), gobBody.Bytes()...)
	var out payload
	if err := ReadSnapshot(bytes.NewReader(v1), 2, &out); err == nil {
		t.Fatal("version-1 snapshot read by a version-2 reader")
	}
	var v3 bytes.Buffer
	if err := WriteSnapshot(&v3, 3, payload{Count: 7}); err != nil {
		t.Fatal(err)
	}
	if err := ReadSnapshot(bytes.NewReader(v3.Bytes()), 2, &out); err == nil {
		t.Fatal("version-3 snapshot read by a version-2 reader")
	}
	if out.Count != 0 {
		t.Fatalf("rejected snapshots leaked payload %+v", out)
	}
}
