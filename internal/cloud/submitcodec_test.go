package cloud

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
	"time"

	"qcloud/internal/journal"
)

func submitCodecSpecs() []journalSubmit {
	base := time.Date(2021, 3, 14, 9, 26, 53, 589793238, time.UTC)
	return []journalSubmit{
		{Machine: "ibmq_athens", SubmitSeq: 7, Spec: JobSpec{
			SubmitTime: base, User: "tenant:team-α/grp", Machine: "ibmq_athens",
			BatchSize: 75, Shots: 8192, CircuitName: "qft", Width: 5,
			TotalDepth: 1200, TotalGateOps: 4800, CXTotal: 900, MemSlots: 5,
			PatienceSec: 86400.5, Privileged: true,
		}},
		{Machine: "", SubmitSeq: 0, Spec: JobSpec{SubmitTime: time.Unix(0, 1).UTC()}},
		{Machine: "ibmq_rome", SubmitSeq: 1 << 40, Spec: JobSpec{
			SubmitTime: base.Add(400 * 24 * time.Hour), User: "u",
			Machine: "ibmq_rome", Shots: 1, PatienceSec: 0,
		}},
	}
}

// TestSubmitRecordRoundTrip pins the input log's binary codec: every
// field survives encode→decode, including non-ASCII users and zero
// values.
func TestSubmitRecordRoundTrip(t *testing.T) {
	for i, js := range submitCodecSpecs() {
		buf := appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)
		if buf[0] != jrecSubmit2 {
			t.Fatalf("record %d: type byte %d, want jrecSubmit2", i, buf[0])
		}
		got, err := decodeSubmitRecord(buf[1:])
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.Machine != js.Machine || got.SubmitSeq != js.SubmitSeq || got.Spec != js.Spec {
			t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v", i, got, js)
		}
	}
}

// TestSubmitRecordMalformed: truncation at every byte boundary and
// trailing garbage are errors, never panics.
func TestSubmitRecordMalformed(t *testing.T) {
	js := submitCodecSpecs()[0]
	full := appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)[1:]
	for n := 0; n < len(full); n++ {
		if _, err := decodeSubmitRecord(full[:n]); err == nil {
			t.Fatalf("decode of %d/%d byte prefix succeeded", n, len(full))
		}
	}
	if _, err := decodeSubmitRecord(append(append([]byte{}, full...), 0x7f)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

// TestJournalGobSubmitRecordRejected: the input log's retired
// gob-framed record type (4) is no longer read. A journal holding one
// fails recovery with an error instead of a panic or a misread.
func TestJournalGobSubmitRecordRejected(t *testing.T) {
	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{
		Dir:              t.TempDir(),
		CheckpointEvery:  36 * time.Hour,
		killAfterRecords: 120,
	}
	specs := jtSpecs()
	if _, killed := runJournaled(t, cfg, specs); !killed {
		t.Fatal("kill hook did not fire; raise the spec count or lower killAfterRecords")
	}
	cfg.Journal.killAfterRecords = 0

	// Append one record in the old framing: type byte 4, then a gob
	// stream of the submission.
	dir := submitStreamDir(cfg.Journal.Dir)
	scan, err := journal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.OpenAt(dir, scan.Records, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.NewBuffer([]byte{4})
	if err := gob.NewEncoder(rec).Encode(journalSubmit{Machine: "ibmq_athens", Spec: *specs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Recover(cfg)
	if err == nil {
		s.Close()
		t.Fatal("recovery accepted a gob-framed submit record")
	}
	if want := fmt.Sprintf("input log record %d is not a submission", scan.Records); !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery error %q, want it to contain %q", err, want)
	}
}
