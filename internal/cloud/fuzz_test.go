package cloud

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeSubmitRecord checks the input log's jrecSubmit2 decoder
// never panics, and that any payload it accepts re-encodes to bytes
// that decode to the same submission. Equality is checked on the
// re-encoded bytes, not with ==, so a NaN patience still compares
// equal to itself.
func FuzzDecodeSubmitRecord(f *testing.F) {
	for _, js := range submitCodecSpecs() {
		f.Add(appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)[1:])
	}
	js := submitCodecSpecs()[0]
	full := appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)[1:]
	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	for _, pos := range []int{0, 1, len(full) / 2, len(full) - 1} {
		flipped := bytes.Clone(full)
		flipped[pos] ^= 0x04
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(full), 0x7f))
	f.Fuzz(func(t *testing.T, b []byte) {
		js, err := decodeSubmitRecord(b)
		if err != nil {
			return // rejection is fine; panics are not
		}
		enc := appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)[1:]
		again, err := decodeSubmitRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if re := appendSubmitRecord(nil, again.Machine, again.SubmitSeq, &again.Spec)[1:]; !bytes.Equal(re, enc) {
			t.Fatalf("re-encode changed the submission:\n got %+v\nwant %+v", again, js)
		}
	})
}

// FuzzReadCheckpoint checks ReadCheckpoint (and the snapshot envelope
// under it) never panics, and that any checkpoint it accepts
// re-encodes to bytes that read back to the same checkpoint.
func FuzzReadCheckpoint(f *testing.F) {
	// Four simulated hours with four early study jobs keep the seed
	// small (about 6 KB, mostly gob type descriptors), so minimizing an
	// interesting input stays quick, while the job and queue lists are
	// already non-empty.
	cfg := jtConfig(3, 1)
	s, err := Open(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, sp := range jtSpecs()[:4] {
		sp.SubmitTime = cfg.Start.Add(10 * time.Minute)
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			f.Fatal(err)
		}
	}
	s.AdvanceTo(cfg.Start.Add(4 * time.Hour))
	ck, err := s.Checkpoint()
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	if len(ck.Machines[0].Jobs) == 0 || len(ck.Machines[0].Queue) == 0 {
		f.Fatal("seed checkpoint has no jobs or queue entries; advance further")
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, n := range []int{0, 4, 5, len(full) / 2, len(full) - 2} {
		f.Add(full[:n])
	}
	for _, pos := range []int{0, 4, 5, len(full) / 2, len(full) - 1} {
		flipped := bytes.Clone(full)
		flipped[pos] ^= 0x08
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(b))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var enc, re bytes.Buffer
		if err := WriteCheckpoint(&enc, ck); err != nil {
			t.Fatalf("re-encode accepted checkpoint: %v", err)
		}
		again, err := ReadCheckpoint(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if err := WriteCheckpoint(&re, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), enc.Bytes()) {
			t.Fatal("re-encode changed the checkpoint")
		}
	})
}
