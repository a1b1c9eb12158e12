package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeJob checks DecodeJob never panics, and that any record it
// accepts re-encodes to bytes that decode to the same job. The input
// need not round-trip byte for byte: a non-minimal varint or a Bool
// byte other than 1 decodes to a value whose encoding is canonical.
func FuzzDecodeJob(f *testing.F) {
	for _, j := range streamJobs()[:8] {
		f.Add(AppendJob(nil, j))
	}
	full := AppendJob(nil, streamJobs()[7])
	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	for _, pos := range []int{0, 1, 5, len(full) / 2, len(full) - 1} {
		flipped := bytes.Clone(full)
		flipped[pos] ^= 0x04
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(full), 0x7f))
	f.Fuzz(func(t *testing.T, b []byte) {
		j, err := DecodeJob(b)
		if err != nil {
			return // rejection is fine; panics are not
		}
		again, err := DecodeJob(AppendJob(nil, j))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("re-encode changed the job:\n got %+v\nwant %+v", again, j)
		}
	})
}
