package cloud

import (
	"encoding/binary"

	"qcloud/internal/trace"
)

// Binary codec for the journal's input log: jrecSubmit2 records use
// the trace package's varint record layout and share its Decoder.

// submitWireVersion stamps each jrecSubmit2 payload so the layout can
// evolve without guessing.
const submitWireVersion byte = 1

// appendSubmitRecord appends the jrecSubmit2 encoding of one accepted
// submission (record type byte included) to buf and returns the
// extended slice.
func appendSubmitRecord(buf []byte, machine string, submitSeq int64, s *JobSpec) []byte {
	buf = append(buf, jrecSubmit2, submitWireVersion)
	buf = trace.AppendString(buf, machine)
	buf = binary.AppendVarint(buf, submitSeq)
	buf = binary.AppendVarint(buf, s.SubmitTime.UnixNano())
	buf = trace.AppendString(buf, s.User)
	buf = trace.AppendString(buf, s.Machine)
	buf = binary.AppendVarint(buf, int64(s.BatchSize))
	buf = binary.AppendVarint(buf, int64(s.Shots))
	buf = trace.AppendString(buf, s.CircuitName)
	buf = binary.AppendVarint(buf, int64(s.Width))
	buf = binary.AppendVarint(buf, int64(s.TotalDepth))
	buf = binary.AppendVarint(buf, int64(s.TotalGateOps))
	buf = binary.AppendVarint(buf, int64(s.CXTotal))
	buf = binary.AppendVarint(buf, int64(s.MemSlots))
	buf = trace.AppendFloat64(buf, s.PatienceSec)
	return trace.AppendBool(buf, s.Privileged)
}

// decodeSubmitRecord decodes one jrecSubmit2 payload (record type byte
// already stripped). Malformed input is an error, never a panic — the
// second line of defense behind the journal's frame checksums.
func decodeSubmitRecord(b []byte) (journalSubmit, error) {
	d := trace.NewDecoder("submit", submitWireVersion, b)
	var js journalSubmit
	js.Machine = d.Str()
	js.SubmitSeq = d.Varint()
	js.Spec.SubmitTime = d.Time()
	js.Spec.User = d.Str()
	js.Spec.Machine = d.Str()
	js.Spec.BatchSize = d.Int()
	js.Spec.Shots = d.Int()
	js.Spec.CircuitName = d.Str()
	js.Spec.Width = d.Int()
	js.Spec.TotalDepth = d.Int()
	js.Spec.TotalGateOps = d.Int()
	js.Spec.CXTotal = d.Int()
	js.Spec.MemSlots = d.Int()
	js.Spec.PatienceSec = d.Float64()
	js.Spec.Privileged = d.Bool()
	if err := d.Finish(); err != nil {
		return journalSubmit{}, err
	}
	return js, nil
}
