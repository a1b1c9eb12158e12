package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Streaming job codec: a compact binary encoding of single Job
// records for the session journal's append-only frames. Unlike the
// CSV/JSON codecs this one is record-at-a-time (no header, no
// enclosing document), so a journaled session can write each job as
// it finishes and hold none of them in memory.
//
// Times are encoded as UTC Unix nanoseconds; every trace instant lies
// inside the study window, far from UnixNano's ±292-year range limit.

// jobWireVersion stamps each encoded record so the layout can evolve
// without guessing.
const jobWireVersion byte = 1

// AppendJob appends the binary encoding of j to buf and returns the
// extended slice (append-style, so callers can reuse one buffer for a
// whole stream).
func AppendJob(buf []byte, j *Job) []byte {
	buf = append(buf, jobWireVersion)
	buf = binary.AppendVarint(buf, j.ID)
	buf = AppendString(buf, j.User)
	buf = AppendString(buf, j.Machine)
	buf = binary.AppendVarint(buf, int64(j.MachineQubits))
	buf = AppendBool(buf, j.Public)
	buf = AppendString(buf, j.CircuitName)
	buf = binary.AppendVarint(buf, int64(j.BatchSize))
	buf = binary.AppendVarint(buf, int64(j.Shots))
	buf = binary.AppendVarint(buf, int64(j.Width))
	buf = binary.AppendVarint(buf, int64(j.TotalDepth))
	buf = binary.AppendVarint(buf, int64(j.TotalGateOps))
	buf = binary.AppendVarint(buf, int64(j.CXTotal))
	buf = binary.AppendVarint(buf, int64(j.MemSlots))
	buf = binary.AppendVarint(buf, j.SubmitTime.UnixNano())
	buf = binary.AppendVarint(buf, j.StartTime.UnixNano())
	buf = binary.AppendVarint(buf, j.EndTime.UnixNano())
	buf = AppendString(buf, string(j.Status))
	buf = binary.AppendVarint(buf, int64(j.CompileEpoch))
	buf = binary.AppendVarint(buf, int64(j.ExecEpoch))
	return buf
}

// DecodeJob decodes one record produced by AppendJob. It never
// panics: malformed input (truncation, bad lengths) is an error, a
// second line of defense behind the journal's frame checksums.
func DecodeJob(b []byte) (*Job, error) {
	d := NewDecoder("job", jobWireVersion, b)
	j := &Job{}
	j.ID = d.Varint()
	j.User = d.Str()
	j.Machine = d.Str()
	j.MachineQubits = d.Int()
	j.Public = d.Bool()
	j.CircuitName = d.Str()
	j.BatchSize = d.Int()
	j.Shots = d.Int()
	j.Width = d.Int()
	j.TotalDepth = d.Int()
	j.TotalGateOps = d.Int()
	j.CXTotal = d.Int()
	j.MemSlots = d.Int()
	j.SubmitTime = d.Time()
	j.StartTime = d.Time()
	j.EndTime = d.Time()
	j.Status = Status(d.Str())
	j.CompileEpoch = d.Int()
	j.ExecEpoch = d.Int()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return j, nil
}

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendFloat64 appends v's IEEE-754 bits as 8 little-endian bytes.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// Decoder reads the fixed field sequence of one binary record (the
// Append* layout above) with a sticky error, so a decode body stays a
// flat field list. After the first failure every read returns a zero
// value; Finish reports the failure, naming the record kind.
type Decoder struct {
	kind string
	b    []byte
	off  int
	err  error
}

// NewDecoder starts decoding a kind record ("job", "submit") from b,
// whose first byte must be the record's wire version.
func NewDecoder(kind string, version byte, b []byte) *Decoder {
	d := &Decoder{kind: kind, b: b}
	if v := d.byte(); d.err == nil && v != version {
		d.err = fmt.Errorf("trace: %s record version %d, want %d", kind, v, version)
	}
	return d
}

// Finish returns the first decode error, or an error if bytes remain
// after the last field.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		return fmt.Errorf("trace: %s record has %d trailing bytes", d.kind, len(d.b)-d.off)
	}
	return d.err
}

func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: truncated %s record: %s at offset %d", d.kind, msg, d.off)
	}
}

func (d *Decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads one byte; any nonzero value is true.
func (d *Decoder) Bool() bool { return d.byte() != 0 }

// Str reads an AppendString field (not named String, so a Decoder
// is no fmt.Stringer that would consume input when printed).
func (d *Decoder) Str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string body")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Time reads a UTC instant stored as signed varint Unix nanoseconds.
func (d *Decoder) Time() time.Time {
	return time.Unix(0, d.Varint()).UTC()
}

// Float64 reads an AppendFloat64 field.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}
