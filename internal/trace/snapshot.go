package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot framing: a four-byte magic, one version byte, a gob
// payload, then a 4-byte little-endian CRC32C footer over the payload.
// Gob (not JSON) because simulator state legitimately holds ±Inf
// floats — a fresh machine frontier is -Inf, a finalized one +Inf —
// which JSON cannot encode. The version byte belongs to the caller's
// payload layout; a reader names the one version it accepts, so a
// stale, bit-flipped or torn snapshot is rejected with an error before
// gob ever sees its bytes.
const snapshotMagic = "QCSN"

// snapshotCRC is the footer polynomial (CRC32C, as in the journal's
// frame checksums).
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot frames payload as a version snapshot on w.
func WriteSnapshot(w io.Writer, version byte, payload any) error {
	buf := bytes.NewBuffer(append([]byte(snapshotMagic), version))
	if err := gob.NewEncoder(buf).Encode(payload); err != nil {
		return fmt.Errorf("trace: encode snapshot: %w", err)
	}
	body := buf.Bytes()[len(snapshotMagic)+1:]
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(body, snapshotCRC)))
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("trace: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot from r into payload. The envelope
// must carry the magic, exactly version, and a matching checksum.
func ReadSnapshot(r io.Reader, version byte, payload any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("trace: read snapshot: %w", err)
	}
	hdr := len(snapshotMagic) + 1
	if len(data) < hdr+4 {
		return fmt.Errorf("trace: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("trace: bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	if v := data[len(snapshotMagic)]; v != version {
		return fmt.Errorf("trace: snapshot version %d not supported (want %d)", v, version)
	}
	body, footer := data[hdr:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(footer)
	if got := crc32.Checksum(body, snapshotCRC); got != want {
		return fmt.Errorf("trace: snapshot checksum mismatch (have %08x, want %08x): file is corrupt or torn", got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(payload); err != nil {
		return fmt.Errorf("trace: decode snapshot: %w", err)
	}
	return nil
}
