package serve

import (
	"encoding/binary"
	"fmt"
)

// Trace-context frame extension: a fixed-size envelope a traced sender
// may prepend to an ITW1 frame so binary-wire hops join the sender's
// trace without an out-of-band channel (the fleet router wraps the
// frames it forwards to replicas; HTTP hops also carry the ID in the
// X-Inputtune-Trace header).
//
// Extension layout (little-endian):
//
//	offset  size  field
//	0       4     magic "ITX1"
//	4       8     trace ID (nonzero uint64)
//	12      1     flags (only bit 0 "sampled" is defined; others reject)
//
// The extension is strictly validated: a frame that opens with the ITX1
// magic but is truncated, carries a zero ID, or sets unknown flag bits
// is a malformed request, not a plain ITW1 frame. The inner frame is
// untouched — fingerprints, decision caches, and consistent-hash
// sharding are functions of the ITW1 bytes only, so turning tracing on
// never moves a request to a different replica.

var traceMagic = [4]byte{'I', 'T', 'X', '1'}

const (
	// TraceContextLen is the extension's fixed wire size.
	TraceContextLen = 13
	// traceFlagSampled marks the trace as head-sampled upstream. It is
	// the only defined flag; currently always set by AppendTraceContext.
	traceFlagSampled = 0x01
)

// AppendTraceContext appends the trace-context extension for id to dst.
// id must be nonzero (a zero ID cannot cross the wire; PeelTraceContext
// rejects it).
func AppendTraceContext(dst []byte, id uint64) []byte {
	dst = append(dst, traceMagic[:]...)
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], id)
	dst = append(dst, word[:]...)
	return append(dst, traceFlagSampled)
}

// validateTraceContext checks the 9 bytes after the magic.
func validateTraceContext(id uint64, flags byte) error {
	if flags&^traceFlagSampled != 0 {
		return &RequestError{Err: fmt.Errorf("serve: trace context: unknown flag bits 0x%02x", flags)}
	}
	if id == 0 {
		return &RequestError{Err: fmt.Errorf("serve: trace context: zero trace ID")}
	}
	return nil
}

// PeelTraceContext strips a leading trace-context extension from a
// buffered frame. When buf does not open with the ITX1 magic it is
// returned unchanged with ok=false and no error; when it does, the
// extension is validated strictly and rest aliases the inner frame.
func PeelTraceContext(buf []byte) (id uint64, rest []byte, ok bool, err error) {
	if len(buf) < 4 || [4]byte(buf[:4]) != traceMagic {
		return 0, buf, false, nil
	}
	if len(buf) < TraceContextLen {
		return 0, buf, false, &RequestError{Err: fmt.Errorf("serve: trace context: truncated extension (%d bytes)", len(buf))}
	}
	id = binary.LittleEndian.Uint64(buf[4:12])
	if err := validateTraceContext(id, buf[12]); err != nil {
		return 0, buf, false, err
	}
	return id, buf[TraceContextLen:], true, nil
}

// readTraceContextBody consumes the 9 extension bytes after an already-
// read ITX1 magic from a stream.
func (fr *frameReader) readTraceContextBody() (uint64, error) {
	body, err := fr.read(TraceContextLen - 4)
	if err != nil {
		return 0, fmt.Errorf("serve: trace context: %w", err)
	}
	id := binary.LittleEndian.Uint64(body[:8])
	if err := validateTraceContext(id, body[8]); err != nil {
		return 0, err
	}
	return id, nil
}
