// Package snapshot is the checkpoint container format of the dynamic
// engine: a versioned, sectioned, checksummed binary layout, written
// and read by one Codec.
//
// A snapshot file is
//
//	magic "LBSNAP\r\n" (8 bytes)       — the \r\n catches text-mode mangling
//	version uint32                      — format revision, currently 2
//	section count uint32
//	section*:
//	    name length uint8, name bytes   — short ASCII identifier
//	    payload length uint32
//	    payload bytes
//	    payload CRC32-Castagnoli uint32
//	file CRC32-Castagnoli uint32        — over everything before it
//
// All integers are little-endian. Floats travel as IEEE-754 bit
// patterns (math.Float64bits), never as decimal text, because the
// engine's headline invariant — a resumed run finishes byte-identical
// to the uninterrupted one — requires every incrementally-accumulated
// float to round-trip exactly.
//
// Reading is paranoid by construction: the file checksum is verified
// before any section is parsed, every section payload carries its own
// CRC, sections must be read in the exact order the restorer asks for
// them (a reordered file is a structured error, not a silently
// misassembled state), and every primitive read is bounds-checked.
// Corruption never panics and never loads silently; it surfaces as an
// *Error naming the section and byte offset.
//
// A Codec runs one walk in either direction, so a type saves and
// restores its state with a single method. A writing Codec reuses one
// growing buffer across Reset cycles, so an engine checkpointing on a
// cadence allocates only until the buffer reaches its high-water mark
// — steady-state rounds stay at zero allocations even with
// checkpointing enabled.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Version is the current snapshot format revision. Decoders reject
// files written by a different revision. Revision 2 added each delay
// wheel record's source and send round.
const Version = 2

const (
	magic      = "LBSNAP\r\n"
	headerSize = len(magic) + 4 + 4 // magic + version + section count
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Error is a structured decode failure: the section being parsed (""
// for file-level framing), the byte offset the problem was detected
// at, and what went wrong.
type Error struct {
	Section string // section name, "" for file-level framing errors
	Offset  int    // byte offset into the file (or section payload)
	Msg     string
}

func (e *Error) Error() string {
	if e.Section == "" {
		return fmt.Sprintf("snapshot: offset %d: %s", e.Offset, e.Msg)
	}
	return fmt.Sprintf("snapshot: section %q offset %d: %s", e.Section, e.Offset, e.Msg)
}

// Decoder checks a snapshot file's framing. Construction verifies the
// header and the file checksum; a reading Codec then takes the
// sections from it strictly in file order.
type Decoder struct {
	data []byte
	off  int
	nsec int // declared section count
	read int // sections handed out so far
}

// NewDecoder validates the header, the trailer checksum and the
// declared section count of data. It never panics on malformed input.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < headerSize+4 {
		return nil, &Error{Offset: len(data), Msg: fmt.Sprintf("file truncated: %d bytes, need at least %d", len(data), headerSize+4)}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &Error{Offset: 0, Msg: "bad magic (not a snapshot file)"}
	}
	ver := binary.LittleEndian.Uint32(data[len(magic):])
	if ver != Version {
		return nil, &Error{Offset: len(magic), Msg: fmt.Sprintf("unsupported format version %d (want %d)", ver, Version)}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, &Error{Offset: len(body), Msg: fmt.Sprintf("file checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	d := &Decoder{data: body, off: headerSize}
	d.nsec = int(binary.LittleEndian.Uint32(data[len(magic)+4:]))
	return d, nil
}

// next parses the next section, checks its name and checksum, and
// returns its payload.
func (d *Decoder) next(name string) ([]byte, error) {
	if d.read == d.nsec {
		return nil, &Error{Section: name, Offset: d.off, Msg: fmt.Sprintf("expected section %q but all %d sections are consumed", name, d.nsec)}
	}
	if d.off >= len(d.data) {
		return nil, &Error{Section: name, Offset: d.off, Msg: "file truncated before section header"}
	}
	nameLen := int(d.data[d.off])
	hdr := d.off + 1
	if nameLen == 0 || hdr+nameLen+4 > len(d.data) {
		return nil, &Error{Section: name, Offset: d.off, Msg: "file truncated inside section header"}
	}
	got := string(d.data[hdr : hdr+nameLen])
	plen := int(binary.LittleEndian.Uint32(d.data[hdr+nameLen:]))
	payloadAt := hdr + nameLen + 4
	if payloadAt+plen+4 > len(d.data) {
		return nil, &Error{Section: got, Offset: d.off, Msg: fmt.Sprintf("file truncated inside section payload (%d bytes declared, %d available)", plen, len(d.data)-payloadAt-4)}
	}
	payload := d.data[payloadAt : payloadAt+plen]
	crc := binary.LittleEndian.Uint32(d.data[payloadAt+plen:])
	if got != name {
		return nil, &Error{Section: got, Offset: d.off, Msg: fmt.Sprintf("section order violation: expected %q, found %q", name, got)}
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != crc {
		return nil, &Error{Section: got, Offset: payloadAt, Msg: fmt.Sprintf("section checksum mismatch: computed %08x, stored %08x", sum, crc)}
	}
	d.off = payloadAt + plen + 4
	d.read++
	return payload, nil
}

// Close verifies every declared section was consumed and nothing
// trails the last one.
func (d *Decoder) Close() error {
	if d.read != d.nsec {
		return &Error{Offset: d.off, Msg: fmt.Sprintf("%d of %d sections consumed at close", d.read, d.nsec)}
	}
	if d.off != len(d.data) {
		return &Error{Offset: d.off, Msg: fmt.Sprintf("%d bytes of trailing garbage after the last section", len(d.data)-d.off)}
	}
	return nil
}
