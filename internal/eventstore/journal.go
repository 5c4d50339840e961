package eventstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"fsmonitor/internal/events"
)

// Journal format. The journal is a sequence of framed records, all
// integers little-endian:
//
//	u32 len | u32 crc32c | u8 kind | body
//
// len counts the body bytes; crc32c (Castagnoli) covers the kind byte and
// the body. Three kinds exist:
//
//   - 'E' — an event batch; the body is the Block wire encoding (see
//     events/codec.go), the same bytes the aggregation tier republishes,
//     so a store on the block path writes the cached wire image as is.
//   - 'R' — a reported high-water mark; the body is one u64 seq.
//   - 'L' — the lane position: the last seq the store assigned, one u64.
//     Replay never restarts the sequence lane at or below it. Event
//     records carry their own seqs, so only CompactJournal writes it, and
//     only when the retained window does not end at the last assigned seq
//     (every event was purged): without it, the reopened store would
//     reissue seqs consumers already hold.
//
// Replay (Open) distinguishes a torn tail from corruption. A crash can
// only tear the final write, so a frame that is incomplete at end of file
// — a short header, a length past EOF, or a checksum mismatch on a frame
// that ends exactly at EOF — is truncated away and counted in
// Stats.TornTails. Any bad frame with bytes after it is corruption: Open
// fails with ErrCorruptJournal and the frame's byte offset, and never
// skips past it.
const (
	frameHeaderLen = 9

	kindEvents   byte = 'E'
	kindReported byte = 'R'
	kindLane     byte = 'L'

	// compactFrameEvents caps the events CompactJournal packs into one
	// frame, so a large retained window never becomes one huge record.
	compactFrameEvents = 1024
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptJournal reports a damaged journal record that is not a torn
// final write. The wrapping error names the file and byte offset.
var ErrCorruptJournal = errors.New("eventstore: corrupt journal")

// ErrLegacyJournal reports a journal in the JSONL format of earlier
// releases, which this version does not read. Replay it with the release
// that wrote it, or move it aside to start a fresh journal.
var ErrLegacyJournal = errors.New("eventstore: legacy JSONL journal is not supported")

// recordCRC checksums one record: the kind byte at hdr[8] and the body.
func recordCRC(hdr, body []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, hdr[8:frameHeaderLen]), castagnoli, body)
}

// putFrameHeader fills hdr (frameHeaderLen bytes) for a record of the
// given kind and body.
func putFrameHeader(hdr []byte, kind byte, body []byte) {
	binary.LittleEndian.PutUint32(hdr, uint32(len(body)))
	hdr[8] = kind
	binary.LittleEndian.PutUint32(hdr[4:], recordCRC(hdr, body))
}

// appendEventsFrame appends one whole 'E' frame carrying evs to buf.
func appendEventsFrame(buf []byte, evs []events.Event) ([]byte, error) {
	start := len(buf)
	out, err := events.AppendBatch(append(buf, make([]byte, frameHeaderLen)...), evs)
	if err != nil {
		return buf, fmt.Errorf("eventstore: journal: %w", err)
	}
	putFrameHeader(out[start:], kindEvents, out[start+frameHeaderLen:])
	return out, nil
}

// appendSeqFrame appends one whole frame of the given kind ('R' or 'L')
// whose body is seq to buf.
func appendSeqFrame(buf []byte, kind byte, seq uint64) []byte {
	start := len(buf)
	out := binary.LittleEndian.AppendUint64(append(buf, make([]byte, frameHeaderLen)...), seq)
	putFrameHeader(out[start:], kind, out[start+frameHeaderLen:])
	return out
}

// replayJournal applies every whole record of the journal at path to s.
// It returns the byte length of that whole-record prefix and whether a
// torn final frame follows it; the caller truncates the file to the
// prefix before appending. The read buffer is reused across frames and
// grows only to the largest frame.
func (s *Store) replayJournal(f *os.File, path string) (good int64, torn bool, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	var (
		hdr  [frameHeaderLen]byte
		body []byte
		blk  = events.NewBlock(0, 0)
	)
	corrupt := func(why string) error {
		return fmt.Errorf("%w %s: record at byte offset %d: %s", ErrCorruptJournal, path, good, why)
	}
	for good < size {
		if size-good < frameHeaderLen {
			return good, true, nil // short header
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return good, false, err
		}
		// A complete header carries the kind as written, so an unknown
		// kind is damage wherever it sits, never a tear.
		if kind := hdr[8]; kind != kindEvents && kind != kindReported && kind != kindLane {
			if good == 0 && hdr[0] == '{' {
				return 0, false, fmt.Errorf("%w: %s", ErrLegacyJournal, path)
			}
			return good, false, corrupt(fmt.Sprintf("unknown record kind %q", kind))
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		avail := size - good - frameHeaderLen
		if n > avail {
			// A length past EOF is a torn final write — unless the body
			// is already a whole record with bytes after it, in which
			// case the length field itself was damaged mid-file.
			whole, err := wholeRecordBefore(r, hdr[8], avail, blk)
			if err != nil {
				return good, false, err
			}
			if whole {
				return good, false, corrupt("length field overruns the record")
			}
			return good, true, nil
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return good, false, err
		}
		end := good + frameHeaderLen + n
		if recordCRC(hdr[:], body) != binary.LittleEndian.Uint32(hdr[4:]) {
			if l := recordLen(hdr[8], body, blk); end == size && (l < 0 || l == len(body)) {
				return good, true, nil // torn final frame
			}
			return good, false, corrupt("checksum mismatch")
		}
		if err := s.replayRecord(hdr[8], body, blk); err != nil {
			return good, false, corrupt(err.Error())
		}
		good = end
	}
	return good, false, nil
}

// recordLen returns the length of the record body of the given kind at
// the front of b, or -1 when b holds only part of one. Event bodies are
// self-delimiting, which lets replay tell a damaged length field (a whole
// record followed by more bytes) from a torn write (a partial record).
func recordLen(kind byte, b []byte, blk *events.Block) int {
	if kind != kindEvents {
		if len(b) < 8 {
			return -1
		}
		return 8
	}
	n, err := events.DecodeBlockPrefix(blk, b)
	if err != nil {
		return -1
	}
	return n
}

// wholeRecordBefore reports whether the avail bytes left in r begin with
// a whole record body of the given kind that ends before them. It reads
// a doubling prefix, so a torn tail costs about its own size.
func wholeRecordBefore(r io.Reader, kind byte, avail int64, blk *events.Block) (bool, error) {
	var tail []byte
	for want := int64(64 << 10); ; want *= 2 {
		want = min(want, avail)
		grown := make([]byte, want)
		copy(grown, tail)
		if _, err := io.ReadFull(r, grown[len(tail):]); err != nil {
			return false, err
		}
		tail = grown
		if l := recordLen(kind, tail, blk); l >= 0 {
			return int64(l) < avail, nil
		}
		if want == avail {
			return false, nil
		}
	}
}

// replayRecord applies one checksummed record to the store being opened.
func (s *Store) replayRecord(kind byte, body []byte, blk *events.Block) error {
	switch kind {
	case kindEvents:
		if err := events.DecodeBlockInto(blk, body); err != nil {
			return err
		}
		// The body buffer is reused for the next frame: intern copies the
		// strings out before the events are retained.
		blk.Intern()
		for i := 0; i < blk.Len(); i++ {
			// Stay in this store's sequence lane: the journal only ever
			// holds seqs from one lane, so advancing by the stride
			// preserves Seq % stride across restarts.
			if seq := blk.Seq(i); seq >= s.nextSeq {
				s.nextSeq = seq + s.opts.seqStride
			}
		}
		s.win.pushBlock(blk)
		s.appended += uint64(blk.Len())
	default:
		if len(body) != 8 {
			return fmt.Errorf("record %q of %d bytes, want 8", kind, len(body))
		}
		seq := binary.LittleEndian.Uint64(body)
		if kind == kindReported {
			s.markReportedLocked(seq)
		} else if seq >= s.nextSeq {
			s.nextSeq = seq + s.opts.seqStride
		}
	}
	return nil
}
