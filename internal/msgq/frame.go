// Package msgq implements the high-performance message-passing queue the
// scalable monitor is built on (§II-B2: "FSMonitor ... employs a high
// performance message passing queue to concurrently collect, report, and
// aggregate events from each MDS"). It provides ZeroMQ-style PUB/SUB and
// PUSH/PULL sockets (the paper uses ZeroMQ, §IV-2 "Aggregation") over two
// transports:
//
//   - "tcp://host:port" — length-prefixed frames over TCP (net, stdlib).
//   - "inproc://name"   — direct in-process delivery, for hermetic tests
//     and single-process deployments.
//
// Semantics follow ZeroMQ where it matters to the paper's claims: PUB
// distributes to all matching subscribers with per-subscriber queues and a
// high-water mark; PUSH provides blocking, lossless backpressure.
package msgq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fsmonitor/internal/events"
)

// Message is one topic-tagged frame.
//
// Block, when non-nil, is the decoded form of Payload shared by pointer
// over the in-process transport (see Pub.PublishBlockCtx): receivers on
// the same process skip decoding entirely. It never crosses TCP — the
// wire carries Payload only, and a message read from a TCP connection
// always has a nil Block. A received Block is frozen: the receiver must
// treat it (and its trace) as immutable shared state.
type Message struct {
	Topic   string
	Payload []byte
	Block   *events.Block
}

// maxFrame bounds a frame component to keep a malformed peer from forcing
// a huge allocation.
const maxFrame = 64 << 20

// frameChunk bounds the up-front allocation for a frame component. A
// longer component is read in doubling steps, so a peer that announces a
// large frame but sends little costs about what it sent.
const frameChunk = 1 << 20

// control topics exchanged between subscriber and publisher. ctlSync asks
// the publisher to confirm that every control frame sent before it has
// been applied; the publisher answers with ctlSyncAck, queued in order
// with its data frames.
const (
	ctlSubscribe   = "\x01SUB"
	ctlUnsubscribe = "\x01UNSUB"
	ctlSync        = "\x01SYNC"
	ctlSyncAck     = "\x01SYNCACK"
)

// writeMessage writes one frame: u32 len(topic) | topic | u32 len(payload) | payload.
func writeMessage(w *bufio.Writer, m Message) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(m.Topic)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.WriteString(m.Topic); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(m.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(m.Payload); err != nil {
		return err
	}
	return w.Flush()
}

// readMessage reads one frame written by writeMessage.
func readMessage(r *bufio.Reader) (Message, error) {
	topic, err := readChunk(r)
	if err != nil {
		return Message{}, err
	}
	payload, err := readChunk(r)
	if err != nil {
		return Message{}, err
	}
	return Message{Topic: string(topic), Payload: payload}, nil
}

func readChunk(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("msgq: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, min(n, frameChunk))
	for have := 0; ; {
		k, err := io.ReadFull(r, buf[have:])
		if err != nil {
			return nil, err
		}
		if have += k; have == int(n) {
			return buf, nil
		}
		grown := make([]byte, min(int(n), 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// WriteFrame writes one frame to w and flushes. Exposed for protocols that
// reuse the msgq wire format outside a socket (e.g. the scalable monitor's
// recovery API).
func WriteFrame(w *bufio.Writer, m Message) error { return writeMessage(w, m) }

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r *bufio.Reader) (Message, error) { return readMessage(r) }
