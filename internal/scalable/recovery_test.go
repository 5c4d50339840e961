package scalable

import (
	"bufio"
	"bytes"
	"testing"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
)

// The recovery request decoders accept exactly one encoding: anything
// shorter, longer or with trailing bytes is malformed.
func TestRecoveryDecodersExactLength(t *testing.T) {
	seq := encodeSeq(42)
	vec := encodeSeqVector([]uint64{3, 7})
	for _, tc := range []struct {
		name    string
		payload []byte
		seqOK   bool // decodeSeq accepts it
		vecLen  int  // decodeSeqVector's length, -1 = rejected
	}{
		{"empty", nil, false, -1},
		{"short seq", seq[:7], false, -1},
		{"seq", seq, true, -1},
		{"long seq", append(append([]byte(nil), seq...), 0), false, -1},
		{"short vector header", vec[:3], false, -1},
		{"empty vector", encodeSeqVector(nil), false, 0},
		{"vector", vec, false, 2},
		{"truncated vector", vec[:len(vec)-1], false, -1},
		{"vector with trailing byte", append(append([]byte(nil), vec...), 0), false, -1},
		{"vector with trailing cursor", append(append([]byte(nil), vec...), seq...), false, -1},
		{"count past payload", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}, false, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := decodeSeq(tc.payload); ok != tc.seqOK {
				t.Errorf("decodeSeq ok = %v, want %v", ok, tc.seqOK)
			}
			v := decodeSeqVector(tc.payload)
			if got := len(v); v == nil && tc.vecLen >= 0 || v != nil && got != tc.vecLen {
				t.Errorf("decodeSeqVector = %v, want length %d (-1 = rejected)", v, tc.vecLen)
			}
			if p := decodeParts(tc.payload); (p == nil) != (v == nil) {
				t.Errorf("decodeParts = %v, decodeSeqVector = %v: must agree on validity", p, v)
			}
		})
	}
}

// A malformed recovery request is answered with an error frame, never by
// streaming the store from seq 0.
func TestRecoveryServerRejectsMalformedRequests(t *testing.T) {
	store, err := eventstore.New(eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 5; i++ {
		if _, err := store.Append(events.Event{Root: "/", Op: events.OpCreate, Path: "/f"}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewRecoveryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seq := encodeSeq(0)
	vec := encodeSeqVector([]uint64{0})
	for _, tc := range []struct {
		name string
		req  msgq.Message
	}{
		{"empty since", msgq.Message{Topic: recoveryReqTopic}},
		{"short since", msgq.Message{Topic: recoveryReqTopic, Payload: seq[:4]}},
		{"long since", msgq.Message{Topic: recoveryReqTopic, Payload: append(append([]byte(nil), seq...), 9)}},
		{"short sincev", msgq.Message{Topic: recoveryVecReqTopic, Payload: vec[:len(vec)-1]}},
		{"sincev with trailing bytes", msgq.Message{Topic: recoveryVecReqTopic, Payload: append(append([]byte(nil), vec...), 1, 2)}},
		{"empty sincev", msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector(nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := rawRecoveryResponse(t, srv.Addr(), tc.req)
			f, err := msgq.ReadFrame(bufio.NewReader(bytes.NewReader(raw)))
			if err != nil {
				t.Fatal(err)
			}
			if f.Topic != recoveryErrTopic {
				t.Fatalf("first response frame %q, want %q (got %d response bytes)", f.Topic, recoveryErrTopic, len(raw))
			}
		})
	}
	// A well-formed request still streams the store.
	raw := rawRecoveryResponse(t, srv.Addr(), msgq.Message{Topic: recoveryReqTopic, Payload: seq})
	if f, err := msgq.ReadFrame(bufio.NewReader(bytes.NewReader(raw))); err != nil || f.Topic != recoveryBatchTopic {
		t.Fatalf("well-formed request answered with %q, %v", f.Topic, err)
	}
}

// FuzzRecoveryDecode feeds arbitrary request payloads to the recovery
// decoders. They must never panic, must accept exactly the bytes their
// encoders produce, and a decoded payload must re-encode to itself.
func FuzzRecoveryDecode(f *testing.F) {
	f.Add(encodeSeq(7))
	f.Add(encodeSeqVector([]uint64{1, 2, 3}))
	f.Add(encodeSeqVector(nil))
	f.Add(encodeParts([]int{0, 3}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if seq, ok := decodeSeq(data); ok != (len(data) == 8) {
			t.Fatalf("decodeSeq ok = %v for %d bytes", ok, len(data))
		} else if ok && !bytes.Equal(encodeSeq(seq), data) {
			t.Fatalf("decodeSeq(%x) = %d does not re-encode", data, seq)
		}
		v := decodeSeqVector(data)
		if v != nil && !bytes.Equal(encodeSeqVector(v), data) {
			t.Fatalf("decodeSeqVector(%x) = %v does not re-encode", data, v)
		}
		p := decodeParts(data)
		if (p == nil) != (v == nil) {
			t.Fatalf("decodeParts = %v, decodeSeqVector = %v: must agree on validity", p, v)
		}
		if p != nil && !bytes.Equal(encodeParts(p), data) {
			t.Fatalf("decodeParts(%x) = %v does not re-encode", data, p)
		}
	})
}
