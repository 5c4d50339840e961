package msgq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// A peer that announces a large frame but sends only a few bytes costs
// about what it sent, not the announced length; one past maxFrame is
// refused before any allocation.
func TestReadFrameAllocationBoundedByInput(t *testing.T) {
	for _, n := range []uint32{maxFrame, maxFrame + 1} {
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		r := bufio.NewReader(bytes.NewReader(append(hdr, "short"...)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("frame announcing %d bytes with 5 sent decoded", n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameChunk {
			t.Errorf("frame announcing %d bytes allocated %d bytes", n, got)
		}
	}
}

// FuzzReadFrame decodes arbitrary bytes as a frame stream. ReadFrame must
// never panic or allocate past maxFrame, every frame it returns must
// re-encode to exactly the bytes it consumed, and any message WriteFrame
// writes must read back unchanged.
func FuzzReadFrame(f *testing.F) {
	for _, m := range []Message{
		{Topic: "events.mdt0", Payload: []byte("payload")},
		{Topic: ctlSubscribe, Payload: []byte("events.")},
		{},
	} {
		var b bytes.Buffer
		if err := WriteFrame(bufio.NewWriter(&b), m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		consumed := 0
		for {
			m, err := ReadFrame(r)
			if err != nil {
				break
			}
			out.Reset()
			if err := WriteFrame(w, m); err != nil {
				t.Fatal(err)
			}
			if end := consumed + out.Len(); end > len(data) || !bytes.Equal(out.Bytes(), data[consumed:end]) {
				t.Fatalf("frame %+v re-encodes to %x, not the %d bytes it was read from", m, out.Bytes(), out.Len())
			}
			consumed += out.Len()
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxFrame {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}

		k := 0
		if len(data) > 0 {
			k = int(data[0]) % (len(data) + 1)
		}
		in := Message{Topic: string(data[:k]), Payload: data[k:]}
		out.Reset()
		if err := WriteFrame(w, in); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(bufio.NewReader(&out))
		if err != nil || got.Topic != in.Topic || !bytes.Equal(got.Payload, in.Payload) {
			t.Fatalf("round trip of %+v = %+v, %v", in, got, err)
		}
	})
}
