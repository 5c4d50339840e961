package eventstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// journalEvents walks the journal's frames and returns how many event
// records they carry — the events in every 'E' frame. A partial frame
// fails the test: every flush must leave whole records on disk.
func journalEvents(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for off := 0; off < len(b); {
		if len(b)-off < frameHeaderLen {
			t.Fatalf("partial frame header at offset %d", off)
		}
		end := off + frameHeaderLen + int(binary.LittleEndian.Uint32(b[off:]))
		if end > len(b) {
			t.Fatalf("partial frame at offset %d", off)
		}
		if b[off+8] == kindEvents {
			blk, err := events.DecodeBlock(b[off+frameHeaderLen : end])
			if err != nil {
				t.Fatalf("frame at offset %d: %v", off, err)
			}
			n += blk.Len()
		}
		off = end
	}
	return n
}

func TestSyncAlwaysFlushesEveryAppend(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.journal")
	s, err := New(Options{JournalPath: jp, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 3; i++ {
		if _, err := s.Append(mkEvent(fmt.Sprintf("/f%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
		if got := journalEvents(t, jp); got != i {
			t.Fatalf("after %d appends journal has %d events (no Close yet)", i, got)
		}
	}
}

func TestSyncOnCloseBuffers(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.journal")
	s, err := New(Options{JournalPath: jp}) // default SyncOnClose
	if err != nil {
		t.Fatal(err)
	}
	// A handful of small events stays inside the bufio buffer.
	for i := 0; i < 5; i++ {
		if _, err := s.Append(mkEvent(fmt.Sprintf("/f%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := journalEvents(t, jp); got != 0 {
		t.Fatalf("journal has %d events before Close under SyncOnClose", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journalEvents(t, jp); got != 5 {
		t.Fatalf("journal has %d events after Close, want 5", got)
	}
}

func TestSyncEveryNFlushesInWindows(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.journal")
	s, err := New(Options{JournalPath: jp, Sync: SyncEveryN, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Append(mkEvent("/a", 1))
	if got := journalEvents(t, jp); got != 0 {
		t.Fatalf("flushed after 1 append with SyncEvery=2 (%d events)", got)
	}
	s.Append(mkEvent("/b", 2))
	if got := journalEvents(t, jp); got != 2 {
		t.Fatalf("after 2 appends journal has %d events, want 2", got)
	}
	s.Append(mkEvent("/c", 3))
	if got := journalEvents(t, jp); got != 2 {
		t.Fatalf("third append flushed early (%d events)", got)
	}
	// A batch counts all its events against the window.
	if _, err := s.AppendBatch([]events.Event{mkEvent("/d", 4), mkEvent("/e", 5)}); err != nil {
		t.Fatal(err)
	}
	if got := journalEvents(t, jp); got != 5 {
		t.Fatalf("after batch journal has %d events, want 5", got)
	}
}

func TestSinceTimeBinarySearch(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		e := mkEvent(fmt.Sprintf("/f%d", i), 0)
		e.Time = base.Add(time.Duration(i) * time.Second)
		if _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.SinceTime(base.Add(7*time.Second), 0)
	if err != nil || len(got) != 3 {
		t.Fatalf("SinceTime = %d events, %v; want 3", len(got), err)
	}
	if got[0].Path != "/f7" {
		t.Errorf("first = %s, want /f7", got[0].Path)
	}
	// Exact boundary is inclusive; max truncates from the front.
	capped, err := s.SinceTime(base, 4)
	if err != nil || len(capped) != 4 {
		t.Fatalf("SinceTime(base,4) = %d events, %v", len(capped), err)
	}
	if capped[0].Path != "/f0" {
		t.Errorf("capped[0] = %s, want /f0", capped[0].Path)
	}
	none, err := s.SinceTime(base.Add(time.Hour), 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("future SinceTime = %d events, %v", len(none), err)
	}
}
