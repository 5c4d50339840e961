package eventstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// journalStep is the store's state after one journal record was written.
type journalStep struct {
	end      int64          // byte offset where the record ends
	events   []events.Event // Since(0, 0) after the record
	reported int            // Stats().Reported after the record
}

// writeMixedJournal writes a journal at path in which every append path
// (Append, AppendBatch, a stamped and traced AppendBlock) and reported
// marks each contribute one record, and returns the state after each.
func writeMixedJournal(tb testing.TB, path string) []journalStep {
	tb.Helper()
	s, err := New(Options{JournalPath: path})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	mk := func(p string, i int) events.Event {
		return events.Event{
			Root: "/mnt", Op: events.OpMovedTo, Path: p, OldPath: p + ".old",
			Cookie: uint32(i), Time: time.Unix(0, int64(1000+i)), Source: "mdt0",
		}
	}
	blk := events.NewBlock(4, 256)
	for i := 0; i < 4; i++ {
		if err := blk.AppendEvent(mk(fmt.Sprintf("/blk/%d", i), i)); err != nil {
			tb.Fatal(err)
		}
	}
	blk.SetStamp(123456789)
	blk.SetTrace(&events.BatchTrace{ID: 7, Spans: []events.Span{{Tier: events.TierCollect, TS: 1, Node: "n0"}}})
	ops := []func() error{
		func() error { _, err := s.Append(mk("/a", 1)); return err },
		func() error {
			_, err := s.AppendBatch([]events.Event{mk("/b", 2), mk("/c", 3), mk("/d", 4)})
			return err
		},
		func() error { return s.MarkReported(2) },
		func() error { _, err := s.AppendBlock(blk); return err },
		func() error { _, err := s.Append(ev("/e")); return err },
		func() error { return s.MarkReported(6) },
		func() error { _, err := s.AppendBatch([]events.Event{mk("/f", 5), mk("/g", 6)}); return err },
	}
	var steps []journalStep
	var prev int64
	for i, op := range ops {
		if err := op(); err != nil {
			tb.Fatalf("op %d: %v", i, err)
		}
		if err := s.Sync(); err != nil {
			tb.Fatal(err)
		}
		size, err := osStatSize(path)
		if err != nil {
			tb.Fatal(err)
		}
		if size <= prev {
			tb.Fatalf("op %d wrote no record", i)
		}
		prev = size
		got, err := s.Since(0, 0)
		if err != nil {
			tb.Fatal(err)
		}
		steps = append(steps, journalStep{end: size, events: got, reported: s.Stats().Reported})
	}
	return steps
}

// sameEvents fails unless got and want hold the same events field by field.
func sameEvents(t *testing.T, what string, got, want []events.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Root != w.Root || g.Op != w.Op || g.Path != w.Path || g.OldPath != w.OldPath ||
			g.Cookie != w.Cookie || g.Seq != w.Seq || g.Source != w.Source || !g.Time.Equal(w.Time) {
			t.Fatalf("%s: event %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// Truncating the journal at every byte offset — every possible crash
// point of the final write — recovers exactly the whole records before
// the cut, counts and removes a partial one, and leaves a journal that
// appends and reopens cleanly.
func TestJournalCrashPointsRecoverWholeRecords(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.journal")
	steps := writeMixedJournal(t, src)
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, "cut.journal")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(jp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, boundary := 0, int64(0)
		for whole < len(steps) && steps[whole].end <= int64(cut) {
			boundary = steps[whole].end
			whole++
		}
		var want []events.Event
		wantReported := 0
		if whole > 0 {
			want, wantReported = steps[whole-1].events, steps[whole-1].reported
		}
		var wantTorn uint64
		if int64(cut) != boundary {
			wantTorn = 1
		}

		s, err := Open(Options{JournalPath: jp})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got, _ := s.Since(0, 0)
		what := fmt.Sprintf("cut at %d", cut)
		sameEvents(t, what, got, want)
		st := s.Stats()
		if st.TornTails != wantTorn || st.Reported != wantReported {
			t.Fatalf("%s: TornTails=%d Reported=%d, want %d and %d", what, st.TornTails, st.Reported, wantTorn, wantReported)
		}
		if size, _ := osStatSize(jp); size != boundary {
			t.Fatalf("%s: journal is %d bytes after Open, want the %d-byte whole-record prefix", what, size, boundary)
		}
		seq, err := s.Append(ev("/after"))
		if err != nil {
			t.Fatal(err)
		}
		s.Close()

		r, err := Open(Options{JournalPath: jp})
		if err != nil {
			t.Fatalf("%s: reopen after append: %v", what, err)
		}
		again, _ := r.Since(0, 0)
		if r.Stats().TornTails != 0 || len(again) != len(want)+1 || again[len(again)-1].Seq != seq {
			t.Fatalf("%s: reopen holds %d events (torn %d), want %d ending at seq %d",
				what, len(again), r.Stats().TornTails, len(want)+1, seq)
		}
		r.Close()
	}
}

// One flipped byte anywhere inside a record that is not the last one —
// header or body — fails Open with an error naming the record's offset,
// and leaves the journal untouched.
func TestJournalMidFileCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.journal")
	steps := writeMixedJournal(t, src)
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, "bad.journal")
	bad := make([]byte, len(full))
	for k := 0; k < len(steps)-1; k++ {
		start := int64(0)
		if k > 0 {
			start = steps[k-1].end
		}
		for pos := start; pos < steps[k].end; pos++ {
			for _, mask := range []byte{0x01, 0xff} {
				copy(bad, full)
				bad[pos] ^= mask
				if err := os.WriteFile(jp, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := Open(Options{JournalPath: jp})
				if err == nil {
					s.Close()
					t.Fatalf("record %d, byte %d ^ %#x: Open succeeded", k, pos, mask)
				}
				if !errors.Is(err, ErrCorruptJournal) || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d:", start)) {
					t.Fatalf("record %d, byte %d ^ %#x: error %q does not report corruption at offset %d", k, pos, mask, err, start)
				}
				if size, _ := osStatSize(jp); size != int64(len(full)) {
					t.Fatalf("record %d, byte %d: a corrupt journal was truncated to %d bytes", k, pos, size)
				}
			}
		}
	}
}

// A damaged length that stretches a mid-file record exactly to the end of
// the file looks like a checksum failure on the final frame; the whole
// record it still begins with exposes the damage.
func TestJournalLengthStretchedToEOFIsAnError(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.journal")
	steps := writeMixedJournal(t, src)
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, "bad.journal")
	for k := 0; k < len(steps)-1; k++ {
		start := int64(0)
		if k > 0 {
			start = steps[k-1].end
		}
		bad := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(bad[start:], uint32(int64(len(full))-start-frameHeaderLen))
		if err := os.WriteFile(jp, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{JournalPath: jp})
		if err == nil {
			s.Close()
			t.Fatalf("record %d stretched to EOF: Open succeeded", k)
		}
		if !errors.Is(err, ErrCorruptJournal) || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d:", start)) {
			t.Fatalf("record %d stretched to EOF: error %q does not report corruption at offset %d", k, err, start)
		}
	}
}

// A checksum or body byte damaged in the final record is a torn tail:
// Open drops that record, counts it, and keeps everything before it.
func TestJournalDamagedFinalRecordIsTorn(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.journal")
	steps := writeMixedJournal(t, src)
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	last, prev := steps[len(steps)-1], steps[len(steps)-2]
	jp := filepath.Join(dir, "bad.journal")
	bad := make([]byte, len(full))
	for pos := prev.end + 4; pos < last.end; pos++ {
		if pos == prev.end+8 {
			continue // the kind byte: an unknown kind is never a tear
		}
		copy(bad, full)
		bad[pos] ^= 0x01
		if err := os.WriteFile(jp, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{JournalPath: jp})
		if err != nil {
			t.Fatalf("byte %d: %v", pos, err)
		}
		got, _ := s.Since(0, 0)
		torn := s.Stats().TornTails
		s.Close()
		sameEvents(t, fmt.Sprintf("byte %d", pos), got, prev.events)
		if size, _ := osStatSize(jp); torn != 1 || size != prev.end {
			t.Fatalf("byte %d: TornTails=%d, %d bytes kept; want 1 and %d", pos, torn, size, prev.end)
		}
	}
}

// A JSONL journal from an earlier release is refused with a named error,
// never parsed as binary records or truncated as a torn tail.
func TestOpenRefusesLegacyJSONLJournal(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "events.jsonl")
	legacy := []byte(`{"kind":"event","ev":{"root":"/r","op":1,"path":"/a","t":100,"seq":1}}` + "\n" +
		`{"kind":"reported","seq":1}` + "\n")
	if err := os.WriteFile(jp, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{JournalPath: jp})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a JSONL journal")
	}
	if !errors.Is(err, ErrLegacyJournal) {
		t.Fatalf("error = %v, want ErrLegacyJournal", err)
	}
	if got, _ := os.ReadFile(jp); !bytes.Equal(got, legacy) {
		t.Fatal("refused legacy journal was modified")
	}
}

// CompactJournal rewrites the retained window as whole event records of
// at most compactFrameEvents events plus one reported mark, and the
// compacted journal reopens to the same events, flags and sequence lane.
func TestCompactJournalRoundTripFrames(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "c.journal")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 25; b++ {
		batch := make([]events.Event, 100)
		for i := range batch {
			n := b*100 + i
			batch[i] = events.Event{
				Root: "/r", Op: events.OpModify, Path: fmt.Sprintf("/d%d/f%d", n%7, n),
				Cookie: uint32(n), Time: time.Unix(0, int64(n)*1000), Source: "src",
			}
			if n%3 == 0 {
				batch[i].OldPath = "/prev"
			}
		}
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MarkReported(1000); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Purge(); err != nil || n != 1000 {
		t.Fatalf("Purge = %d, %v", n, err)
	}
	if err := s.MarkReported(1800); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Since(0, 0)
	if err := s.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	b, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	for off := 0; off < len(b); off += frameHeaderLen + int(binary.LittleEndian.Uint32(b[off:])) {
		kinds = append(kinds, b[off+8])
	}
	if string(kinds) != "EER" {
		t.Fatalf("compacted record kinds %q, want 2 event records (1500 events, 1024 per record) and 1 reported mark", kinds)
	}
	if n := journalEvents(t, jp); n != 1500 {
		t.Fatalf("compacted journal carries %d events, want 1500", n)
	}

	r, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _ := r.Since(0, 0)
	sameEvents(t, "compacted", got, want)
	if st := r.Stats(); st.Reported != 800 || st.TornTails != 0 {
		t.Fatalf("reopened stats %+v, want 800 reported and no torn tail", st)
	}
	if seq, err := r.Append(ev("/next")); err != nil || seq != 2501 {
		t.Fatalf("continued seq = %d, %v; want 2501", seq, err)
	}
}

// An event the wire encoding cannot carry is refused by a journaled store
// before anything is stored or assigned.
func TestJournaledAppendRejectsUnencodableEvent(t *testing.T) {
	s := mustNew(t, Options{JournalPath: filepath.Join(t.TempDir(), "j.journal")})
	long := ev("/" + strings.Repeat("x", 1<<16))
	if _, err := s.Append(long); err == nil {
		t.Fatal("Append of a 64 KiB path succeeded")
	}
	if _, err := s.AppendBatch([]events.Event{ev("/ok"), long}); err == nil {
		t.Fatal("AppendBatch with a 64 KiB path succeeded")
	}
	if seq, err := s.Append(ev("/ok")); err != nil || seq != 1 || s.Len() != 1 {
		t.Fatalf("after refusals: seq %d, len %d, err %v; want seq 1, len 1", seq, s.Len(), err)
	}
}

// FuzzJournalReplay opens arbitrary bytes as a journal. Open must never
// panic: it either refuses the file with a named error, leaving it as it
// was, or recovers a prefix — the file cut at a record boundary, cut only
// when a torn tail was counted — that then reopens to the same events.
func FuzzJournalReplay(f *testing.F) {
	src := filepath.Join(f.TempDir(), "seed.journal")
	steps := writeMixedJournal(f, src)
	full, err := os.ReadFile(src)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), full...)
	flipped[steps[0].end+12] ^= 0x20
	f.Add(full)
	f.Add(full[:steps[2].end])
	f.Add(full[:len(full)-3])
	f.Add(flipped)
	f.Add([]byte(`{"kind":"event","ev":{"root":"/r","op":1,"path":"/a","t":100,"seq":1}}` + "\n"))
	f.Add([]byte{})
	// A compacted journal of a fully purged store: one lane-position record.
	lp := filepath.Join(f.TempDir(), "lane.journal")
	ls, err := New(Options{JournalPath: lp})
	if err != nil {
		f.Fatal(err)
	}
	ls.Append(ev("/a"))
	ls.MarkReported(1)
	ls.Purge()
	if err := ls.CompactJournal(); err != nil {
		f.Fatal(err)
	}
	ls.Close()
	lane, err := os.ReadFile(lp)
	if err != nil || len(lane) == 0 || lane[8] != kindLane {
		f.Fatalf("lane-position seed: %q, %v", lane, err)
	}
	f.Add(lane)

	f.Fuzz(func(t *testing.T, data []byte) {
		jp := filepath.Join(t.TempDir(), "j.journal")
		if err := os.WriteFile(jp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{JournalPath: jp})
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) && !errors.Is(err, ErrLegacyJournal) {
				t.Fatalf("unexpected error: %v", err)
			}
			if b, _ := os.ReadFile(jp); !bytes.Equal(b, data) {
				t.Fatal("a refused journal was modified")
			}
			return
		}
		got, _ := s.Since(0, 0)
		torn := s.Stats().TornTails
		s.Close()
		kept, _ := os.ReadFile(jp)
		if !bytes.HasPrefix(data, kept) || (len(kept) < len(data)) != (torn == 1) {
			t.Fatalf("kept %d of %d bytes with %d torn tails", len(kept), len(data), torn)
		}
		r, err := Open(Options{JournalPath: jp})
		if err != nil {
			t.Fatalf("reopening the recovered prefix: %v", err)
		}
		defer r.Close()
		again, _ := r.Since(0, 0)
		if r.Stats().TornTails != 0 || len(again) != len(got) {
			t.Fatalf("reopen: %d events, %d torn tails; want %d events and none", len(again), r.Stats().TornTails, len(got))
		}
		for i := range got {
			if again[i].Seq != got[i].Seq || again[i].Path != got[i].Path {
				t.Fatalf("reopen: event %d = %+v, want %+v", i, again[i], got[i])
			}
		}
	})
}

// A journal compacted after every event was purged still carries the
// lane position: the reopened store continues above the last seq it
// assigned instead of reissuing seqs consumers already hold — for a plain
// store and for every lane of a sharded one (stride > 1).
func TestCompactedJournalKeepsLanePosition(t *testing.T) {
	t.Run("store", func(t *testing.T) {
		jp := filepath.Join(t.TempDir(), "j.journal")
		s := mustNew(t, Options{JournalPath: jp})
		for i := 0; i < 3; i++ {
			if _, err := s.Append(ev("/f")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.MarkReported(3); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Purge(); err != nil || n != 3 {
			t.Fatalf("Purge = %d, %v", n, err)
		}
		if err := s.CompactJournal(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		r, err := Open(Options{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if seq, err := r.Append(ev("/g")); err != nil || seq != 4 {
			t.Fatalf("seq after full purge, compaction and reopen = %d, %v; want 4", seq, err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		const parts = 3
		jp := filepath.Join(t.TempDir(), "j.journal")
		s, err := OpenSharded(parts, Options{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < parts; p++ {
			// Uneven lanes: partition p holds p+2 events.
			batch := make([]events.Event, p+2)
			for i := range batch {
				batch[i] = ev(fmt.Sprintf("/p%d/f%d", p, i))
			}
			if _, err := s.AppendBatchPartition(p, batch); err != nil {
				t.Fatal(err)
			}
		}
		before := s.LastSeqVector()
		if err := s.MarkReportedVector(before); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Purge(); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("%d events retained after a full purge", s.Len())
		}
		if err := s.CompactJournal(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		r, err := OpenSharded(parts, Options{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for p := 0; p < parts; p++ {
			seq, err := r.AppendBatchPartition(p, []events.Event{ev("/next")})
			if err != nil {
				t.Fatal(err)
			}
			if seq <= before[p] || int(seq%parts) != p {
				t.Errorf("partition %d continued at seq %d; want above %d in lane %d", p, seq, before[p], p)
			}
		}
	})
}
