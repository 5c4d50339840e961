package eventstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

func blockOf(t *testing.T, evs []events.Event) *events.Block {
	t.Helper()
	b := events.NewBlock(len(evs), 256)
	for _, e := range evs {
		if err := b.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func sampleEvents(n int) []events.Event {
	evs := make([]events.Event, n)
	for i := range evs {
		evs[i] = events.Event{
			Root: "/mnt", Op: events.OpCreate, Path: "/f" + string(rune('a'+i%26)),
			Time: time.Unix(0, int64(1000+i)), Source: "mdt0",
		}
	}
	return evs
}

// AppendBlock must journal byte-for-byte what AppendBatch journals and
// assign the same sequence numbers.
func TestAppendBlockMatchesAppendBatch(t *testing.T) {
	dir := t.TempDir()
	evs := sampleEvents(10)

	batchPath := filepath.Join(dir, "batch.journal")
	sb, err := New(Options{JournalPath: batchPath, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	batchEvs := append([]events.Event(nil), evs...)
	lastBatch, err := sb.AppendBatch(batchEvs)
	if err != nil {
		t.Fatal(err)
	}
	sb.Close()

	blockPath := filepath.Join(dir, "block.journal")
	sk, err := New(Options{JournalPath: blockPath, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	blk := blockOf(t, evs)
	lastBlock, err := sk.AppendBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if lastBlock != lastBatch {
		t.Fatalf("AppendBlock last seq %d, AppendBatch %d", lastBlock, lastBatch)
	}
	for i := range evs {
		if blk.Seq(i) != batchEvs[i].Seq {
			t.Fatalf("seq %d: block %d, batch %d", i, blk.Seq(i), batchEvs[i].Seq)
		}
	}
	sk.Close()

	ja, _ := os.ReadFile(batchPath)
	jb, _ := os.ReadFile(blockPath)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("journals differ:\nbatch: %s\nblock: %s", ja, jb)
	}
	// Both wrote one event record, and its body is the block's wire image
	// after sequence assignment — the bytes a republish of it sends.
	if len(jb) < frameHeaderLen || jb[8] != kindEvents ||
		int(binary.LittleEndian.Uint32(jb)) != len(jb)-frameHeaderLen ||
		!bytes.Equal(jb[frameHeaderLen:], blk.Wire()) {
		t.Fatalf("journal is not one event record carrying blk.Wire(): %x", jb)
	}

	// And the block journal recovers.
	rec, err := Open(Options{JournalPath: blockPath})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, err := rec.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("recovered %d events, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i].Path != evs[i].Path || got[i].Seq != uint64(i+1) {
			t.Fatalf("recovered event %d = %+v", i, got[i])
		}
	}
}

// Multi-shard SyncEveryN engines share one flush window: appends spread
// across shards flush all journal segments once the engine-wide total
// reaches SyncEvery, not once each shard individually accumulates it.
func TestShardedGroupFlushWindow(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "j.journal")
	eng, err := NewSharded(4, Options{JournalPath: base, Sync: SyncEveryN, SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	segSize := func() int64 {
		var total int64
		for i := 0; i < 4; i++ {
			if fi, err := os.Stat(base + ".p" + string(rune('0'+i))); err == nil {
				total += fi.Size()
			}
		}
		return total
	}

	// 4 events into shard 0, 3 into shard 1: engine total 7 < 8 — with
	// per-shard windows nothing would flush either, but the point is the
	// group counter is at 7.
	evs := sampleEvents(4)
	if _, err := eng.AppendBlockPartition(0, blockOf(t, evs)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AppendBlockPartition(1, blockOf(t, sampleEvents(3))); err != nil {
		t.Fatal(err)
	}
	if n := segSize(); n != 0 {
		t.Fatalf("flushed %d bytes before the group window filled", n)
	}
	// One more event into shard 2 fills the engine-wide window (8): every
	// segment must now be flushed, including shards 0 and 1, whose own
	// totals (4 and 3) are far below SyncEvery.
	if _, err := eng.AppendBlockPartition(2, blockOf(t, sampleEvents(1))); err != nil {
		t.Fatal(err)
	}
	if n := segSize(); n == 0 {
		t.Fatal("group window filled but nothing was flushed")
	}
	for i := 0; i < 3; i++ {
		fi, err := os.Stat(base + ".p" + string(rune('0'+i)))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("shard %d segment not flushed by the group pass (err=%v)", i, err)
		}
	}
}
