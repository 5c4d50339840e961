package resolution

import (
	"testing"
	"time"

	"fsmonitor/internal/events"
)

func collectBatches(p *Processor, quiet time.Duration) [][]events.Event {
	var out [][]events.Event
	for {
		select {
		case b, ok := <-p.Batches():
			if !ok {
				return out
			}
			out = append(out, b)
		case <-time.After(quiet):
			return out
		}
	}
}

func flatten(batches [][]events.Event) []events.Event {
	var out []events.Event
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func TestBatchBySize(t *testing.T) {
	src := make(chan events.Event)
	p := New(src, Options{BatchSize: 10, BatchInterval: time.Hour})
	defer p.Close()
	go func() {
		for i := 0; i < 25; i++ {
			src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}
		}
		close(src)
	}()
	batches := collectBatches(p, 300*time.Millisecond)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	if len(batches[0]) != 10 || len(batches[1]) != 10 || len(batches[2]) != 5 {
		t.Errorf("sizes = %d,%d,%d", len(batches[0]), len(batches[1]), len(batches[2]))
	}
	st := p.Stats()
	if st.Processed != 25 || st.Batches != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBatchByInterval(t *testing.T) {
	src := make(chan events.Event)
	p := New(src, Options{BatchSize: 1000, BatchInterval: 30 * time.Millisecond})
	defer p.Close()
	src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}
	select {
	case b := <-p.Batches():
		if len(b) != 1 {
			t.Errorf("batch = %v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("interval flush never happened")
	}
	close(src)
}

func TestNormalization(t *testing.T) {
	src := make(chan events.Event, 1)
	p := New(src, Options{BatchInterval: 5 * time.Millisecond})
	defer p.Close()
	src <- events.Event{Root: "/mnt/lustre", Op: events.OpCreate, Path: "/mnt/lustre/dir/f.txt"}
	close(src)
	evs := flatten(collectBatches(p, 200*time.Millisecond))
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Path != "/dir/f.txt" {
		t.Errorf("path = %q", evs[0].Path)
	}
}

func TestRenamePairing(t *testing.T) {
	src := make(chan events.Event, 4)
	p := New(src, Options{BatchInterval: 5 * time.Millisecond})
	defer p.Close()
	src <- events.Event{Root: "/r", Op: events.OpMovedFrom, Path: "/a", Cookie: 7}
	src <- events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: 7}
	close(src)
	evs := flatten(collectBatches(p, 200*time.Millisecond))
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
	if evs[1].OldPath != "/a" {
		t.Errorf("OldPath = %q", evs[1].OldPath)
	}
	if st := p.Stats(); st.RenamesPaired != 1 {
		t.Errorf("paired = %d", st.RenamesPaired)
	}
}

func TestRenamePairingDisabled(t *testing.T) {
	src := make(chan events.Event, 4)
	p := NewWithOptions(src, Options{BatchInterval: 5 * time.Millisecond, PairRenames: false})
	defer p.Close()
	src <- events.Event{Root: "/r", Op: events.OpMovedFrom, Path: "/a", Cookie: 7}
	src <- events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: 7}
	close(src)
	evs := flatten(collectBatches(p, 200*time.Millisecond))
	if evs[1].OldPath != "" {
		t.Errorf("OldPath = %q with pairing disabled", evs[1].OldPath)
	}
}

func TestUncorrelatedCookies(t *testing.T) {
	src := make(chan events.Event, 4)
	p := New(src, Options{BatchInterval: 5 * time.Millisecond})
	defer p.Close()
	src <- events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: 99}
	close(src)
	evs := flatten(collectBatches(p, 200*time.Millisecond))
	if evs[0].OldPath != "" {
		t.Errorf("OldPath = %q for unmatched cookie", evs[0].OldPath)
	}
}

func TestOrderPreserved(t *testing.T) {
	src := make(chan events.Event, 128)
	p := New(src, Options{BatchSize: 7, BatchInterval: 5 * time.Millisecond})
	defer p.Close()
	for i := 0; i < 100; i++ {
		src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/f", Cookie: uint32(i + 1000)}
	}
	close(src)
	evs := flatten(collectBatches(p, 300*time.Millisecond))
	if len(evs) != 100 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, e := range evs {
		if e.Cookie != uint32(i+1000) {
			t.Fatalf("event %d out of order (cookie %d)", i, e.Cookie)
		}
	}
}

func TestCloseStopsEarly(t *testing.T) {
	src := make(chan events.Event)
	p := New(src, Options{})
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with open source")
	}
	if _, ok := <-p.Batches(); ok {
		// A final flush batch is acceptable; the channel must close.
		if _, ok := <-p.Batches(); ok {
			t.Error("batches channel still open")
		}
	}
	close(src)
}

func TestSourceCloseDrains(t *testing.T) {
	src := make(chan events.Event, 10)
	for i := 0; i < 10; i++ {
		src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}
	}
	close(src)
	p := New(src, Options{BatchSize: 100, BatchInterval: time.Hour})
	evs := flatten(collectBatches(p, 300*time.Millisecond))
	if len(evs) != 10 {
		t.Errorf("drained %d events, want 10", len(evs))
	}
	p.Close()
}

func TestTransformDelegates(t *testing.T) {
	s, err := Transform(events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}, events.FormatFSW)
	if err != nil || s == "" {
		t.Errorf("Transform = %q, %v", s, err)
	}
}

// prefilled returns a closed source channel holding evs.
func prefilled(evs ...events.Event) chan events.Event {
	src := make(chan events.Event, len(evs))
	for _, e := range evs {
		src <- e
	}
	close(src)
	return src
}

func TestRenamePairingAcrossBatchBoundary(t *testing.T) {
	src := prefilled(
		events.Event{Root: "/r", Op: events.OpCreate, Path: "/c"},
		events.Event{Root: "/r", Op: events.OpMovedFrom, Path: "/a", Cookie: 7},
		events.Event{Root: "/r", Op: events.OpMovedTo, Path: "/b", Cookie: 7},
	)
	p := New(src, Options{BatchSize: 2, BatchInterval: time.Hour})
	defer p.Close()
	batches := collectBatches(p, 300*time.Millisecond)
	if len(batches) != 2 || len(batches[0]) != 2 || len(batches[1]) != 1 {
		t.Fatalf("batches = %v, want the rename pair split 2|1", batches)
	}
	if got := batches[1][0].OldPath; got != "/a" {
		t.Errorf("MOVED_TO OldPath = %q, want /a from the previous batch", got)
	}
	if st := p.Stats(); st.RenamesPaired != 1 {
		t.Errorf("paired = %d", st.RenamesPaired)
	}
}

func TestDedupeAcrossBatchBoundary(t *testing.T) {
	mod := func(path string) events.Event { return events.Event{Root: "/r", Op: events.OpModify, Path: path} }
	src := prefilled(mod("/a"), mod("/b"), mod("/b"), mod("/b"), mod("/c"))
	p := NewWithOptions(src, Options{BatchSize: 2, BatchInterval: time.Hour, PairRenames: true, Dedupe: true})
	defer p.Close()
	evs := flatten(collectBatches(p, 300*time.Millisecond))
	var paths []string
	for _, e := range evs {
		paths = append(paths, e.Path)
	}
	if len(paths) != 3 || paths[0] != "/a" || paths[1] != "/b" || paths[2] != "/c" {
		t.Errorf("paths = %v, want [/a /b /c]", paths)
	}
	// Batch 2 was [/b /b]: both duplicates of batch 1's tail, so it
	// emptied and was not emitted.
	if st := p.Stats(); st.Deduped != 2 || st.Processed != 5 || st.Batches != 2 {
		t.Errorf("stats = %+v, want Deduped 2, Processed 5, Batches 2", st)
	}
}

func TestClosePartialBatchFlushedInOrder(t *testing.T) {
	src := make(chan events.Event) // unbuffered: each send is an accepted event
	p := New(src, Options{BatchSize: 100, BatchInterval: time.Hour})
	for i := 0; i < 5; i++ {
		src <- events.Event{Root: "/r", Op: events.OpCreate, Path: "/f", Cookie: uint32(i + 1)}
	}
	p.Close()
	var evs []events.Event
	for b := range p.Batches() {
		evs = append(evs, b...)
	}
	if len(evs) != 5 {
		t.Fatalf("Close flushed %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Cookie != uint32(i+1) {
			t.Fatalf("event %d has cookie %d: out of order", i, e.Cookie)
		}
	}
}

func TestQueueDepthCountsEvents(t *testing.T) {
	const n, batch, queue = 1000, 10, 100
	evs := make([]events.Event, n)
	for i := range evs {
		evs[i] = events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}
	}
	p := New(prefilled(evs...), Options{BatchSize: batch, BatchInterval: time.Hour, QueueSize: queue})
	defer p.Close()
	// Nobody reads the output, so the queue fills to its bound: QueueSize
	// events, plus the batch intake holds while blocked on the full queue.
	// The peak may also catch one batch resolve has received and not yet
	// started on.
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() < queue && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := p.QueueDepth(); d < queue || d > queue+batch {
		t.Fatalf("QueueDepth = %d, want %d..%d events", d, queue, queue+batch)
	}
	if pk := p.Stats().QueuePeak; pk < queue || pk > queue+2*batch {
		t.Errorf("QueuePeak = %d, want %d..%d events", pk, queue, queue+2*batch)
	}
	if got := len(flatten(collectBatches(p, 300*time.Millisecond))); got != n {
		t.Fatalf("drained %d events, want %d", got, n)
	}
	st := p.Stats()
	if p.QueueDepth() != 0 || st.Processed != n || st.Batches != n/batch {
		t.Errorf("after drain: QueueDepth = %d, stats = %+v", p.QueueDepth(), st)
	}
}
