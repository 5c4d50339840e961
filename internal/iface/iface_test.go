package iface

import (
	"testing"
	"testing/quick"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
)

func newIface(t *testing.T, opts Options) *Interface {
	t.Helper()
	if opts.Store == nil {
		store, err := eventstore.New(eventstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
		t.Cleanup(func() { store.Close() })
	}
	i, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(i.Close)
	return i
}

func ev(path string, op events.Op) events.Event {
	return events.Event{Root: "/r", Op: op, Path: path, Time: time.Unix(1, 0)}
}

func recvBatch(t *testing.T, s *Subscription) []events.Event {
	t.Helper()
	select {
	case b := <-s.C():
		return b
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for batch")
		return nil
	}
}

func TestFilterMatch(t *testing.T) {
	cases := []struct {
		f    Filter
		e    events.Event
		want bool
	}{
		{Filter{}, ev("/a", events.OpCreate), true},
		{Filter{Recursive: true}, ev("/a/b/c", events.OpCreate), true},
		{Filter{}, ev("/a/b", events.OpCreate), false}, // non-recursive depth
		{Filter{Under: "/a"}, ev("/a/b", events.OpCreate), true},
		{Filter{Under: "/a"}, ev("/a/b/c", events.OpCreate), false},
		{Filter{Under: "/a", Recursive: true}, ev("/a/b/c", events.OpCreate), true},
		{Filter{Under: "/a"}, ev("/x", events.OpCreate), false},
		{Filter{Ops: events.OpDelete}, ev("/a", events.OpCreate), false},
		{Filter{Ops: events.OpDelete}, ev("/a", events.OpDelete), true},
		{Filter{Ops: events.OpDelete}, ev("/", events.OpOverflow), true}, // overflow always passes
	}
	for i, c := range cases {
		if got := c.f.Match(c.e); got != c.want {
			t.Errorf("case %d: Match(%+v, %v %s) = %v, want %v", i, c.f, c.e.Op, c.e.Path, got, c.want)
		}
	}
}

func TestIngestDeliversToSubscribers(t *testing.T) {
	i := newIface(t, Options{AutoAck: true})
	sub, err := i.Subscribe(Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpDelete)}); err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, sub)
	if len(b) != 2 {
		t.Fatalf("batch = %v", b)
	}
	if b[0].Seq != 1 || b[1].Seq != 2 {
		t.Errorf("seqs = %d, %d", b[0].Seq, b[1].Seq)
	}
}

func TestSubscriberFiltering(t *testing.T) {
	i := newIface(t, Options{})
	deletes, err := i.Subscribe(Filter{Ops: events.OpDelete, Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpDelete)}); err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, deletes)
	if len(b) != 1 || b[0].Path != "/b" {
		t.Errorf("batch = %v", b)
	}
}

func TestReplaySince(t *testing.T) {
	i := newIface(t, Options{})
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpCreate), ev("/c", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	// A consumer that saw seq 1 reconnects.
	sub, err := i.Subscribe(Filter{Recursive: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, sub)
	if len(b) != 2 || b[0].Path != "/b" || b[1].Path != "/c" {
		t.Errorf("replay = %v", b)
	}
	// Then receives live events.
	if err := i.Ingest([]events.Event{ev("/d", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	b = recvBatch(t, sub)
	if len(b) != 1 || b[0].Path != "/d" {
		t.Errorf("live after replay = %v", b)
	}
}

func TestAckAndPurge(t *testing.T) {
	store, err := eventstore.New(eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	i := newIface(t, Options{Store: store, AutoAck: false})
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate), ev("/b", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	n, err := i.Purge()
	if err != nil || n != 0 {
		t.Errorf("purge before ack = %d, %v", n, err)
	}
	if err := i.Ack(1); err != nil {
		t.Fatal(err)
	}
	n, err = i.Purge()
	if err != nil || n != 1 {
		t.Errorf("purge after ack = %d, %v", n, err)
	}
	remaining, _ := i.Since(0, 0)
	if len(remaining) != 1 || remaining[0].Path != "/b" {
		t.Errorf("remaining = %v", remaining)
	}
}

func TestSlowSubscriberDropsButStoreKeeps(t *testing.T) {
	i := newIface(t, Options{SubscriberBuffer: 1})
	sub, err := i.Subscribe(Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := i.Ingest([]events.Event{ev("/f", events.OpCreate)}); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Dropped() == 0 {
		t.Error("expected live-feed drops")
	}
	// Everything is still recoverable from the store.
	all, _ := i.Since(0, 0)
	if len(all) != 5 {
		t.Errorf("store kept %d", len(all))
	}
}

func TestSubscriptionClose(t *testing.T) {
	i := newIface(t, Options{})
	sub, err := i.Subscribe(Filter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Error("channel open after close")
	}
	if err := i.Ingest([]events.Event{ev("/a", events.OpCreate)}); err != nil {
		t.Fatal(err)
	}
	if st := i.Stats(); st.Subscribers != 0 {
		t.Errorf("subscribers = %d", st.Subscribers)
	}
}

func TestSubscribeAfterCloseFails(t *testing.T) {
	i := newIface(t, Options{})
	i.Close()
	if _, err := i.Subscribe(Filter{}, 0); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New without store succeeded")
	}
}

func TestEmptyIngestNoop(t *testing.T) {
	i := newIface(t, Options{})
	if err := i.Ingest(nil); err != nil {
		t.Fatal(err)
	}
	if i.LastSeq() != 0 {
		t.Error("LastSeq moved")
	}
}

// Property: a recursive filter accepts a superset of the non-recursive
// filter's events, and Under restrictions are monotonic (a deeper Under
// accepts a subset of its ancestor's events).
func TestFilterPropertiesQuick(t *testing.T) {
	segs := []string{"a", "b", "c"}
	f := func(depthSeed, underSeed uint8, opSeed uint32) bool {
		depth := int(depthSeed)%4 + 1
		p := ""
		for i := 0; i < depth; i++ {
			p += "/" + segs[(int(depthSeed)+i)%len(segs)]
		}
		e := events.Event{Path: p, Op: events.Op(opSeed) | events.OpCreate}
		under := "/" + segs[int(underSeed)%len(segs)]
		flat := Filter{Under: under}
		deep := Filter{Under: under, Recursive: true}
		if flat.Match(e) && !deep.Match(e) {
			return false // recursion must widen, never narrow
		}
		root := Filter{Recursive: true}
		if deep.Match(e) && !root.Match(e) {
			return false // a rooted filter accepts a subset of "/"
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestIngestHandsOffPrivateBatches checks the delivery hand-off: each
// subscriber owns the slice it receives (one all-passing subscriber gets
// the stored copy itself, the rest their own copies), and none of them
// aliases the caller's batch or the store.
func TestIngestHandsOffPrivateBatches(t *testing.T) {
	i := newIface(t, Options{AutoAck: true})
	all1, _ := i.Subscribe(Filter{Recursive: true}, 0)
	all2, _ := i.Subscribe(Filter{Recursive: true}, 0)
	top, _ := i.Subscribe(Filter{}, 0)
	batch := []events.Event{ev("/a", events.OpCreate), ev("/d/b", events.OpCreate), ev("/c", events.OpModify)}
	if err := i.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	b1, b2, bt := recvBatch(t, all1), recvBatch(t, all2), recvBatch(t, top)
	if len(b1) != 3 || len(b2) != 3 || len(bt) != 2 {
		t.Fatalf("batch sizes %d/%d/%d, want 3/3/2", len(b1), len(b2), len(bt))
	}
	if &b1[0] == &b2[0] || &b1[0] == &batch[0] || &b2[0] == &batch[0] || &bt[0] == &batch[0] {
		t.Fatal("subscribers share a backing array with each other or the caller")
	}
	for j, e := range b1 {
		if e.Seq != uint64(j+1) || b2[j].Seq != e.Seq {
			t.Errorf("event %d seqs %d/%d, want %d", j, e.Seq, b2[j].Seq, j+1)
		}
	}
	if batch[0].Seq != 0 {
		t.Errorf("caller's batch was stamped (seq %d)", batch[0].Seq)
	}
	// A subscriber scribbling on its batch changes nobody else's view.
	b1[0].Path, b2[0].Path = "/x", "/y"
	if bt[0].Path != "/a" {
		t.Errorf("filtered subscriber sees %q", bt[0].Path)
	}
	if h, _ := i.Since(0, 0); len(h) != 3 || h[0].Path != "/a" {
		t.Errorf("store history = %v", h)
	}
	if st := i.Stats(); st.Delivered != 8 || st.Store.Reported != 3 {
		t.Errorf("stats = %+v, want Delivered 8, Store.Reported 3", st)
	}
}

// BenchmarkIngest measures the interface layer's per-batch cost: one
// AppendBatch into the store, delivery to one recursive subscriber, and
// the auto-ack, over 256-event batches (the resolution layer's default).
func BenchmarkIngest(b *testing.B) {
	store, err := eventstore.New(eventstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	i, err := New(Options{Store: store, AutoAck: true})
	if err != nil {
		b.Fatal(err)
	}
	defer i.Close()
	sub, err := i.Subscribe(Filter{Recursive: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]events.Event, 256)
	for j := range batch {
		batch[j] = ev("/d/f", events.OpModify)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := i.Ingest(batch); err != nil {
			b.Fatal(err)
		}
		<-sub.C()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/ev")
}

// TestIngestRacesSubscriptionClose closes subscriptions while batches are
// being delivered: a subscription must never be sent to once its channel
// is closed.
func TestIngestRacesSubscriptionClose(t *testing.T) {
	i := newIface(t, Options{AutoAck: true})
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := []events.Event{ev("/a", events.OpCreate)}
		for n := 0; n < 2000; n++ {
			if err := i.Ingest(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		s, err := i.Subscribe(Filter{Recursive: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}
