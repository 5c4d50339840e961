package eventstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"fsmonitor/internal/events"
)

// TestMarkReportedAheadOfLastSeq pins the clamp on the reported mark: an
// ack past the last assigned seq covers the events stored so far, not
// seqs assigned later, so a repeated ack of the same seq flags (and a
// purge removes) the events appended in between.
func TestMarkReportedAheadOfLastSeq(t *testing.T) {
	s := mustNew(t, Options{})
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Append(ev(fmt.Sprintf("/f%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(5)
	if err := s.MarkReported(10); err != nil {
		t.Fatal(err)
	}
	appendN(5)
	if st := s.Stats(); st.Reported != 5 {
		t.Errorf("after ack ahead and 5 more appends: Reported = %d, want 5", st.Reported)
	}
	if err := s.MarkReported(10); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Purge(); err != nil || n != 10 {
		t.Errorf("Purge = %d, %v; want 10", n, err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after purge, want 0", s.Len())
	}
}

// TestShardedMarkReportedAheadClampsPerLane is the same rule per shard: a
// cursor past a shard's last assigned seq covers only what that shard has
// stored.
func TestShardedMarkReportedAheadClampsPerLane(t *testing.T) {
	sh, err := NewSharded(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	fill := func() {
		for part := 0; part < 2; part++ {
			evs := make([]events.Event, 5)
			for i := range evs {
				evs[i] = ev(fmt.Sprintf("/p%d/f%d", part, i))
			}
			if _, err := sh.AppendBatchPartition(part, evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Shard 0 assigns 2,4,...; shard 1 assigns 3,5,....
	fill()
	if err := sh.MarkReportedVector([]uint64{20, 20}); err != nil {
		t.Fatal(err)
	}
	fill()
	if err := sh.MarkReported(20); err != nil {
		t.Fatal(err)
	}
	// Shard 0 holds 2..20 (all ≤ 20), shard 1 holds 3..21 (21 is not).
	if n, err := sh.Purge(); err != nil || n != 19 {
		t.Errorf("Purge = %d, %v; want 19", n, err)
	}
	if got := sh.LastSeqVector(); got[0] != 20 || got[1] != 21 {
		t.Errorf("LastSeqVector = %v", got)
	}
	if rest, _ := sh.Since(0, 0); len(rest) != 1 || rest[0].Seq != 21 {
		t.Errorf("retained after purge = %v, want only seq 21", rest)
	}
}

// refStore is the store as a flat slice and a per-event reported map
// with a full-scan MarkReported — the layout the segmented window and the
// reported mark replace — used as the model in TestStoreMatchesFlatModel.
type refStore struct {
	maxEvents                 int
	events                    []events.Event
	reported                  map[uint64]bool
	nextSeq                   uint64
	appended, purged, evicted uint64
}

func (r *refStore) append(evs []events.Event) uint64 {
	for i := range evs {
		r.nextSeq++
		evs[i].Seq = r.nextSeq
		r.events = append(r.events, evs[i])
	}
	r.appended += uint64(len(evs))
	r.bound()
	return r.nextSeq
}

func (r *refStore) markReported(seq uint64) {
	for _, e := range r.events {
		if e.Seq <= seq {
			r.reported[e.Seq] = true
		}
	}
}

func (r *refStore) purge() int {
	kept := r.events[:0]
	removed := 0
	for _, e := range r.events {
		if r.reported[e.Seq] {
			delete(r.reported, e.Seq)
			removed++
			continue
		}
		kept = append(kept, e)
	}
	r.events = kept
	r.purged += uint64(removed)
	return removed
}

// bound drops the oldest reported events past maxEvents, then the oldest
// of the rest.
func (r *refStore) bound() {
	if r.maxEvents <= 0 || len(r.events) <= r.maxEvents {
		return
	}
	over := len(r.events) - r.maxEvents
	kept := r.events[:0]
	for _, e := range r.events {
		if over > 0 && r.reported[e.Seq] {
			delete(r.reported, e.Seq)
			over--
			r.purged++
			continue
		}
		kept = append(kept, e)
	}
	r.events = kept
	for _, e := range r.events[:over] {
		delete(r.reported, e.Seq)
	}
	r.events = append([]events.Event(nil), r.events[over:]...)
	r.evicted += uint64(over)
}

func (r *refStore) since(keep func(events.Event) bool, max int) []events.Event {
	var out []events.Event
	for _, e := range r.events {
		if keep(e) && (max <= 0 || len(out) < max) {
			out = append(out, e)
		}
	}
	return out
}

func (r *refStore) stats() Stats {
	return Stats{
		Retained: len(r.events), Reported: len(r.reported),
		Appended: r.appended, Purged: r.purged, Evicted: r.evicted, NextSeq: r.nextSeq + 1,
	}
}

// storeOp is one step of a store script.
type storeOp struct {
	Kind byte   // see storeScript.Generate
	N    int    // events to append, or the query's max
	Arg  uint64 // seq or time offset argument
}

// storeScript is a random operation sequence over one store. Batches run
// up to ~1.5 segments and scripts append several segments' worth, so
// segment boundaries are crossed, filled and released.
type storeScript struct {
	MaxEvents int
	Ops       []storeOp
}

func (storeScript) Generate(rng *rand.Rand, size int) reflect.Value {
	var sc storeScript
	switch rng.Intn(3) {
	case 1:
		sc.MaxEvents = 1 + rng.Intn(3*segmentEvents)
	case 2:
		sc.MaxEvents = 1 + rng.Intn(64)
	}
	for n := 10 + rng.Intn(40); n > 0; n-- {
		op := storeOp{Kind: byte(rng.Intn(7))}
		switch op.Kind {
		case 0: // Append
			op.N = 1 + rng.Intn(4)
		case 1, 2: // AppendBatch, AppendBlock
			op.N = rng.Intn(segmentEvents * 3 / 2)
		case 3, 5, 6: // MarkReported, Since, SinceTime
			op.N = rng.Intn(3) * rng.Intn(segmentEvents)
			op.Arg = uint64(rng.Intn(8 * segmentEvents))
		}
		sc.Ops = append(sc.Ops, op)
	}
	return reflect.ValueOf(sc)
}

// TestStoreMatchesFlatModel drives the segmented store and the flat model
// through the same random Append/AppendBatch/AppendBlock/MarkReported/
// Purge/Since/SinceTime scripts, with and without a MaxEvents bound, and
// requires every result and every Stats field to agree after each step.
func TestStoreMatchesFlatModel(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	var made int
	mk := func(n int) []events.Event {
		evs := make([]events.Event, n)
		for i := range evs {
			made++
			evs[i] = events.Event{
				Root: "/r", Op: events.OpModify, Path: fmt.Sprintf("/d%d/f%d", made%7, made),
				Cookie: uint32(made), Time: base.Add(time.Duration(made) * time.Millisecond), Source: "sim",
			}
		}
		return evs
	}
	check := func(sc storeScript) bool {
		s, err := New(Options{MaxEvents: sc.MaxEvents})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ref := &refStore{maxEvents: sc.MaxEvents, reported: map[uint64]bool{}}
		for step, op := range sc.Ops {
			fail := func(format string, args ...any) bool {
				t.Errorf("MaxEvents=%d step %d %+v: %s", sc.MaxEvents, step, op, fmt.Sprintf(format, args...))
				return false
			}
			switch op.Kind {
			case 0:
				for _, e := range mk(op.N) {
					got, err := s.Append(e)
					if want := ref.append([]events.Event{e}); err != nil || got != want {
						return fail("Append = %d, %v; want %d", got, err, want)
					}
				}
			case 1:
				evs := mk(op.N)
				got, err := s.AppendBatch(append([]events.Event(nil), evs...))
				want := ref.append(evs)
				if op.N == 0 {
					want = 0
				}
				if err != nil || got != want {
					return fail("AppendBatch = %d, %v; want %d", got, err, want)
				}
			case 2:
				blk := events.NewBlock(op.N, 0)
				for _, e := range mk(op.N) {
					if err := blk.AppendEvent(e); err != nil {
						t.Fatal(err)
					}
				}
				got, err := s.AppendBlock(blk)
				want := uint64(0)
				if op.N > 0 {
					// The model keeps the block's materialized view,
					// as the store does.
					want = ref.append(blk.AppendEventsTo(nil))
				}
				if err != nil || got != want {
					return fail("AppendBlock = %d, %v; want %d", got, err, want)
				}
			case 3:
				seq := uint64(made) - min(uint64(made), op.Arg%(2*segmentEvents)) + uint64(op.N)
				if err := s.MarkReported(seq); err != nil {
					return fail("MarkReported: %v", err)
				}
				ref.markReported(seq)
			case 4:
				got, err := s.Purge()
				if want := ref.purge(); err != nil || got != want {
					return fail("Purge = %d, %v; want %d", got, err, want)
				}
			case 5:
				got, err := s.Since(op.Arg, op.N)
				want := ref.since(func(e events.Event) bool { return e.Seq > op.Arg }, op.N)
				if err != nil || !reflect.DeepEqual(got, want) {
					return fail("Since(%d, %d): %d events, want %d", op.Arg, op.N, len(got), len(want))
				}
			case 6:
				at := base.Add(time.Duration(op.Arg) * time.Millisecond)
				got, err := s.SinceTime(at, op.N)
				want := ref.since(func(e events.Event) bool { return !e.Time.Before(at) }, op.N)
				if err != nil || !reflect.DeepEqual(got, want) {
					return fail("SinceTime(+%dms, %d): %d events, want %d", op.Arg, op.N, len(got), len(want))
				}
			}
			if got, want := s.Stats(), ref.stats(); got != want {
				return fail("Stats = %+v, want %+v", got, want)
			}
			if s.Len() != len(ref.events) || s.LastSeq() != ref.nextSeq {
				return fail("Len/LastSeq = %d/%d, want %d/%d", s.Len(), s.LastSeq(), len(ref.events), ref.nextSeq)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
