package eventstore

import (
	"sort"

	"fsmonitor/internal/events"
)

// segmentEvents is the capacity of one retained-window segment. At ~112
// bytes per event a segment is ~112 KiB: large enough that the per-segment
// bookkeeping vanishes, small enough that a mostly purged segment pins
// little memory.
const segmentEvents = 1024

// window is a store's retained events in Seq order, kept in fixed-size
// segments. Appends fill the last segment and open a new one when it is
// full, so growth never copies retained events; dropping the oldest
// events releases whole segments from the front. Every segment but the
// last is full, which makes retained event i addressable arithmetically.
type window struct {
	segs [][]events.Event // each of capacity segmentEvents
	head int              // index in segs[0] of the oldest retained event
	n    int              // retained events
}

// at returns retained event i (0 = oldest).
func (w *window) at(i int) *events.Event {
	p := w.head + i
	return &w.segs[p/segmentEvents][p%segmentEvents]
}

// search returns the smallest i in [0, n] for which f(at(i)) is true,
// assuming f is false then true over the window (as Seq and Time order
// make every cursor predicate).
func (w *window) search(f func(e *events.Event) bool) int {
	return sort.Search(w.n, func(i int) bool { return f(w.at(i)) })
}

// tail returns the segment appends go to, opening one when the last is
// full (or none exists).
func (w *window) tail() *[]events.Event {
	if k := len(w.segs); k > 0 && len(w.segs[k-1]) < segmentEvents {
		return &w.segs[k-1]
	}
	w.segs = append(w.segs, make([]events.Event, 0, segmentEvents))
	return &w.segs[len(w.segs)-1]
}

// push appends one event.
func (w *window) push(e events.Event) {
	t := w.tail()
	*t = append(*t, e)
	w.n++
}

// pushAll appends evs, copying them into the segments.
func (w *window) pushAll(evs []events.Event) {
	w.n += len(evs)
	for len(evs) > 0 {
		t := w.tail()
		k := copy((*t)[len(*t):segmentEvents], evs)
		*t = (*t)[:len(*t)+k]
		evs = evs[k:]
	}
}

// pushBlock materializes every event of blk straight into the segments.
func (w *window) pushBlock(blk *events.Block) {
	n := blk.Len()
	w.n += n
	for i := 0; i < n; {
		t := w.tail()
		seg := *t
		for end := min(n, i+segmentEvents-len(seg)); i < end; i++ {
			seg = append(seg, blk.Event(i))
		}
		*t = seg
	}
}

// runs calls fn with the retained events [from, to) as contiguous
// slices, in order, one per segment they span. The slices alias the
// segments and are valid only during the call.
func (w *window) runs(from, to int, fn func([]events.Event)) {
	for from < to {
		p := w.head + from
		seg := w.segs[p/segmentEvents]
		off := p % segmentEvents
		run := seg[off:min(len(seg), off+to-from)]
		fn(run)
		from += len(run)
	}
}

// copyOut returns the retained events [from, from+n) in one exact-size
// slice the caller owns.
func (w *window) copyOut(from, n int) []events.Event {
	out := make([]events.Event, n)
	done := 0
	w.runs(from, from+n, func(run []events.Event) {
		done += copy(out[done:], run)
	})
	return out
}

// dropFront discards the k oldest retained events, releasing every full
// segment they empty. A partly filled last segment stays: appends go on
// filling it behind head.
func (w *window) dropFront(k int) {
	w.n -= k
	w.head += k
	for w.head >= segmentEvents {
		w.segs[0] = nil
		w.segs = w.segs[1:]
		w.head -= segmentEvents
	}
}
