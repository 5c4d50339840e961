// Package iface implements FSMonitor's topmost layer (§III-A3): "an
// interface for users and programs to interact with FSMonitor ...
// responsible for reporting events and replying to requests." It delivers
// processed event batches to subscribers with per-subscription filtering
// (including the recursive/non-recursive rule the paper highlights as a
// filtering-rule change rather than a watcher change), serves
// events-since-ID requests, and provides fault tolerance by persisting
// every event to the reliable event store before delivery.
package iface

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/pipeline"
)

// Filter selects which events a subscription receives.
type Filter struct {
	// Under restricts events to subjects below this root-relative
	// directory ("" or "/" = everything).
	Under string
	// Ops restricts to events intersecting this mask (0 = all).
	Ops events.Op
	// Recursive, when false, restricts to direct children of Under —
	// the inotify-compatible default ("By default, FSMonitor will not
	// monitor events recursively"; recursion "just modif[ies] the
	// filtering rule in the Interface layer").
	Recursive bool
}

// Match reports whether the filter passes e.
func (f Filter) Match(e events.Event) bool {
	if f.Ops != 0 && !e.Op.HasAny(f.Ops) && !e.Op.HasAny(events.OpOverflow) {
		return false
	}
	under := f.Under
	if under == "" {
		under = "/"
	}
	if !e.Under(under) {
		return false
	}
	if !f.Recursive {
		baseDepth := (events.Event{Path: under}).Depth()
		if e.Depth() > baseDepth+1 {
			return false
		}
	}
	return true
}

// Options configures the interface layer.
type Options struct {
	// Store holds events for fault tolerance; required.
	Store *eventstore.Store
	// SubscriberBuffer is each subscription's channel capacity
	// (default pipeline.DefaultSubscriberBuffer batches).
	SubscriberBuffer int
	// AutoAck marks events reported as soon as every subscriber has
	// been offered them (default true in New).
	AutoAck bool
	// Context closes the layer (cancelling every subscription) when
	// canceled. Nil means Background.
	Context context.Context
}

// Interface is the client-facing layer.
type Interface struct {
	store   *eventstore.Store
	opts    Options
	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	closed  bool
	lastSeq atomic.Uint64

	delivered atomic.Uint64
	reported  atomic.Uint64
}

// New creates the interface layer over the given store.
func New(opts Options) (*Interface, error) {
	if opts.Store == nil {
		return nil, errors.New("iface: Options.Store is required")
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = pipeline.DefaultSubscriberBuffer
	}
	i := &Interface{store: opts.Store, opts: opts, subs: make(map[*Subscription]struct{})}
	if opts.Context != nil {
		context.AfterFunc(opts.Context, i.Close)
	}
	return i, nil
}

// Subscription is one client's event feed.
type Subscription struct {
	iface   *Interface
	filter  Filter
	ch      chan []events.Event
	dropped atomic.Uint64
	once    sync.Once
}

// C returns the subscription's batch channel. It closes on Close.
func (s *Subscription) C() <-chan []events.Event { return s.ch }

// Dropped returns batches lost because this subscriber lagged.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close cancels the subscription.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.iface.mu.Lock()
		delete(s.iface.subs, s)
		s.iface.mu.Unlock()
		close(s.ch)
	})
}

// Subscribe attaches a client. If sinceSeq > 0, events after that sequence
// number are replayed from the store first (consumer fault recovery);
// live delivery follows.
func (i *Interface) Subscribe(filter Filter, sinceSeq uint64) (*Subscription, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.closed {
		return nil, errors.New("iface: closed")
	}
	s := &Subscription{iface: i, filter: filter, ch: make(chan []events.Event, i.opts.SubscriberBuffer)}
	if sinceSeq > 0 {
		history, err := i.store.Since(sinceSeq, 0)
		if err != nil {
			return nil, err
		}
		var replay []events.Event
		for _, e := range history {
			if filter.Match(e) {
				replay = append(replay, e)
			}
		}
		if len(replay) > 0 {
			s.ch <- replay
		}
	}
	i.subs[s] = struct{}{}
	return s, nil
}

// Ingest stores a processed batch and delivers it to subscribers. It is
// called by the core with the resolution layer's output and does not
// retain batch.
//
// The batch is copied once and stored with one AppendBatch, which stamps
// the seqs into the copy and keeps its own. The copy is then private, so
// it goes as is to one subscriber whose filter passes every event; every
// other subscriber gets a filtered copy taken before that hand-off.
// Delivery runs under the subscriber lock (its sends never block), so a
// subscription closing concurrently is never sent to.
func (i *Interface) Ingest(batch []events.Event) error {
	if len(batch) == 0 {
		return nil
	}
	stored := append([]events.Event(nil), batch...)
	last, err := i.store.AppendBatch(stored)
	if err != nil {
		return err
	}
	i.lastSeq.Store(last)
	i.mu.Lock()
	var whole *Subscription
	for s := range i.subs {
		filtered := s.filter.selectFrom(stored)
		if len(filtered) == len(stored) {
			if whole == nil {
				whole = s
				continue
			}
			filtered = append([]events.Event(nil), stored...)
		}
		i.offer(s, filtered)
	}
	if whole != nil {
		i.offer(whole, stored)
	}
	i.mu.Unlock()
	if i.opts.AutoAck {
		if err := i.store.MarkReported(last); err != nil {
			return err
		}
		i.reported.Store(last)
	}
	return nil
}

// selectFrom returns the events of evs the filter passes: evs itself when
// it passes all of them, else a new slice.
func (f Filter) selectFrom(evs []events.Event) []events.Event {
	for j := range evs {
		if f.Match(evs[j]) {
			continue
		}
		out := append([]events.Event(nil), evs[:j]...)
		for _, e := range evs[j+1:] {
			if f.Match(e) {
				out = append(out, e)
			}
		}
		return out
	}
	return evs
}

// offer delivers a non-empty batch to s without blocking.
func (i *Interface) offer(s *Subscription, batch []events.Event) {
	if len(batch) == 0 {
		return
	}
	select {
	case s.ch <- batch:
		i.delivered.Add(uint64(len(batch)))
	default:
		// A stalled consumer loses the batch from its live feed
		// but can recover it from the store via Since.
		s.dropped.Add(1)
	}
}

// Since returns events after seq from the reliable store (max <= 0 = all).
func (i *Interface) Since(seq uint64, max int) ([]events.Event, error) {
	return i.store.Since(seq, max)
}

// Ack flags events up to seq as reported; they become eligible for the
// next purge cycle.
func (i *Interface) Ack(seq uint64) error {
	if err := i.store.MarkReported(seq); err != nil {
		return err
	}
	i.reported.Store(seq)
	return nil
}

// Purge removes reported events from the store, returning the count.
func (i *Interface) Purge() (int, error) { return i.store.Purge() }

// LastSeq returns the most recent stored sequence number.
func (i *Interface) LastSeq() uint64 { return i.lastSeq.Load() }

// Stats summarizes interface-layer activity.
type Stats struct {
	Delivered   uint64
	Subscribers int
	Store       eventstore.Stats
}

// Stats returns a snapshot.
func (i *Interface) Stats() Stats {
	i.mu.Lock()
	n := len(i.subs)
	i.mu.Unlock()
	return Stats{Delivered: i.delivered.Load(), Subscribers: n, Store: i.store.Stats()}
}

// Close cancels every subscription.
func (i *Interface) Close() {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return
	}
	i.closed = true
	subs := make([]*Subscription, 0, len(i.subs))
	for s := range i.subs {
		subs = append(subs, s)
	}
	i.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}
