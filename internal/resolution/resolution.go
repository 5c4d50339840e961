// Package resolution implements FSMonitor's middle layer (§III-A2): "a
// queue to receive and manage events until they are processed. As events
// are received from a DSI plugin they are immediately placed in the
// processing queue. The events are then processed to resolve and
// dereference paths such that events can be transformed into various
// representations." It also provides the layer's performance
// optimizations: batching and caching.
//
// The processor is two internal/pipeline stages that move whole batches:
//
//	intake(batch) → resolve
//
// intake is the paper's processing queue: it batches straight off the DSI
// channel by size or age and queues at most QueueSize events
// (backpressuring the DSI when full). resolve takes one pooled batch per
// channel operation and, in place, normalizes paths against the watch
// root, fills MOVED_TO events' OldPath from the matching MOVED_FROM by
// cookie, and (optionally) suppresses consecutive duplicate events. The
// rename cache and the dedupe predecessor carry across batches, so a
// rename pair or a duplicate run split by a batch boundary is handled as
// if the stream were one batch.
package resolution

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lru"
	"fsmonitor/internal/pipeline"
)

// Options configures a Processor.
type Options struct {
	// BatchSize is the maximum events per emitted batch (default
	// pipeline.DefaultLocalBatch).
	BatchSize int
	// BatchInterval flushes a non-empty partial batch after this delay
	// (default pipeline.DefaultBatchInterval), bounding added latency.
	BatchInterval time.Duration
	// PairRenames fills MOVED_TO events' OldPath from the matching
	// MOVED_FROM (by cookie). Default on via New.
	PairRenames bool
	// Dedupe suppresses an event identical to its immediate predecessor
	// (same op, path, old path, and cookie) — bursty writers often emit
	// runs of identical MODIFY records. Default off.
	Dedupe bool
	// RenameCacheSize bounds the cookie→source-path cache (default
	// pipeline.DefaultRenameCache).
	RenameCacheSize int
	// QueueSize is the processing queue capacity (default
	// pipeline.DefaultQueueSize).
	QueueSize int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = pipeline.DefaultLocalBatch
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = pipeline.DefaultBatchInterval
	}
	if o.RenameCacheSize <= 0 {
		o.RenameCacheSize = pipeline.DefaultRenameCache
	}
	if o.QueueSize <= 0 {
		o.QueueSize = pipeline.DefaultQueueSize
	}
	return o
}

// Stats counts processor activity.
type Stats struct {
	Processed     uint64
	Batches       uint64
	RenamesPaired uint64
	Deduped       uint64
	QueuePeak     int
	// Stages is the underlying per-stage pipeline view (in/out counts,
	// queue high-water marks, blocked time).
	Stages []pipeline.Stats
}

// Processor consumes a DSI event stream and emits processed batches.
type Processor struct {
	opts    Options
	pipe    *pipeline.Pipeline
	out     pipeline.Flow[[]events.Event]
	pool    *pipeline.SlicePool[events.Event]
	renames *lru.Cache[uint32, string]

	// prev/havePrev is the dedupe predecessor; only the resolve stage's
	// goroutine touches it.
	prev     events.Event
	havePrev bool

	// queued counts events batched by intake and not yet taken by
	// resolve (the processing-queue backlog); queuePeak is its
	// high-water mark.
	queued, queuePeak          atomic.Int64
	processed, paired, deduped atomic.Uint64
	closeOnce                  sync.Once
}

// New starts a processor over src. The processor stops when src closes or
// Close is called; either way the output channel closes after the final
// batch.
func New(src <-chan events.Event, opts Options) *Processor {
	opts = opts.withDefaults()
	opts.PairRenames = true
	return newWith(context.Background(), src, opts)
}

// NewWithOptions starts a processor honouring opts exactly (PairRenames
// as given).
func NewWithOptions(src <-chan events.Event, opts Options) *Processor {
	return newWith(context.Background(), src, opts.withDefaults())
}

// NewContext is New bound to ctx: canceling ctx aborts the processor (the
// graceful path is still Close, which drains).
func NewContext(ctx context.Context, src <-chan events.Event, opts Options) *Processor {
	opts = opts.withDefaults()
	opts.PairRenames = true
	return newWith(ctx, src, opts)
}

func newWith(ctx context.Context, src <-chan events.Event, opts Options) *Processor {
	p := &Processor{
		opts:    opts,
		pipe:    pipeline.New(ctx),
		pool:    pipeline.NewSlicePool[events.Event](opts.BatchSize, 0),
		renames: lru.New[uint32, string](opts.RenameCacheSize),
	}
	// The queue holds whole batches; sizing it in batches of BatchSize
	// keeps its bound at QueueSize events.
	depth := max(1, opts.QueueSize/opts.BatchSize)
	queue := pipeline.BatchFrom(p.pipe, "intake", depth, src, opts.BatchSize, opts.BatchInterval, p.pool, p.enqueued)
	p.out = pipeline.Map(p.pipe, "resolve", pipeline.DefaultBatchDepth, queue, p.resolve)
	return p
}

// enqueued accounts a batch intake is about to queue.
func (p *Processor) enqueued(b []events.Event) {
	if d := p.queued.Add(int64(len(b))); d > p.queuePeak.Load() {
		p.queuePeak.Store(d)
	}
}

// resolve is the resolve stage: it normalizes, pairs renames and dedupes
// one batch in place, compacting kept events to its front. A batch left
// empty by dedupe goes back to the pool instead of downstream.
func (p *Processor) resolve(_ context.Context, b []events.Event) ([]events.Event, bool) {
	p.queued.Add(-int64(len(b)))
	p.processed.Add(uint64(len(b)))
	var paired, deduped uint64
	kept := 0
	for i := range b {
		e := events.Normalize(b[i])
		if p.opts.PairRenames && p.pairRename(&e) {
			paired++
		}
		if p.opts.Dedupe {
			if p.havePrev && e.Op == p.prev.Op && e.Path == p.prev.Path && e.OldPath == p.prev.OldPath && e.Cookie == p.prev.Cookie {
				deduped++
				continue
			}
			p.prev, p.havePrev = e, true
		}
		b[kept] = e
		kept++
	}
	if paired > 0 {
		p.paired.Add(paired)
	}
	if deduped > 0 {
		p.deduped.Add(deduped)
		// The pool clears only a slice's length on Put; clear the
		// vacated tail so it does not pin dropped events' strings.
		clear(b[kept:])
	}
	if kept == 0 {
		p.pool.Put(b)
		return nil, false
	}
	return b[:kept], true
}

// pairRename resolves rename pairs by cookie, reporting whether e is a
// paired MOVED_TO.
func (p *Processor) pairRename(e *events.Event) bool {
	if e.Cookie == 0 {
		return false
	}
	switch {
	case e.Op.HasAny(events.OpMovedFrom):
		p.renames.Set(e.Cookie, e.Path)
	case e.Op.HasAny(events.OpMovedTo):
		if e.OldPath != "" {
			return true
		}
		if from, ok := p.renames.Get(e.Cookie); ok {
			e.OldPath = from
			p.renames.Delete(e.Cookie)
			return true
		}
	}
	return false
}

// Batches returns the output stream of processed event batches. Consumers
// that do not retain a batch past handling it may return its backing
// slice with Recycle.
func (p *Processor) Batches() <-chan []events.Event { return p.out.C() }

// Recycle returns a delivered batch's backing slice to the processor's
// pool, making the steady-state batch path allocation-free. The caller
// must not touch the slice afterwards; callers that retain batches simply
// never call it.
func (p *Processor) Recycle(batch []events.Event) { p.pool.Put(batch) }

// Stats returns a snapshot of the counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Processed:     p.processed.Load(),
		Batches:       p.pipe.StageStats("resolve").Out,
		RenamesPaired: p.paired.Load(),
		Deduped:       p.deduped.Load(),
		QueuePeak:     int(p.queuePeak.Load()),
		Stages:        p.pipe.Stats(),
	}
}

// QueueDepth reports the current processing-queue backlog in events:
// those intake has batched and resolve has not yet taken.
func (p *Processor) QueueDepth() int { return int(p.queued.Load()) }

// Close stops the processor without waiting for the source to end: the
// pipeline drains whatever was accepted (bounded by
// pipeline.DefaultDrainGrace if the consumer is gone) and the output
// channel closes after the final batch.
func (p *Processor) Close() {
	p.closeOnce.Do(func() {
		p.pipe.Drain(pipeline.DefaultDrainGrace)
	})
}

// Transform renders a processed event into the requested representation by
// populating the corresponding template (§III-A2: "we instead support
// transformation into any of the commonly defined formats").
func Transform(e events.Event, f events.Format) (string, error) {
	return events.Transform(e, f)
}
