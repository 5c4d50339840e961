// Package scalable implements the paper's scalable monitor for distributed
// file systems (§IV, Fig. 4): one Collector per storage source captures
// events and publishes them over the message queue; an Aggregator on the
// MGS subscribes to every collector, stores events for fault tolerance,
// and publishes the merged stream; Consumers subscribe to the aggregator,
// filter client-side, and recover missed events from the reliable store.
//
// A Collector reads one of two capture sources: a Lustre MDT's Changelog,
// resolved with Algorithm 1 (fid2path through an LRU cache), or a mounted
// DSI whose already-standardized stream is rewritten into the mount's
// prefix of one unified namespace. Everything downstream of capture — the
// publish stage, cluster routing, the conservation audit and span traces —
// is the same for both.
//
// Every service runs on internal/pipeline stages: the Changelog collector
// is changelog-read → resolve → publish, the DSI collector collect →
// publish, the aggregator subscribe → store → republish, the consumer
// subscribe → filter-deliver. The resolve stage is a pipeline.MapN over a
// shared resolve.Resolver — ResolveWorkers invocations of Algorithm 1 run
// concurrently against the sharded, singleflight-coalescing fid2path
// cache, while MapN's order-preserving resequencing keeps per-FID event
// order and Changelog purge cursors strictly in Changelog order. Lifecycle
// is context-driven — Close drains the stages in order, and an optional
// parent context aborts them.
package scalable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/cache"
	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/telemetry"
)

// TopicPrefix is the message-queue topic prefix for collector event
// batches: TopicPrefix + "mdt<N>" for a Changelog collector and
// TopicPrefix + "mount.<name>" for a mounted DSI.
const TopicPrefix = "events."

// ParentDirectoryRemoved is the path reported when both the target and its
// parent FID fail to resolve (Algorithm 1 line 41). It is re-exported from
// the shared resolver layer.
const ParentDirectoryRemoved = resolve.ParentDirectoryRemoved

// Router maps store partitions to their owning aggregator node. A routed
// collector publishes each batch slice to the owning node's inbox topic
// instead of its own per-source topic, and re-resolves the owner between
// delivery retries, so an in-flight batch follows a partition handoff to
// the new owner. cluster.Membership (observer mode) implements it.
type Router interface {
	// Parts is the partition count batches are split by.
	Parts() int
	// OwnerTopic returns the owning node's inbox topic for part; false
	// while the partition is unassigned (a handoff in flight).
	OwnerTopic(part int) (string, bool)
}

// CollectorOptions configures one collector service. Cluster through
// CacheLookupCost configure the Changelog source; the rest apply to every
// collector.
type CollectorOptions struct {
	// Cluster is the file system whose Changelog is read.
	Cluster *lustre.Cluster
	// MDT is the index of the MDS/MDT this collector serves.
	MDT int
	// MountPoint is the client mount path used as the event root
	// (e.g. "/mnt/lustre").
	MountPoint string
	// CacheSize is the fid2path LRU capacity; 0 disables caching
	// (the paper's "without cache" configuration).
	CacheSize int
	// CacheShards is the fid2path cache shard count (default
	// pipeline.DefaultCacheShards).
	CacheShards int
	// NegativeTTL is how long stale-FID resolution failures are
	// negative-cached; <= 0 disables (the default — the paper's
	// collector pays fid2path on every dead-FID miss). Use
	// pipeline.DefaultNegativeTTL when enabling.
	NegativeTTL time.Duration
	// ResolveWorkers is the resolve stage's parallelism: how many
	// Algorithm-1 translations run concurrently (default
	// pipeline.DefaultResolveWorkers = 1, the paper's serial collector).
	// Event order is preserved at any worker count (the stage resequences
	// outputs to input order), but parallel translation races the
	// cache-priming side effects that dead-FID path reconstruction relies
	// on across batches: a record whose FID died before an earlier
	// batch's records were translated may fall back to the
	// ParentDirectoryRemoved marker more often than under the serial
	// collector.
	ResolveWorkers int
	// EventOverhead is the accounted processing cost per event beyond
	// resolution (parsing, queueing; default 3µs).
	EventOverhead time.Duration
	// CacheLookupCost models one cache access including the maintenance
	// pressure of larger tables; 0 derives it from CacheSize (see
	// resolve.LookupCost).
	CacheLookupCost time.Duration
	// BatchSize bounds records per Changelog read (default
	// pipeline.DefaultChangelogBatch), or events per DSI batch (default
	// pipeline.DefaultLocalBatch).
	BatchSize int
	// PollInterval is the idle wait between empty Changelog reads and
	// between delivery retries (default pipeline.DefaultPollInterval).
	PollInterval time.Duration
	// Endpoint is the msgq endpoint the collector's publisher binds
	// (default "inproc://collector-<source>", e.g. "collector-mdt0").
	Endpoint string
	// Router, when non-nil, switches the collector to clustered routing:
	// each captured batch is split by the store partition function and
	// every slice is published to the partition owner's inbox topic. Nil
	// (the default) publishes whole batches on the collector's own topic.
	// With Parts() == 1 the whole batch routes to the single owner
	// unsplit, so a one-node cluster receives the exact bytes a classic
	// aggregator would.
	Router Router
	// Context aborts the collector when canceled (Close remains the
	// graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the collector into the unified
	// registry — under "fsmon.collector.mdt<N>" for a Changelog source,
	// "fsmon.mount.<name>" for a mounted DSI — records per-stage latency
	// histograms, and stamps and traces captured batches. Nil (the
	// default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

// CollectorStats is a snapshot of one collector's counters.
type CollectorStats struct {
	// Source names the capture source: "mdt<N>" or "mount.<name>" (the
	// collector's topic is TopicPrefix + Source).
	Source string
	// MDT is the Changelog source's MDT index (0 for a mounted DSI).
	MDT int
	// RecordsRead counts Changelog records read, or events drained from
	// a mounted DSI.
	RecordsRead     uint64
	EventsPublished uint64
	// Dropped counts events a mounted DSI lost inside its backend.
	Dropped uint64
	// Fid2PathCalls counts fid2path tool invocations.
	Fid2PathCalls uint64
	// Fid2PathStale counts invocations that failed with ErrStaleFID —
	// the expected deleted-FID outcome on UNLNK/RENME paths that
	// Algorithm 1 handles, not failures.
	Fid2PathStale uint64
	// Fid2PathErrors counts invocations that failed for any other
	// reason — real errors.
	Fid2PathErrors uint64
	Cache          cache.Stats
	BusyTime       time.Duration
	Utilization    float64
	ChangelogLag   int // records retained behind the collector
	// Pipeline is the per-stage view (changelog-read → resolve → publish,
	// or collect → publish).
	Pipeline []pipeline.Stats
}

// pubBatch is a captured batch awaiting publication; blk may be nil or
// empty (e.g. a Changelog read of only MARK records) in which case only
// the source's ack runs. since is the Changelog purge cursor covering the
// batch. The capture stamp and any sampled span chain ride inside the
// block.
type pubBatch struct {
	blk   *events.Block
	since uint64
}

// captureSource is where a Collector's batches come from. Exactly two
// implementations exist: changelogSource (a Lustre MDT's Changelog,
// resolved by Algorithm 1) and dsiSource (a mounted DSI's standardized
// stream, rewritten into the mount's prefix).
type captureSource interface {
	// capture adds the source's stages to c's pipeline, registers its
	// telemetry, and returns the flow of captured batches. Each non-empty
	// batch has passed through c.sealCapture.
	capture(c *Collector) pipeline.Flow[pubBatch]
	// ack runs once the publish stage has delivered every event of pb
	// (at once for a nil or empty batch).
	ack(pb pubBatch)
	// stats fills the source's fields of st.
	stats(st *CollectorStats)
	// resetAccounting restarts the source's utilization window.
	resetAccounting()
	// close stops the source around drain, which drains the pipeline.
	close(drain func())
}

// Collector captures one storage source's events and publishes them to
// the aggregation tier as a capture → publish pipeline.
type Collector struct {
	opts      CollectorOptions
	src       captureSource
	source    string // CollectorStats.Source
	telPrefix string // "fsmon.collector.mdt<N>" or "fsmon.mount.<name>"
	pub       *msgq.Pub
	topic     string

	pipe *pipeline.Pipeline
	pool *pipeline.Pool[events.Block]

	published atomic.Uint64

	slog      *slog.Logger
	traced    bool                 // stamp batches at capture (telemetry attached)
	publishUS *telemetry.Histogram // per-batch publish stage wall time

	closeOnce sync.Once
}

// NewCollector creates and starts a collector over one MDT's Changelog.
func NewCollector(opts CollectorOptions) (*Collector, error) {
	if opts.Cluster == nil {
		return nil, errors.New("scalable: CollectorOptions.Cluster is required")
	}
	log, err := opts.Cluster.Changelog(opts.MDT)
	if err != nil {
		return nil, err
	}
	if opts.ResolveWorkers <= 0 {
		opts.ResolveWorkers = pipeline.DefaultResolveWorkers
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = pipeline.DefaultChangelogBatch
	}
	res, err := resolve.New(resolve.Options{
		Backend:         opts.Cluster,
		MountPoint:      opts.MountPoint,
		CacheSize:       opts.CacheSize,
		CacheShards:     opts.CacheShards,
		NegativeTTL:     opts.NegativeTTL,
		Workers:         opts.ResolveWorkers,
		EventOverhead:   opts.EventOverhead,
		CacheLookupCost: opts.CacheLookupCost,
	})
	if err != nil {
		return nil, err
	}
	source := fmt.Sprintf("mdt%d", opts.MDT)
	return newCollector(opts, source, "fsmon.collector."+source, &changelogSource{log: log, res: res})
}

// newDSICollector creates and starts a collector over a mounted DSI,
// publishing its events rewritten under prefix (a clean mount prefix).
// The collector owns d: Close closes it.
func newDSICollector(prefix string, d dsi.DSI, opts CollectorOptions) (*Collector, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = pipeline.DefaultLocalBatch
	}
	source := "mount." + mount.PointName(prefix)
	return newCollector(opts, source, "fsmon."+source, &dsiSource{prefix: prefix, dsi: d})
}

// newCollector binds the publisher and starts src's capture stages
// feeding the shared publish stage. The collector publishes on
// TopicPrefix + source and mirrors into telemetry under telPrefix.
func newCollector(opts CollectorOptions, source, telPrefix string, src captureSource) (*Collector, error) {
	if opts.PollInterval <= 0 {
		opts.PollInterval = pipeline.DefaultPollInterval
	}
	if opts.Endpoint == "" {
		opts.Endpoint = "inproc://collector-" + source
	}
	pub := msgq.NewPub(msgq.WithBlockOnFull()) // §V-D2: no event loss — queue, don't drop
	if err := pub.Bind(opts.Endpoint); err != nil {
		return nil, err
	}
	c := &Collector{
		opts:      opts,
		src:       src,
		source:    source,
		telPrefix: telPrefix,
		pub:       pub,
		topic:     TopicPrefix + source,
		pool:      pipeline.NewPool(0, newPoolBlock, (*events.Block).Reset),
		slog:      telemetry.ComponentLogger(opts.Logger, "collector", "source", source),
	}
	// Hot-path instruments must exist before any stage starts: stage
	// goroutines read them without synchronization. Untraced collectors
	// publish unstamped batches and pay no wire or clock cost.
	reg := opts.Telemetry
	if reg != nil {
		c.publishUS = reg.Histogram(c.telPrefix+".publish_us", nil)
		c.traced = true
	}
	c.pipe = pipeline.New(opts.Context)
	pipeline.Sink(c.pipe, "publish", src.capture(c), c.publishBatch)
	if reg != nil {
		c.pipe.RegisterTelemetry(reg, c.telPrefix+".pipeline")
		msgq.RegisterPubTelemetry(reg, c.telPrefix+".pub", c.pub)
	}
	c.slog.Debug("collector started", "endpoint", c.pub.Addr())
	return c, nil
}

// traceN resolves the effective span-sampling rate at use time rather
// than construction time: the flight recorder's adaptive boost densifies
// the rate on a live deployment, so collectors must see rate changes per
// batch. The lookup is two atomic loads per batch, not per event.
func (c *Collector) traceN() int {
	return c.opts.Telemetry.TraceSampleN()
}

// audit resolves the delivery-conservation audit at use time rather than
// construction time: the classic Deploy builds collectors before the
// aggregator enables the audit on the shared registry, so a cached handle
// would always be nil. The lookup is one atomic pointer load per batch.
func (c *Collector) audit() *telemetry.Audit {
	return c.opts.Telemetry.Audit()
}

// stamp returns the wall-clock capture mark for a batch captured now.
// With telemetry attached the published batch carries it, so downstream
// tiers (and other processes) can measure latency from this moment.
// Untraced collectors leave the stamp at zero, which keeps the wire
// encoding byte-identical to an uninstrumented build.
func (c *Collector) stamp() int64 {
	if !c.traced {
		return 0
	}
	return telemetry.Stamp()
}

// sealCapture runs the capture-boundary steps every source shares on a
// non-empty captured batch: the conservation audit counts it before any
// publish can fail or split, the capture stamp is set, and deterministic
// 1-in-N trace sampling opens the span chain on the first sampled event —
// collect at the capture stamp, resolve now. Keying on the event's
// identity hash means the same event is picked at any batch boundary, so
// a test (or a rerun) traces the same chain.
func (c *Collector) sealCapture(blk *events.Block, stamp int64) {
	c.audit().Captured(blk.Len())
	blk.SetStamp(stamp)
	if traceN := c.traceN(); traceN > 0 && stamp != 0 {
		for i := 0; i < blk.Len(); i++ {
			if key := blk.EventKey(i); traceN == 1 || key%uint64(traceN) == 0 {
				tr := &events.BatchTrace{ID: key}
				tr.Append(events.TierCollect, stamp)
				tr.Append(events.TierResolve, time.Now().UnixNano())
				blk.SetTrace(tr)
				break
			}
		}
	}
}

// Endpoint returns the publisher endpoint consumers should connect to.
func (c *Collector) Endpoint() string { return c.pub.Addr() }

// publishBatch is the publish sink stage: deliver the batch to at least
// one subscriber, then let the source acknowledge it. Only a delivered
// batch is acknowledged, which is what lets the Changelog source purge
// strictly after delivery.
func (c *Collector) publishBatch(ctx context.Context, pb pubBatch) {
	delivered := true
	if blk := pb.blk; blk != nil && blk.Len() > 0 {
		var start time.Time
		if c.publishUS != nil {
			start = time.Now()
		}
		if tr := blk.Trace(); tr != nil {
			// The publish span marks the handoff onto the wire; it is
			// stamped before encoding so it rides inside the payload.
			tr.Append(events.TierPublish, time.Now().UnixNano())
			blk.MarkTraceDirty()
		}
		if c.opts.Router != nil {
			delivered = c.publishRouted(ctx, blk)
		} else {
			var shared bool
			delivered, shared = c.deliver(ctx, c.topic, blk)
			if delivered {
				c.published.Add(uint64(blk.Len()))
				c.audit().Published(blk.Len())
			}
			if !shared {
				c.pool.Put(blk)
			}
		}
		if delivered && c.publishUS != nil {
			c.publishUS.ObserveSince(start)
		}
	}
	if delivered {
		c.src.ack(pb)
	}
}

// deliver publishes blk on topic until at least one subscriber accepts it
// or ctx is canceled. A zero count means no subscriber accepted the batch
// — all detached between the wait and the send, or a fresh TCP link has
// not registered its topics yet — so pause and re-wait rather than losing
// the batch; the block's wire image is encoded at most once across the
// retries. Reports delivery and whether an in-process subscriber now
// shares the block (a failed delivery never shares).
func (c *Collector) deliver(ctx context.Context, topic string, blk *events.Block) (ok, shared bool) {
	for {
		if err := c.pub.WaitSubscribed(ctx); err != nil {
			return false, shared
		}
		n, sh := c.pub.PublishBlockCtx(ctx, topic, blk)
		shared = shared || sh
		if n > 0 {
			return true, shared
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.PollInterval):
		}
		if ctx.Err() != nil {
			return false, shared
		}
	}
}

// routeDeliver publishes blk to the current owner of part, re-resolving
// the owner between attempts: a batch in flight across a partition
// handoff retargets to the new owner instead of stalling on the dead
// one's topic.
func (c *Collector) routeDeliver(ctx context.Context, part int, blk *events.Block) (ok, shared bool) {
	for {
		if topic, assigned := c.opts.Router.OwnerTopic(part); assigned {
			if err := c.pub.WaitSubscribed(ctx); err != nil {
				return false, shared
			}
			n, sh := c.pub.PublishBlockCtx(ctx, topic, blk)
			shared = shared || sh
			if n > 0 {
				return true, shared
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.PollInterval):
		}
		if ctx.Err() != nil {
			return false, shared
		}
	}
}

// publishRouted splits blk by store partition and delivers each slice to
// its owning node's inbox topic, reporting whether every slice was
// delivered (the batch's Changelog records may purge only then). The
// single-partition cluster routes the whole block unsplit — the owner
// receives the identical batch a classic aggregator would.
func (c *Collector) publishRouted(ctx context.Context, blk *events.Block) bool {
	parts := c.opts.Router.Parts()
	if parts <= 1 {
		ok, shared := c.routeDeliver(ctx, 0, blk)
		if ok {
			c.published.Add(uint64(blk.Len()))
			c.audit().Published(blk.Len())
		}
		if !shared {
			c.pool.Put(blk)
		}
		return ok
	}
	// Path-hash split over the captured block, mirroring the partitioned
	// aggregator's router stage: one pooled view per non-empty partition
	// over the same arena — no event structs, no string copies. The views
	// adopt blk's own arena by reference, so blk must outlive every view:
	// it recycles only below, and never once any view is shared with an
	// in-process subscriber.
	views := make([]*events.Block, parts)
	trace := blk.Trace()
	tracePart := -1
	n := blk.Len()
	for i := 0; i < n; i++ {
		p := eventstore.PartitionForPathBytes(blk.PathBytes(i), parts)
		v := views[p]
		if v == nil {
			v = c.pool.Get()
			v.SetStamp(blk.Stamp())
			views[p] = v
		}
		v.AppendFrom(blk, i)
		if trace != nil && tracePart < 0 && blk.EventKey(i) == trace.ID {
			tracePart = p
		}
	}
	if trace != nil && tracePart >= 0 {
		// The trace follows its sampled event: only the view carrying the
		// event whose key is the trace ID keeps the span chain.
		tr := &events.BatchTrace{ID: trace.ID, Spans: append([]events.Span(nil), trace.Spans...)}
		views[tracePart].SetTrace(tr)
	}
	all, anyShared := true, false
	for p, v := range views {
		if v == nil {
			continue
		}
		if !all {
			// A previous slice failed (context canceled): release the
			// rest undelivered. Reset drops their arena alias safely.
			c.pool.Put(v)
			continue
		}
		ok, sh := c.routeDeliver(ctx, p, v)
		if ok {
			c.published.Add(uint64(v.Len()))
			c.audit().Published(v.Len())
			if sh {
				anyShared = true
			} else {
				c.pool.Put(v)
			}
		} else {
			all = false
			c.pool.Put(v) // failed deliveries never share
		}
	}
	if !anyShared {
		c.pool.Put(blk)
	}
	return all
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() CollectorStats {
	st := CollectorStats{
		Source:          c.source,
		EventsPublished: c.published.Load(),
		Pipeline:        c.pipe.Stats(),
	}
	c.src.stats(&st)
	return st
}

// ResetAccounting restarts the utilization window (benchmarks call this at
// the start of a measurement interval).
func (c *Collector) ResetAccounting() { c.src.resetAccounting() }

// Close stops the source and drains the collector's stages in order
// (in-flight batches capture and publish), then closes the publisher.
func (c *Collector) Close() {
	c.closeOnce.Do(func() {
		c.src.close(func() { c.pipe.Drain(pipeline.DefaultDrainGrace) })
		c.pub.Close()
	})
}

// readBatch is one Changelog read travelling to the resolve stage: the
// raw records, the purge cursor covering them, and the capture stamp.
type readBatch struct {
	recs  []lustre.Record
	since uint64
	stamp int64
}

// changelogSource captures one MDT's Changelog as a changelog-read →
// resolve (Algorithm 1) stage pair, and purges the Changelog once a batch
// is delivered.
type changelogSource struct {
	c      *Collector
	log    *lustre.Changelog
	res    *resolve.Resolver
	reader string

	recordsRead atomic.Uint64
	resolveUS   *telemetry.Histogram // per-batch resolve stage wall time
}

func (s *changelogSource) capture(c *Collector) pipeline.Flow[pubBatch] {
	s.c = c
	s.reader = s.log.Register()
	prefix := c.telPrefix
	if reg := c.opts.Telemetry; reg != nil {
		s.resolveUS = reg.Histogram(prefix+".resolve_us", nil)
		reg.GaugeFunc(prefix+".records_read", func() float64 { return float64(s.recordsRead.Load()) })
		reg.GaugeFunc(prefix+".events_published", func() float64 { return float64(c.published.Load()) })
		reg.GaugeFunc(prefix+".changelog_lag", func() float64 { return float64(s.log.Len()) })
		s.res.RegisterTelemetry(reg, prefix+".resolver")
	}
	read := pipeline.Source(c.pipe, "changelog-read", pipeline.DefaultBatchDepth, s.readLoop)
	return pipeline.MapN(c.pipe, "resolve", pipeline.DefaultBatchDepth, c.opts.ResolveWorkers, read, s.resolveBatch)
}

// readLoop is the changelog-read source stage (§IV-2). It does not
// consume Changelog records while nobody is subscribed: PUB/SUB gives no
// delivery guarantee without a subscriber, and purging unconsumed records
// would lose events if the aggregator attaches late or restarts mid-run.
// The gate guards every batch, so an aggregator crash pauses collection
// (the Changelog buffers) rather than losing events.
func (s *changelogSource) readLoop(ctx context.Context, emit func(readBatch) bool) error {
	c := s.c
	idle := time.NewTimer(c.opts.PollInterval)
	defer idle.Stop()
	var since uint64
	for {
		if ctx.Err() != nil {
			return nil
		}
		if err := c.pub.WaitSubscribed(ctx); err != nil {
			return nil
		}
		recs := s.log.Read(since, c.opts.BatchSize)
		if len(recs) == 0 {
			idle.Reset(c.opts.PollInterval)
			select {
			case <-ctx.Done():
				return nil
			case <-idle.C:
			}
			continue
		}
		since = recs[len(recs)-1].Index
		s.recordsRead.Add(uint64(len(recs)))
		if !emit(readBatch{recs: recs, since: since, stamp: c.stamp()}) {
			return nil
		}
	}
}

// resolveBatch is the resolve stage: Algorithm 1 over every record of one
// read via the shared resolver, appending directly into a pooled event
// block — the strings land in the block's arena once and are never copied
// again on this process's hot path. Up to ResolveWorkers batches resolve
// concurrently (MapN re-sequences the outputs, so publish order stays
// Changelog order).
func (s *changelogSource) resolveBatch(_ context.Context, rb readBatch) (pubBatch, bool) {
	var start time.Time
	if s.resolveUS != nil {
		start = time.Now()
	}
	blk := s.c.pool.Get()
	s.res.TranslateBlock(blk, rb.recs)
	if s.resolveUS != nil {
		s.resolveUS.ObserveSince(start)
	}
	if blk.Len() == 0 {
		s.c.pool.Put(blk)
		return pubBatch{since: rb.since}, true
	}
	s.c.sealCapture(blk, rb.stamp)
	return pubBatch{blk: blk, since: rb.since}, true
}

// ack purges the Changelog up to the batch's cursor — "after processing a
// batch of file system events from the Changelog, a collector will purge
// the Changelogs." Purging strictly after delivery preserves the no-loss
// guarantee: if the aggregator is gone (or, routed, any slice's owner is)
// the batch's records stay in the Changelog for the next collector.
func (s *changelogSource) ack(pb pubBatch) {
	if err := s.log.Clear(s.reader, pb.since); err != nil {
		s.c.slog.Warn("changelog purge failed", "since", pb.since, "err", err)
	}
}

func (s *changelogSource) stats(st *CollectorStats) {
	rs := s.res.Stats()
	st.MDT = s.c.opts.MDT
	st.RecordsRead = s.recordsRead.Load()
	st.Fid2PathCalls = rs.Fid2PathCalls
	st.Fid2PathStale = rs.Fid2PathStale
	st.Fid2PathErrors = rs.Fid2PathErrors
	st.Cache = rs.Cache
	st.BusyTime = s.res.Busy()
	st.Utilization = s.res.Utilization()
	st.ChangelogLag = s.log.Len()
}

func (s *changelogSource) resetAccounting() { s.res.ResetAccounting() }

// close drains the stages (read stops, in-flight batches resolve, publish
// and purge), then releases the Changelog reader.
func (s *changelogSource) close(drain func()) {
	drain()
	_ = s.log.Deregister(s.reader)
}

// dsiSource captures a mounted DSI: it drains the already-standardized
// event stream, rewrites each event into the mount's prefix of the
// unified namespace, and batches into pooled blocks bounded by size and
// by pipeline.DefaultBatchInterval age. Its acks are no-ops: the DSI's
// channel is the holding buffer while delivery waits for a subscriber.
type dsiSource struct {
	c      *Collector
	prefix string
	dsi    dsi.DSI

	captured atomic.Uint64
}

func (s *dsiSource) capture(c *Collector) pipeline.Flow[pubBatch] {
	s.c = c
	if reg := c.opts.Telemetry; reg != nil {
		// The per-mount paper-parity capture counters.
		prefix := c.telPrefix
		reg.GaugeFunc(prefix+".captured", func() float64 { return float64(s.captured.Load()) })
		reg.GaugeFunc(prefix+".published", func() float64 { return float64(c.published.Load()) })
		reg.GaugeFunc(prefix+".dropped", func() float64 { return float64(s.dsi.Dropped()) })
	}
	c.slog.Debug("mounted DSI", "prefix", s.prefix, "backend", s.dsi.Name())
	return pipeline.Source(c.pipe, "collect", pipeline.DefaultBatchDepth, s.collectLoop)
}

// collectLoop is the collect source stage: drain the DSI, rewrite each
// event into the unified namespace, and emit size- or age-bounded batches.
func (s *dsiSource) collectLoop(ctx context.Context, emit func(pubBatch) bool) error {
	c := s.c
	flush := time.NewTimer(pipeline.DefaultBatchInterval)
	defer flush.Stop()
	var (
		blk   *events.Block
		stamp int64
	)
	send := func() bool {
		if blk == nil {
			return true
		}
		b := blk
		blk = nil
		if b.Len() == 0 {
			c.pool.Put(b)
			return true
		}
		c.sealCapture(b, stamp)
		return emit(pubBatch{blk: b})
	}
	for {
		select {
		case <-ctx.Done():
			send()
			return nil
		case e, ok := <-s.dsi.Events():
			if !ok {
				send()
				return nil
			}
			if blk == nil {
				blk, stamp = c.pool.Get(), c.stamp()
			}
			s.captured.Add(1)
			if err := blk.AppendEvent(mount.Rewrite("/", s.prefix, e)); err != nil {
				// Wire-limit violations only (a 64KiB path component) —
				// drop the event, keep the batch.
				c.slog.Error("dropping unencodable event", "err", err)
			}
			if blk.Len() >= c.opts.BatchSize {
				if !send() {
					return nil
				}
				flush.Reset(pipeline.DefaultBatchInterval)
			}
		case <-flush.C:
			if !send() {
				return nil
			}
			flush.Reset(pipeline.DefaultBatchInterval)
		}
	}
}

func (s *dsiSource) ack(pubBatch) {}

func (s *dsiSource) stats(st *CollectorStats) {
	st.RecordsRead = s.captured.Load()
	st.Dropped = s.dsi.Dropped()
}

func (s *dsiSource) resetAccounting() {}

// close closes the DSI first, so its buffered events drain through
// collect → publish before the stages stop.
func (s *dsiSource) close(drain func()) {
	_ = s.dsi.Close()
	drain()
}
