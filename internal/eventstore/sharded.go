package eventstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"fsmonitor/internal/events"
)

// Sharded is a partitioned Engine: P reference Stores, each with its own
// mutex and journal segment, carved into interleaved sequence lanes
// (shard i assigns i+P, i+2P, ... — see PartitionedEngine). Appends to
// different shards never contend on a lock or a journal buffer, which is
// what lets the aggregation tier scale past the paper's single aggregator
// thread, while comparing the shard-tagged seqs still gives a cheap global
// order for Since/recovery queries.
//
// With parts == 1 a Sharded engine is operationally identical to a plain
// Store — same 1,2,3,... seqs, same journal file at Options.JournalPath —
// so the default deployment reproduces the single-store behaviour exactly.
type Sharded struct {
	shards []*Store
}

// flushGroup coalesces the SyncEveryN windows of a multi-shard engine
// into one engine-wide window: shards count journaled events into a
// shared pool, and the append that fills it flushes every member's
// journal segment in one group pass. This keeps the engine's durability
// bound at SyncEvery unflushed events total (matching a single Store)
// while cutting the flush count from one-per-shard-window to
// one-per-engine-window.
//
// Locking: add runs under the appending store's lock (guarded by its own
// mutex, so concurrent shards race only on the counter), but flush is
// always called after that lock is released and takes the member locks
// one at a time — shard locks never nest.
type flushGroup struct {
	mu      sync.Mutex
	pending int
	every   int
	members []*Store
}

// add counts n newly journaled events and reports whether the window
// filled (resetting it when so — exactly one caller sees true per window).
func (g *flushGroup) add(n int) bool {
	g.mu.Lock()
	g.pending += n
	trig := g.pending >= g.every
	if trig {
		g.pending = 0
	}
	g.mu.Unlock()
	return trig
}

// flush flushes every member's journal buffer. Caller must not hold any
// member's lock.
func (g *flushGroup) flush() {
	for _, m := range g.members {
		m.mu.Lock()
		if !m.closed && m.jw != nil {
			m.flushLocked()
		}
		m.mu.Unlock()
	}
}

// shardOptions derives shard i's Options: its sequence lane, its journal
// segment ("<path>.p<i>" when parts > 1, the unmodified path when parts ==
// 1), and its share of the retention bound.
func shardOptions(opts Options, parts, i int) Options {
	o := opts
	o.seqStride = uint64(parts)
	o.seqOffset = uint64(i)
	if parts > 1 {
		if o.JournalPath != "" {
			o.JournalPath = fmt.Sprintf("%s.p%d", opts.JournalPath, i)
		}
		if o.MaxEvents > 0 {
			o.MaxEvents = (opts.MaxEvents + parts - 1) / parts
		}
	}
	return o
}

// NewSharded creates a partitioned engine with parts shards.
func NewSharded(parts int, opts Options) (*Sharded, error) {
	return buildSharded(parts, opts, New)
}

// OpenSharded recovers every shard from its journal segment (missing
// segments start empty), then continues appending.
func OpenSharded(parts int, opts Options) (*Sharded, error) {
	return buildSharded(parts, opts, Open)
}

func buildSharded(parts int, opts Options, mk func(Options) (*Store, error)) (*Sharded, error) {
	if parts < 1 {
		return nil, errors.New("eventstore: partitions must be >= 1")
	}
	s := &Sharded{shards: make([]*Store, parts)}
	for i := range s.shards {
		st, err := mk(shardOptions(opts, parts, i))
		if err != nil {
			for _, done := range s.shards[:i] {
				done.Close()
			}
			return nil, err
		}
		s.shards[i] = st
	}
	// Multi-shard SyncEveryN engines share one flush window (see
	// flushGroup). A single shard keeps its private window so parts == 1
	// stays operationally identical to a plain Store.
	if parts > 1 && opts.Sync == SyncEveryN {
		every := opts.SyncEvery
		if every <= 0 {
			every = DefaultSyncEvery
		}
		g := &flushGroup{every: every, members: s.shards}
		for _, st := range s.shards {
			st.group = g
		}
	}
	return s, nil
}

// validPartition checks a (parts, part) pair for the partition-store
// constructors.
func validPartition(parts, part int) error {
	if parts < 1 {
		return errors.New("eventstore: partitions must be >= 1")
	}
	if part < 0 || part >= parts {
		return fmt.Errorf("eventstore: partition %d out of range [0,%d)", part, parts)
	}
	return nil
}

// NewPartitionStore creates the single shard holding partition part of a
// parts-wide engine: the same interleaved sequence lane (part+parts,
// part+2·parts, ...) and the same journal segment ("<path>.p<part>"
// when parts > 1) the shard would occupy inside NewSharded(parts, opts).
// It exists for deployments where one process owns only a subset of the
// global partitions — a cluster node opens exactly the partitions
// assigned to it, and because lane and segment are functions of (parts,
// part) alone, a partition handed off between nodes keeps both.
func NewPartitionStore(parts, part int, opts Options) (*Store, error) {
	if err := validPartition(parts, part); err != nil {
		return nil, err
	}
	return New(shardOptions(opts, parts, part))
}

// OpenPartitionStore recovers partition part of a parts-wide engine from
// its journal segment (missing segment starts empty), then continues
// appending on its sequence lane. This is the handoff path: the new
// owner of a partition replays the old owner's segment and resumes the
// lane exactly one stride past the last durable seq. Without a
// JournalPath the partition store is in-memory: the lane restarts at its
// base, so there is nothing for a handoff to replay — durable handoff
// requires the journal.
func OpenPartitionStore(parts, part int, opts Options) (*Store, error) {
	if err := validPartition(parts, part); err != nil {
		return nil, err
	}
	if opts.JournalPath == "" {
		return New(shardOptions(opts, parts, part))
	}
	return Open(shardOptions(opts, parts, part))
}

// MergeBySeq k-way merges per-partition slices (each already ordered by
// Seq) into global Seq order, capped at max (<= 0 = all). Exported for
// the cluster recovery fan-in, which merges partition streams served by
// different nodes.
func MergeBySeq(lists [][]events.Event, max int) []events.Event {
	return mergeBySeq(lists, max)
}

// PartitionForPath is the stable fallback partition function: an FNV-1a
// hash of the event path. Callers that know a better affinity key (the
// collector's MDT index) should route on that instead; the hash only has
// to keep one path's events in one partition.
func PartitionForPath(path string, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(path))
	return int(h.Sum32() % uint32(parts))
}

// PartitionForPathBytes is PartitionForPath over raw path bytes — the
// event-block routing hop, which hashes arena spans without materializing
// a string. The two functions agree for every path.
func PartitionForPathBytes(path []byte, parts int) int {
	if parts <= 1 {
		return 0
	}
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	h := uint32(fnvOffset32)
	for _, c := range path {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return int(h % uint32(parts))
}

// Partitions returns the shard count.
func (s *Sharded) Partitions() int { return len(s.shards) }

// Append routes the event to its path-hash partition.
func (s *Sharded) Append(e events.Event) (uint64, error) {
	return s.shards[PartitionForPath(e.Path, len(s.shards))].Append(e)
}

// AppendBatch routes each event to its path-hash partition, stamping seqs
// into the caller's slice, and returns the seq of the final element.
func (s *Sharded) AppendBatch(evs []events.Event) (uint64, error) {
	var last uint64
	for i := range evs {
		seq, err := s.Append(evs[i])
		if err != nil {
			return last, err
		}
		evs[i].Seq = seq
		last = seq
	}
	return last, nil
}

// AppendBatchPartition stores the whole batch in one shard under a single
// lock acquisition, stamping seqs in place.
func (s *Sharded) AppendBatchPartition(part int, evs []events.Event) (uint64, error) {
	if part < 0 || part >= len(s.shards) {
		return 0, fmt.Errorf("eventstore: partition %d out of range [0,%d)", part, len(s.shards))
	}
	return s.shards[part].AppendBatch(evs)
}

// AppendBlockPartition stores the whole block in one shard under a single
// lock acquisition, assigning seqs into the block's seq column.
func (s *Sharded) AppendBlockPartition(part int, blk *events.Block) (uint64, error) {
	if part < 0 || part >= len(s.shards) {
		return 0, fmt.Errorf("eventstore: partition %d out of range [0,%d)", part, len(s.shards))
	}
	return s.shards[part].AppendBlock(blk)
}

// Since returns up to max events with Seq > seq merged from all shards in
// global Seq order.
func (s *Sharded) Since(seq uint64, max int) ([]events.Event, error) {
	lists := make([][]events.Event, len(s.shards))
	for i, sh := range s.shards {
		l, err := sh.Since(seq, max)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return mergeBySeq(lists, max), nil
}

// SinceVector returns up to max events past the per-partition cursors,
// merged in global Seq order.
func (s *Sharded) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if len(cursors) != len(s.shards) {
		return nil, errPartitions(len(cursors), len(s.shards))
	}
	lists := make([][]events.Event, len(s.shards))
	for i, sh := range s.shards {
		l, err := sh.Since(cursors[i], max)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return mergeBySeq(lists, max), nil
}

// SinceTime returns up to max events recorded at or after t, merged in
// global Seq order.
func (s *Sharded) SinceTime(t time.Time, max int) ([]events.Event, error) {
	lists := make([][]events.Event, len(s.shards))
	for i, sh := range s.shards {
		l, err := sh.SinceTime(t, max)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return mergeBySeq(lists, max), nil
}

// mergeBySeq k-way merges per-shard slices (each already ordered by Seq)
// into global Seq order, capped at max (<= 0 = all).
func mergeBySeq(lists [][]events.Event, max int) []events.Event {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	if max > 0 && total > max {
		total = max
	}
	out := make([]events.Event, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		var bestSeq uint64
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best == -1 || l[idx[i]].Seq < bestSeq {
				best, bestSeq = i, l[idx[i]].Seq
			}
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

// MarkReported applies the global cutoff to every shard: each flags its
// events with Seq <= seq.
func (s *Sharded) MarkReported(seq uint64) error {
	for _, sh := range s.shards {
		if err := sh.MarkReported(seq); err != nil {
			return err
		}
	}
	return nil
}

// MarkReportedVector flags, per shard i, events with Seq <= cursors[i].
func (s *Sharded) MarkReportedVector(cursors []uint64) error {
	if len(cursors) != len(s.shards) {
		return errPartitions(len(cursors), len(s.shards))
	}
	for i, sh := range s.shards {
		if err := sh.MarkReported(cursors[i]); err != nil {
			return err
		}
	}
	return nil
}

// Purge removes reported events from every shard.
func (s *Sharded) Purge() (int, error) {
	total := 0
	for _, sh := range s.shards {
		n, err := sh.Purge()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Stats sums the shard counters; NextSeq reports the highest shard lane.
func (s *Sharded) Stats() Stats {
	var agg Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.Retained += st.Retained
		agg.Reported += st.Reported
		agg.Appended += st.Appended
		agg.Purged += st.Purged
		agg.Evicted += st.Evicted
		agg.TornTails += st.TornTails
		if st.NextSeq > agg.NextSeq {
			agg.NextSeq = st.NextSeq
		}
	}
	return agg
}

// ShardStats returns each shard's counters (for inspection and tests).
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Len returns the total retained events across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// LastSeq returns the highest assigned seq across all shards.
func (s *Sharded) LastSeq() uint64 {
	var last uint64
	for _, sh := range s.shards {
		if l := sh.LastSeq(); l > last {
			last = l
		}
	}
	return last
}

// LastSeqVector returns each shard's highest assigned seq.
func (s *Sharded) LastSeqVector() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.LastSeq()
	}
	return out
}

// CompactJournal compacts every shard's journal segment.
func (s *Sharded) CompactJournal() error {
	for _, sh := range s.shards {
		if err := sh.CompactJournal(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes every shard journal to disk.
func (s *Sharded) Sync() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close closes every shard, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
