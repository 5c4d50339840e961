// Package eventstore implements FSMonitor's reliable event store — the
// role MySQL plays in the paper (§IV-2 Aggregation: one aggregator thread
// "stores the events into a local database to enable fault tolerance", and
// §III-A3: the interface layer stores events, flags them once reported,
// and removes them on the next purge cycle; "the size of this database is
// configurable").
//
// The store assigns each event a monotonically increasing sequence number,
// serves "events since ID" queries for consumer fault recovery, tracks the
// reported flag, and bounds its size by purging reported events.
//
// The retained window is a run of fixed-size segments (segmentEvents
// events each): appends fill the last segment, so growth never copies
// retained events, and purging or evicting the oldest events releases
// whole segments from the front. Since and SinceTime binary-search the
// window and copy the answer into one exact-size slice.
//
// Reported events are always a Seq prefix of the window: MarkReported
// flags every event at or below a seq, and later events get higher seqs.
// So the store keeps no per-event flag, only the high-water mark
// ackedThrough, clamped to the last assigned seq so an ack can never
// cover an event not yet stored. Purge, the MaxEvents bound,
// Stats.Reported, journal replay of reported marks and CompactJournal are
// all operations on that prefix.
//
// An optional journal provides durability across process restarts: a log
// of length-prefixed, CRC32C-checked records whose event batches are the
// Block wire encoding the aggregation tier already sends, so a batch is
// encoded once for the wire and the disk (see journal.go for the record
// layout and the torn-tail versus corruption rule).
package eventstore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"fsmonitor/internal/events"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("eventstore: closed")

// SyncPolicy controls when journaled events are flushed from the in-process
// buffer to the operating system.
//
// Durability tradeoff: the journal writer is buffered, so an event that has
// been Appended but not yet flushed is lost if the monitor process dies.
// SyncOnClose (the default, and the historical behaviour) buffers until
// Sync/Close/CompactJournal — fastest, weakest. SyncEveryN bounds the loss
// window to N events. SyncAlways flushes after every Append/AppendBatch, so
// any event acknowledged to the aggregator survives a process crash.
// All policies flush to the OS page cache; surviving power loss additionally
// requires Sync, which fsyncs the file.
//
// Under a multi-shard Sharded engine the SyncEveryN window is shared
// across shards (see flushGroup): the shards count appends into one pool
// and, when it reaches SyncEvery, every shard's journal segment is
// flushed together. The durability bound is therefore at most SyncEvery
// unflushed events for the whole engine — the same guarantee a single
// Store gives — rather than SyncEvery per shard (up to P·SyncEvery
// engine-wide), which is what independent per-shard windows would allow.
// A single-shard engine keeps its own window and is byte-for-byte
// identical to a plain Store.
type SyncPolicy int

const (
	// SyncOnClose flushes the journal only on Sync, Close, or journal
	// compaction (historical behaviour).
	SyncOnClose SyncPolicy = iota
	// SyncAlways flushes the journal after every Append/AppendBatch.
	SyncAlways
	// SyncEveryN flushes the journal once at least Options.SyncEvery
	// events have accumulated since the last flush.
	SyncEveryN
)

// DefaultSyncEvery is the flush interval used by SyncEveryN when
// Options.SyncEvery is unset.
const DefaultSyncEvery = 256

// Options configures a Store.
type Options struct {
	// MaxEvents bounds the number of retained events (0 = unbounded).
	// When the bound is hit, the oldest reported events are discarded
	// first; if all retained events are unreported, the oldest are
	// discarded anyway and counted as Evicted (the paper sizes the
	// database "depending on the resources available to FSMonitor").
	MaxEvents int
	// JournalPath, if non-empty, appends every stored event and reported
	// mark to a checksummed binary journal at this path, so a restarted
	// monitor can reload history with Open. Open truncates a torn final
	// record, fails on mid-file corruption, and refuses a JSONL journal
	// written by earlier releases.
	JournalPath string
	// Sync selects when journal writes reach the OS (see SyncPolicy).
	Sync SyncPolicy
	// SyncEvery is the flush interval for SyncEveryN
	// (<= 0 uses DefaultSyncEvery).
	SyncEvery int

	// seqStride/seqOffset carve the sequence space into interleaved
	// lanes for the Sharded engine: shard i of P assigns offset+1·P+i,
	// offset+2·P+i, ... so the shard index is recoverable as Seq %
	// stride and a stride of 1 (the default) reproduces the classic
	// 1,2,3,... numbering exactly. Package-private: only NewSharded
	// sets them.
	seqStride uint64
	seqOffset uint64
}

// Store is a goroutine-safe reliable event store.
type Store struct {
	mu   sync.Mutex
	opts Options
	win  window // retained events, ordered by Seq; not necessarily contiguous after purge
	// ackedThrough is the reported high-water mark: every retained event
	// with Seq <= ackedThrough is reported, and no other is. It never
	// exceeds the last assigned seq.
	ackedThrough uint64
	nextSeq      uint64
	journal      *os.File
	jw           *bufio.Writer
	closed       bool

	pendingSync               int // events buffered since the last flush (SyncEveryN)
	appended, purged, evicted uint64
	tornTails                 uint64 // torn final records Open truncated

	// group, when non-nil, replaces the store's own SyncEveryN window
	// with a window shared across the shards of one Sharded engine.
	// Only buildSharded sets it.
	group *flushGroup
	// scratch is the reusable buffer journal records are encoded into,
	// so a batch reaches the writer as one frame without allocating.
	scratch []byte

	tel storeTel // nil handles when telemetry is off — every call is a no-op
}

// normalize fills in the sequence-lane defaults.
func (o *Options) normalize() {
	if o.seqStride == 0 {
		o.seqStride = 1
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
}

// New creates a store with the given options.
func New(opts Options) (*Store, error) {
	opts.normalize()
	s := &Store{opts: opts, nextSeq: opts.seqOffset + opts.seqStride}
	if opts.JournalPath != "" {
		f, err := os.OpenFile(opts.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("eventstore: open journal: %w", err)
		}
		s.journal = f
		s.jw = bufio.NewWriter(f)
	}
	return s, nil
}

// Open recovers a store from an existing journal, then continues appending
// to it. Events flagged reported in the journal stay flagged. A torn final
// record is truncated from the file and counted in Stats.TornTails; a
// damaged record anywhere else fails with ErrCorruptJournal, and a JSONL
// journal from an earlier release with ErrLegacyJournal.
func Open(opts Options) (*Store, error) {
	if opts.JournalPath == "" {
		return nil, errors.New("eventstore: Open requires a JournalPath")
	}
	f, err := os.Open(opts.JournalPath)
	if err != nil {
		if os.IsNotExist(err) {
			return New(opts)
		}
		return nil, err
	}
	opts.normalize()
	s := &Store{opts: opts, nextSeq: opts.seqOffset + opts.seqStride}
	good, torn, err := s.replayJournal(f, opts.JournalPath)
	f.Close()
	if err != nil {
		return nil, err
	}
	if torn {
		if err := os.Truncate(opts.JournalPath, good); err != nil {
			return nil, fmt.Errorf("eventstore: truncate torn journal tail: %w", err)
		}
		s.tornTails++
	}
	jf, err := os.OpenFile(opts.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.journal = jf
	s.jw = bufio.NewWriter(jf)
	return s, nil
}

// Append stores the event, assigning and returning its sequence number.
func (s *Store) Append(e events.Event) (uint64, error) {
	if h := s.tel.appendUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	e.Seq = s.nextSeq
	// Without a journal, skip building the one-event slice.
	if s.jw != nil {
		if err := s.journalEventsLocked([]events.Event{e}); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	s.nextSeq += s.opts.seqStride
	s.win.push(e)
	s.appended++
	s.tel.auditAppend(e.Seq, 1, s.opts.seqStride)
	groupFlush := s.maybeFlushLocked(1)
	s.enforceBoundLocked()
	s.mu.Unlock()
	if groupFlush {
		s.group.flush()
	}
	return e.Seq, nil
}

// AppendBatch stores a batch under a single lock acquisition, stamping the
// assigned sequence numbers into the caller's slice, and returns the last
// one. The batch is journaled as one record — the same bytes AppendBlock
// writes for it — and the flush policy is applied once for the whole
// batch. On error nothing is stored.
func (s *Store) AppendBatch(evs []events.Event) (uint64, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	if h := s.tel.appendUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	seq := s.nextSeq
	for i := range evs {
		evs[i].Seq = seq
		seq += s.opts.seqStride
	}
	if err := s.journalEventsLocked(evs); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.nextSeq = seq
	s.win.pushAll(evs)
	s.appended += uint64(len(evs))
	groupFlush := s.maybeFlushLocked(len(evs))
	s.enforceBoundLocked()
	last := evs[len(evs)-1].Seq
	s.tel.auditAppend(last, len(evs), s.opts.seqStride)
	s.mu.Unlock()
	if groupFlush {
		s.group.flush()
	}
	return last, nil
}

// AppendBlock stores every event of the block under a single lock
// acquisition, assigning sequence numbers directly into the block's seq
// column, and returns the last one. This is the zero-copy form of
// AppendBatch: the block's arena is interned once (one string allocation
// for the whole batch — the events materialized straight into the
// window's segments share its backing), and the
// journal record's body is the block's cached wire image after sequence
// assignment — the bytes a later republish sends — so the batch is not
// encoded again for the disk.
func (s *Store) AppendBlock(blk *events.Block) (uint64, error) {
	n := blk.Len()
	if n == 0 {
		return 0, nil
	}
	if h := s.tel.appendUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	blk.Intern()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	for i := 0; i < n; i++ {
		blk.SetSeq(i, s.nextSeq)
		s.nextSeq += s.opts.seqStride
	}
	last := s.nextSeq - s.opts.seqStride
	s.win.pushBlock(blk)
	s.appended += uint64(n)
	s.journalBlockLocked(blk)
	s.tel.auditAppend(last, n, s.opts.seqStride)
	groupFlush := s.maybeFlushLocked(n)
	s.enforceBoundLocked()
	s.mu.Unlock()
	if groupFlush {
		s.group.flush()
	}
	return last, nil
}

// journalEventsLocked encodes evs (seqs assigned) into one event record
// in the scratch buffer and hands it to the journal writer.
func (s *Store) journalEventsLocked(evs []events.Event) error {
	if s.jw == nil {
		return nil
	}
	frame, err := appendEventsFrame(s.scratch[:0], evs)
	if err != nil {
		return err
	}
	s.writeFrameLocked(frame)
	return nil
}

// journalBlockLocked journals the block as one event record whose body is
// its wire image; only the frame header is built here.
func (s *Store) journalBlockLocked(blk *events.Block) {
	if s.jw == nil {
		return
	}
	body := blk.Wire()
	hdr := append(s.scratch[:0], make([]byte, frameHeaderLen)...)
	putFrameHeader(hdr, kindEvents, body)
	s.jw.Write(hdr)
	s.jw.Write(body)
	s.scratch = hdr[:0]
	s.tel.journalBytes.Add(uint64(len(hdr) + len(body)))
}

// writeFrameLocked writes one whole record encoded in scratch and keeps
// the (possibly grown) buffer for reuse.
func (s *Store) writeFrameLocked(frame []byte) {
	s.jw.Write(frame)
	s.scratch = frame[:0]
	s.tel.journalBytes.Add(uint64(len(frame)))
}

// flushLocked flushes the journal buffer, timing it when telemetry is on.
func (s *Store) flushLocked() error {
	if h := s.tel.flushUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	return s.jw.Flush()
}

// maybeFlushLocked applies the SyncPolicy after n newly journaled events.
// The returned flag asks the caller to run s.group.flush() after
// releasing s.mu — flushing the group's other shards while holding this
// store's lock would nest shard locks and invite deadlock.
func (s *Store) maybeFlushLocked(n int) (groupFlush bool) {
	if s.jw == nil {
		return false
	}
	switch s.opts.Sync {
	case SyncAlways:
		s.flushLocked()
	case SyncEveryN:
		if s.group != nil {
			return s.group.add(n)
		}
		s.pendingSync += n
		if s.pendingSync >= s.opts.SyncEvery {
			s.flushLocked()
			s.pendingSync = 0
		}
	}
	return false
}

// Since returns up to max events with Seq > seq in order (max <= 0 = all).
// This is the consumer fault-recovery query: "If users provide an event
// identifier, FSMonitor will only report events that have happened since
// that event" (§III-A3).
func (s *Store) Since(seq uint64, max int) ([]events.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	// The window is ordered by Seq (append assigns increasing seqs and
	// purge preserves relative order), so binary search for the first
	// entry past the cursor instead of scanning the whole window.
	i := s.win.search(func(e *events.Event) bool { return e.Seq > seq })
	return s.copyFromLocked(i, max), nil
}

// SinceTime returns events recorded at or after t. Timestamps are assumed
// monotonically non-decreasing in append order (true for events stamped by
// one monitor clock), which makes the slice binary-searchable by time too.
func (s *Store) SinceTime(t time.Time, max int) ([]events.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	i := s.win.search(func(e *events.Event) bool { return !e.Time.Before(t) })
	return s.copyFromLocked(i, max), nil
}

// copyFromLocked copies up to max events starting at index i (max <= 0 = all).
func (s *Store) copyFromLocked(i, max int) []events.Event {
	n := s.win.n - i
	if n <= 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	return s.win.copyOut(i, n)
}

// MarkReported flags every stored event with Seq <= seq as reported
// ("Once events have been retrieved from FSMonitor, they are flagged as
// having been reported and can be removed from the database"). A seq
// past the last assigned one flags everything stored so far and nothing
// stored later.
func (s *Store) MarkReported(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.markReportedLocked(seq) && s.jw != nil {
		s.writeFrameLocked(appendSeqFrame(s.scratch[:0], kindReported, s.ackedThrough))
	}
	return nil
}

// markReportedLocked raises the reported mark to seq, clamped to the last
// assigned seq, and reports whether it moved.
func (s *Store) markReportedLocked(seq uint64) bool {
	seq = min(seq, s.lastSeqLocked())
	if seq <= s.ackedThrough {
		return false
	}
	s.ackedThrough = seq
	return true
}

// reportedLocked returns the length of the window's reported prefix.
func (s *Store) reportedLocked() int {
	return s.win.search(func(e *events.Event) bool { return e.Seq > s.ackedThrough })
}

// Purge removes reported events (the "next data purge cycle" of §IV-2),
// returning how many were removed.
func (s *Store) Purge() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	removed := s.reportedLocked()
	s.win.dropFront(removed)
	s.purged += uint64(removed)
	return removed, nil
}

// enforceBoundLocked drops the oldest events past MaxEvents. Reported
// events are the oldest, so they go first (counted as purged); any
// further excess is unreported and counted as evicted.
func (s *Store) enforceBoundLocked() {
	if s.opts.MaxEvents <= 0 || s.win.n <= s.opts.MaxEvents {
		return
	}
	over := s.win.n - s.opts.MaxEvents
	reported := min(over, s.reportedLocked())
	s.win.dropFront(over)
	s.purged += uint64(reported)
	s.evicted += uint64(over - reported)
}

// Stats is a snapshot of store counters.
type Stats struct {
	Retained int
	Reported int
	Appended uint64
	Purged   uint64
	Evicted  uint64
	NextSeq  uint64
	// TornTails counts torn final journal records that Open truncated
	// (at most one per Open of a journal file).
	TornTails uint64
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Retained: s.win.n, Reported: s.reportedLocked(),
		Appended: s.appended, Purged: s.purged, Evicted: s.evicted, NextSeq: s.nextSeq,
		TornTails: s.tornTails,
	}
}

// Len returns the number of retained events.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.n
}

// LastSeq returns the highest assigned sequence number (0 = none yet).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeqLocked()
}

func (s *Store) lastSeqLocked() uint64 {
	if s.nextSeq == s.opts.seqOffset+s.opts.seqStride {
		return 0 // nothing assigned yet
	}
	return s.nextSeq - s.opts.seqStride
}

// CompactJournal rewrites the journal to contain only the currently
// retained events and their reported flags, reclaiming space from purged
// history (the journal otherwise grows without bound across purge
// cycles). No-op without a journal.
func (s *Store) CompactJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.jw == nil {
		return nil
	}
	tmp := s.opts.JournalPath + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var maxReported uint64
	if r := s.reportedLocked(); r > 0 {
		maxReported = s.win.at(r - 1).Seq
	}
	// Frames hold compactFrameEvents events each wherever the segment
	// boundaries fall, gathered through one reused buffer.
	chunk := make([]events.Event, 0, min(s.win.n, compactFrameEvents))
	for start := 0; start < s.win.n; start += compactFrameEvents {
		chunk = chunk[:0]
		s.win.runs(start, min(start+compactFrameEvents, s.win.n), func(run []events.Event) {
			chunk = append(chunk, run...)
		})
		frame, err := appendEventsFrame(s.scratch[:0], chunk)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		w.Write(frame)
		s.scratch = frame[:0]
	}
	if maxReported > 0 {
		frame := appendSeqFrame(s.scratch[:0], kindReported, maxReported)
		w.Write(frame)
		s.scratch = frame[:0]
	}
	// The retained events carry their seqs; when none carries the last
	// assigned one (everything was purged), record the lane position so
	// the reopened store does not reissue it.
	if last := s.lastSeqLocked(); last > 0 && (s.win.n == 0 || s.win.at(s.win.n-1).Seq != last) {
		frame := appendSeqFrame(s.scratch[:0], kindLane, last)
		w.Write(frame)
		s.scratch = frame[:0]
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// Swap the live journal for the compacted one.
	s.jw.Flush()
	s.journal.Close()
	if err := os.Rename(tmp, s.opts.JournalPath); err != nil {
		return err
	}
	nf, err := os.OpenFile(s.opts.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.journal = nf
	s.jw = bufio.NewWriter(nf)
	s.pendingSync = 0
	return nil
}

// Sync flushes the journal to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jw == nil {
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	s.pendingSync = 0
	if h := s.tel.flushUS; h != nil {
		defer h.ObserveSince(time.Now())
	}
	return s.journal.Sync()
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.jw != nil {
		s.jw.Flush()
		return s.journal.Close()
	}
	return nil
}
