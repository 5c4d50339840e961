package events

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Block is the zero-copy batch representation the hot path runs on: one
// event batch held as parallel columns (op, cookie, seq, record time) plus
// a single contiguous byte arena for every string field, with per-event
// span offsets into that arena. It is the *only* shape a batch takes from
// capture to delivery — the collector fills one directly from resolution,
// the wire carries its encoded image, the aggregator decodes it as views
// into the received payload (no string materialization), the store appends
// from it, and the consumer materializes Events lazily for delivery.
//
// Compared to []Event round-tripped through the codec, a Block removes the
// two per-event costs that dominated the aggregation tier: the ~112 B
// struct copy at every hop and the per-string allocations of decode
// (three allocations and ~500 B per event). A decoded Block allocates
// nothing per event — columns come from a pooled Block, the arena is the
// received payload itself — and re-encoding after sequence assignment is a
// single buffer clone with 8-byte seq patches instead of a full marshal.
//
// Ownership and mutation rules (the aliasing contract the pipeline relies
// on):
//
//   - A Block is single-writer while it is being built or holds assigned
//     sequence numbers that have not been published. All mutators
//     (AppendEvent, SetSeq, SetStamp, SetTrace, Intern, Wire) require
//     exclusive ownership.
//   - Publishing a Block by pointer (msgq's in-process fast path) freezes
//     it: every receiver must treat it — including its BatchTrace — as
//     immutable. Read accessors (Len, Op, Seq, Root, Event, EventKey,
//     Wire's cached buffer) are safe to use concurrently on a frozen Block.
//   - A Block decoded from a received payload aliases that payload as its
//     arena; the payload must not be modified afterwards (msgq payloads
//     never are).
type Block struct {
	ops     []Op
	cookies []uint32
	seqs    []uint64
	times   []int64 // record time, unix nanoseconds
	spans   []fieldSpans

	arena    []byte
	ownArena bool   // arena backing is this Block's own buffer (appendable)
	interned string // string copy of arena; "" until Intern

	stamp int64
	trace *BatchTrace

	// wire is the cached wire image; nil when the columns have diverged
	// structurally (append, stamp/trace change). seqPos records the byte
	// offset of each event's seq field inside wire, so a seq-only change
	// re-encodes as clone+patch instead of a full marshal.
	wire     []byte
	ownWire  bool
	seqPos   []int
	seqDirty bool
}

// strSpan is one string field as a [off, end) range into the arena.
type strSpan struct{ off, end uint32 }

// fieldSpans locates one event's four string fields in the arena.
type fieldSpans struct{ root, path, old, src strSpan }

// NewBlock returns an empty Block with room for evCap events and arenaCap
// arena bytes before growing.
func NewBlock(evCap, arenaCap int) *Block {
	return &Block{
		ops:     make([]Op, 0, evCap),
		cookies: make([]uint32, 0, evCap),
		seqs:    make([]uint64, 0, evCap),
		times:   make([]int64, 0, evCap),
		spans:   make([]fieldSpans, 0, evCap),
		seqPos:  make([]int, 0, evCap),
		arena:   make([]byte, 0, arenaCap),

		ownArena: true,
		ownWire:  true,
	}
}

// Reset empties the Block for reuse, dropping any foreign (aliased) arena
// or wire backing and retaining owned capacity.
func (b *Block) Reset() {
	b.ops = b.ops[:0]
	b.cookies = b.cookies[:0]
	b.seqs = b.seqs[:0]
	b.times = b.times[:0]
	b.spans = b.spans[:0]
	b.seqPos = b.seqPos[:0]
	if b.ownArena {
		b.arena = b.arena[:0]
	} else {
		b.arena = nil
		b.ownArena = true
	}
	if b.ownWire {
		b.wire = b.wire[:0]
	} else {
		b.wire = nil
		b.ownWire = true
	}
	b.interned = ""
	b.stamp = 0
	b.trace = nil
	b.seqDirty = false
}

// Len returns the number of events in the block.
func (b *Block) Len() int { return len(b.ops) }

// Stamp returns the batch capture stamp (0 = unstamped).
func (b *Block) Stamp() int64 { return b.stamp }

// SetStamp sets the batch capture stamp. The stamp rides in the wire
// header, so changing it invalidates the cached wire image.
func (b *Block) SetStamp(stamp int64) {
	if b.stamp == stamp {
		return
	}
	b.stamp = stamp
	b.invalidateWire()
}

// Trace returns the batch's span trace (nil = untraced).
func (b *Block) Trace() *BatchTrace { return b.trace }

// SetTrace attaches tr as the batch's span trace. The caller keeps
// appending spans to tr until the block is published; every append
// invalidates the wire image, so mark the block dirty once here and again
// via MarkTraceDirty after later span appends.
func (b *Block) SetTrace(tr *BatchTrace) {
	b.trace = tr
	b.invalidateWire()
}

// MarkTraceDirty invalidates the cached wire image after spans were
// appended to the attached trace in place.
func (b *Block) MarkTraceDirty() { b.invalidateWire() }

func (b *Block) invalidateWire() {
	if b.ownWire {
		b.wire = b.wire[:0]
	} else {
		b.wire = nil
		b.ownWire = true
	}
	b.seqPos = b.seqPos[:0]
	b.seqDirty = false
}

// AppendEvent appends one event, copying its strings into the arena. It
// requires an owned arena (a freshly built or Reset block, not one decoded
// from a payload).
func (b *Block) AppendEvent(e Event) error {
	if len(e.Root) > maxStr || len(e.Path) > maxStr || len(e.OldPath) > maxStr {
		return fmt.Errorf("events: path component exceeds %d bytes", maxStr)
	}
	if len(e.Source) > 255 {
		return fmt.Errorf("events: source exceeds 255 bytes")
	}
	if uint64(len(b.ops))+1 >= uint64(batchTraced) {
		return fmt.Errorf("events: batch of %d events exceeds wire limit", len(b.ops)+1)
	}
	if !b.ownArena {
		return fmt.Errorf("events: append into a decoded block")
	}
	var fs fieldSpans
	fs.root = b.appendStr(e.Root)
	fs.path = b.appendStr(e.Path)
	fs.old = b.appendStr(e.OldPath)
	fs.src = b.appendStr(e.Source)
	b.spans = append(b.spans, fs)
	b.ops = append(b.ops, e.Op)
	b.cookies = append(b.cookies, e.Cookie)
	b.seqs = append(b.seqs, e.Seq)
	b.times = append(b.times, e.Time.UnixNano())
	b.interned = ""
	b.invalidateWire()
	return nil
}

func (b *Block) appendStr(s string) strSpan {
	off := uint32(len(b.arena))
	b.arena = append(b.arena, s...)
	return strSpan{off: off, end: uint32(len(b.arena))}
}

// Intern makes one string copy of the whole arena so that per-event
// accessors return substrings of it instead of allocating. Call it once,
// while the block is still exclusively owned (e.g. on the store lane),
// before sharing the block with readers.
func (b *Block) Intern() {
	if b.interned == "" && len(b.arena) > 0 {
		b.interned = string(b.arena)
	}
}

// str materializes one span: a shared substring when the arena is
// interned, a fresh allocation otherwise.
func (b *Block) str(sp strSpan) string {
	if sp.off == sp.end {
		return ""
	}
	if b.interned != "" {
		return b.interned[sp.off:sp.end]
	}
	return string(b.arena[sp.off:sp.end])
}

// Per-event column accessors. i must be in [0, Len()).

// Op returns event i's operation mask.
func (b *Block) Op(i int) Op { return b.ops[i] }

// Cookie returns event i's rename-correlation cookie.
func (b *Block) Cookie(i int) uint32 { return b.cookies[i] }

// Seq returns event i's store sequence number.
func (b *Block) Seq(i int) uint64 { return b.seqs[i] }

// TimeNano returns event i's record time in unix nanoseconds.
func (b *Block) TimeNano(i int) int64 { return b.times[i] }

// Root returns event i's watch root.
func (b *Block) Root(i int) string { return b.str(b.spans[i].root) }

// Path returns event i's subject path.
func (b *Block) Path(i int) string { return b.str(b.spans[i].path) }

// OldPath returns event i's pre-rename path ("" when not a tracked move).
func (b *Block) OldPath(i int) string { return b.str(b.spans[i].old) }

// Source returns event i's producing DSI name.
func (b *Block) Source(i int) string { return b.str(b.spans[i].src) }

// PathBytes returns event i's subject path as raw arena bytes — the
// allocation-free view partition routing hashes.
func (b *Block) PathBytes(i int) []byte {
	sp := b.spans[i].path
	return b.arena[sp.off:sp.end]
}

// SetSeq assigns event i's sequence number (the store's job). The cached
// wire image stays valid — Wire patches the seq fields in place of a full
// re-encode.
func (b *Block) SetSeq(i int, seq uint64) {
	if b.seqs[i] == seq {
		return
	}
	b.seqs[i] = seq
	b.seqDirty = true
}

// Event materializes event i as a standalone Event value.
func (b *Block) Event(i int) Event {
	return Event{
		Root:    b.Root(i),
		Op:      b.ops[i],
		Path:    b.Path(i),
		OldPath: b.OldPath(i),
		Cookie:  b.cookies[i],
		Time:    time.Unix(0, b.times[i]),
		Seq:     b.seqs[i],
		Source:  b.Source(i),
	}
}

// AppendEventsTo materializes every event onto dst and returns the
// extended slice. With an interned arena this allocates only dst growth:
// all strings are substrings of the single interned copy.
func (b *Block) AppendEventsTo(dst []Event) []Event {
	for i := range b.ops {
		dst = append(dst, b.Event(i))
	}
	return dst
}

// EventKey hashes event i's wire-stable identity, byte-identical to
// EventKey(b.Event(i)) without materializing the event.
func (b *Block) EventKey(i int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(sp strSpan) {
		for _, c := range b.arena[sp.off:sp.end] {
			h ^= uint64(c)
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	fs := b.spans[i]
	mix(fs.root)
	mix(fs.path)
	mix(fs.old)
	mix(fs.src)
	for _, v := range [...]uint64{uint64(b.ops[i]), uint64(b.cookies[i]), uint64(b.times[i])} {
		for j := 0; j < 8; j++ {
			h ^= (v >> (8 * j)) & 0xff
			h *= prime64
		}
	}
	return h
}

// AppendFrom appends event i of src to b. When b is empty (or already
// aliased to src's arena) the string bytes are shared, not copied — this
// is the path-hash split: P view blocks over one received payload. A block
// with its own arena copies the bytes instead.
func (b *Block) AppendFrom(src *Block, i int) {
	if len(b.ops) == 0 && len(b.arena) == 0 {
		// Adopt src's arena wholesale; span offsets stay valid.
		b.arena = src.arena
		b.ownArena = false
		b.interned = src.interned
	}
	if b.aliases(src.arena) {
		b.spans = append(b.spans, src.spans[i])
	} else {
		if !b.ownArena {
			// Aliased to a different arena: views are built over exactly
			// one source block, so this is a misuse, not a data shape.
			panic("events: Block.AppendFrom across different source arenas")
		}
		var fs fieldSpans
		cp := func(sp strSpan) strSpan {
			off := uint32(len(b.arena))
			b.arena = append(b.arena, src.arena[sp.off:sp.end]...)
			return strSpan{off: off, end: uint32(len(b.arena))}
		}
		s := src.spans[i]
		fs.root, fs.path, fs.old, fs.src = cp(s.root), cp(s.path), cp(s.old), cp(s.src)
		b.spans = append(b.spans, fs)
		b.interned = ""
	}
	b.ops = append(b.ops, src.ops[i])
	b.cookies = append(b.cookies, src.cookies[i])
	b.seqs = append(b.seqs, src.seqs[i])
	b.times = append(b.times, src.times[i])
	b.invalidateWire()
}

// aliases reports whether b.arena is the same backing as arena.
func (b *Block) aliases(arena []byte) bool {
	return len(b.arena) == len(arena) && (len(arena) == 0 || &b.arena[0] == &arena[0])
}

// CloneFrom makes b an exclusively mutable copy of a frozen src: columns
// and seq positions are copied (so SetSeq and clone+patch re-encoding work
// without touching src), while the arena, interned string, and cached wire
// image are shared read-only. The trace is deep-copied — the clone's
// owner appends spans to it. b must be empty (freshly built or Reset).
func (b *Block) CloneFrom(src *Block) {
	b.ops = append(b.ops[:0], src.ops...)
	b.cookies = append(b.cookies[:0], src.cookies...)
	b.seqs = append(b.seqs[:0], src.seqs...)
	b.times = append(b.times[:0], src.times...)
	b.spans = append(b.spans[:0], src.spans...)
	b.seqPos = append(b.seqPos[:0], src.seqPos...)
	b.arena = src.arena
	b.ownArena = false
	b.interned = src.interned
	b.stamp = src.stamp
	b.wire = src.wire
	b.ownWire = false
	b.seqDirty = src.seqDirty
	if src.trace != nil {
		b.trace = &BatchTrace{ID: src.trace.ID, Spans: append([]Span(nil), src.trace.Spans...)}
	} else {
		b.trace = nil
	}
}

// EncodeTo appends the block's wire encoding — byte-identical to
// MarshalBatchTraced(evs, stamp, trace) over the materialized events — to
// buf and returns the extended buffer. seqPos, when non-nil, receives the
// buffer offset of each event's seq field.
func (b *Block) EncodeTo(buf []byte, seqPos *[]int) []byte {
	header := uint32(len(b.ops))
	if b.stamp != 0 {
		header |= batchStamped
	}
	if b.trace != nil {
		header |= batchTraced
	}
	buf = binary.LittleEndian.AppendUint32(buf, header)
	if b.stamp != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.stamp))
	}
	if tr := b.trace; tr != nil {
		buf = binary.LittleEndian.AppendUint64(buf, tr.ID)
		buf = append(buf, byte(len(tr.Spans)))
		for _, sp := range tr.Spans {
			buf = append(buf, sp.Tier)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.TS))
			node := sp.Node
			if len(node) > maxNode {
				node = node[:maxNode]
			}
			buf = append(buf, byte(len(node)))
			buf = append(buf, node...)
		}
	}
	for i := range b.ops {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.ops[i]))
		buf = binary.LittleEndian.AppendUint32(buf, b.cookies[i])
		if seqPos != nil {
			*seqPos = append(*seqPos, len(buf))
		}
		buf = binary.LittleEndian.AppendUint64(buf, b.seqs[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.times[i]))
		fs := b.spans[i]
		for _, sp := range [...]strSpan{fs.root, fs.path, fs.old} {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(sp.end-sp.off))
			buf = append(buf, b.arena[sp.off:sp.end]...)
		}
		buf = append(buf, byte(fs.src.end-fs.src.off))
		buf = append(buf, b.arena[fs.src.off:fs.src.end]...)
	}
	return buf
}

// Wire returns the block's wire image, caching it. Three speeds:
//
//   - clean cached image (a decoded block republished verbatim, or a
//     repeated publish): returned as-is, zero copies;
//   - seq-only divergence (the store assigned sequence numbers): the
//     cached image is cloned once and the 8-byte seq fields patched at
//     their recorded offsets — no per-event re-marshal;
//   - structural divergence (fresh build, appended trace spans, views):
//     full EncodeTo.
//
// The returned buffer is owned by the block; callers must not modify it.
func (b *Block) Wire() []byte {
	if len(b.wire) >= 4 { // any encoded batch carries at least its header

		if !b.seqDirty {
			return b.wire
		}
		if len(b.seqPos) == len(b.ops) {
			patched := append([]byte(nil), b.wire...)
			for i, pos := range b.seqPos {
				binary.LittleEndian.PutUint64(patched[pos:], b.seqs[i])
			}
			b.wire = patched
			b.ownWire = true
			b.seqDirty = false
			return b.wire
		}
	}
	b.seqPos = b.seqPos[:0]
	var buf []byte
	if b.ownWire {
		buf = b.wire[:0]
	}
	b.wire = b.EncodeTo(buf, &b.seqPos)
	b.ownWire = true
	b.seqDirty = false
	return b.wire
}

// DecodeBlock decodes a wire batch into a fresh Block. See DecodeBlockInto.
func DecodeBlock(payload []byte) (*Block, error) {
	b := &Block{ownArena: true, ownWire: true}
	if err := DecodeBlockInto(b, payload); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeBlockInto decodes a wire batch (any MarshalBatch* encoding) into
// b, which is Reset first. The decode is zero-copy: b's arena and cached
// wire image alias payload, which must not be modified afterwards. The
// accepted input grammar is exactly UnmarshalBatchTraced's, including its
// trailing-bytes check.
func DecodeBlockInto(b *Block, payload []byte) error {
	n, err := DecodeBlockPrefix(b, payload)
	if err != nil {
		return err
	}
	if n != len(payload) {
		return fmt.Errorf("events: %d trailing bytes after batch", len(payload)-n)
	}
	return nil
}

// DecodeBlockPrefix decodes the wire batch at the front of payload into b
// and returns its encoded length; bytes after it are ignored. The batch
// is self-delimiting, so this is how a reader finds where a batch ends
// when the framing around it cannot be trusted. Aliasing is as for
// DecodeBlockInto, over payload[:n].
func DecodeBlockPrefix(b *Block, payload []byte) (int, error) {
	b.Reset()
	if len(payload) < 4 {
		return 0, fmt.Errorf("events: short buffer decoding batch count")
	}
	header := binary.LittleEndian.Uint32(payload)
	pos := 4
	n := header &^ batchFlags
	if header&batchStamped != 0 {
		if len(payload) < pos+8 {
			return 0, fmt.Errorf("events: short buffer decoding batch stamp")
		}
		b.stamp = int64(binary.LittleEndian.Uint64(payload[pos:]))
		pos += 8
	}
	if header&batchTraced != 0 {
		if len(payload) < pos+9 {
			return 0, fmt.Errorf("events: short buffer decoding batch trace")
		}
		tr := &BatchTrace{ID: binary.LittleEndian.Uint64(payload[pos:])}
		nspans := int(payload[pos+8])
		pos += 9
		tr.Spans = make([]Span, nspans)
		for i := range tr.Spans {
			if len(payload) < pos+10 {
				return 0, fmt.Errorf("events: short buffer decoding %d trace spans", nspans)
			}
			sp := Span{Tier: payload[pos], TS: int64(binary.LittleEndian.Uint64(payload[pos+1:]))}
			nl := int(payload[pos+9])
			pos += 10
			if len(payload) < pos+nl {
				return 0, fmt.Errorf("events: short buffer decoding trace span node")
			}
			sp.Node = string(payload[pos : pos+nl])
			pos += nl
			tr.Spans[i] = sp
		}
		b.trace = tr
	}
	for i := uint32(0); i < n; i++ {
		if len(payload)-pos < 24 {
			return 0, fmt.Errorf("events: batch entry %d: short buffer (%d bytes) decoding header", i, len(payload)-pos)
		}
		b.ops = append(b.ops, Op(binary.LittleEndian.Uint32(payload[pos:])))
		b.cookies = append(b.cookies, binary.LittleEndian.Uint32(payload[pos+4:]))
		b.seqPos = append(b.seqPos, pos+8)
		b.seqs = append(b.seqs, binary.LittleEndian.Uint64(payload[pos+8:]))
		b.times = append(b.times, int64(binary.LittleEndian.Uint64(payload[pos+16:])))
		pos += 24
		var fs fieldSpans
		ok := true
		str16 := func() strSpan {
			if !ok || len(payload)-pos < 2 {
				ok = false
				return strSpan{}
			}
			l := int(binary.LittleEndian.Uint16(payload[pos:]))
			pos += 2
			if len(payload)-pos < l {
				ok = false
				return strSpan{}
			}
			sp := strSpan{off: uint32(pos), end: uint32(pos + l)}
			pos += l
			return sp
		}
		fs.root = str16()
		fs.path = str16()
		fs.old = str16()
		if ok && len(payload)-pos >= 1 {
			l := int(payload[pos])
			pos++
			if len(payload)-pos < l {
				ok = false
			} else {
				fs.src = strSpan{off: uint32(pos), end: uint32(pos + l)}
				pos += l
			}
		} else {
			ok = false
		}
		if !ok {
			return 0, fmt.Errorf("events: batch entry %d: short buffer decoding strings", i)
		}
		b.spans = append(b.spans, fs)
	}
	b.arena = payload[:pos]
	b.ownArena = false
	b.wire = payload[:pos]
	b.ownWire = false
	return pos, nil
}
