package main

import (
	"path"
	"sort"
	"unsafe"

	"fsmonitor/internal/events"
	"fsmonitor/internal/resolve"
)

// expEv is one event the reference derives from the op log.
type expEv struct {
	op  events.Op
	ent int32
	ver int32 // name version of the subject
	opi int32 // index of the op that produced it
}

// checker compares delivered events against the reference derived from
// the generator's op log. An event names its entity through its base
// name, which the generator keeps unique, so it is attributed correctly
// even where Algorithm 1 reports a later name or its
// "/ParentDirectoryRemoved/<name>" fallback. It is then matched to the
// first undelivered reference event with its op mask: among its own op's
// events when the record time carries the op index (Lustre), else among
// its entity's events in reference order.
type checker struct {
	g        *gen
	exp      []expEv
	opExp    []int32 // op index -> first expected event (len(ops)+1 entries)
	entStart []int32 // per-entity slice of entExp (CSR)
	entExp   []int32
	arrive   []int64 // per expected event: delivery time in ns, 0 = not delivered
	pos      []int32 // per expected event: its index in the delivered stream
	parts    uint64
	lastSeq  []uint64
	lastExp  []int32 // per (entity, partition): last matched expected index
	seqs     []uint64
	// byOp matches by the op index the record time carries (Lustre);
	// otherwise by entity in reference order (local: one in-order stream).
	byOp bool

	delivered  int
	unexpected int // no reference event left for (entity, op), or a foreign path
	reordered  int // out of reference order for its entity within a partition
	seqErr     int // duplicate or decreasing seq within a partition
	seqGap     int // seqs skipped within a partition
	fallback   int // matched, but with a later name or the fallback marker
	overflow   int // queue-overflow markers delivered
	replayBad  int // replay events that disagree with the live history
}

// newChecker builds the reference for ops [0, nops).
func newChecker(g *gen, parts int, byOp bool, nops int) *checker {
	c := &checker{g: g, parts: uint64(parts), lastSeq: make([]uint64, parts), byOp: byOp}
	c.opExp = make([]int32, 0, nops+1)
	for i, o := range g.ops[:nops] {
		c.opExp = append(c.opExp, int32(len(c.exp)))
		n := len(c.exp)
		c.exp = g.expected(o, c.exp)
		for j := n; j < len(c.exp); j++ {
			c.exp[j].opi = int32(i)
		}
	}
	c.opExp = append(c.opExp, int32(len(c.exp)))
	c.arrive = make([]int64, len(c.exp))
	c.pos = make([]int32, len(c.exp))
	counts := make([]int32, len(g.ents)+1)
	for _, e := range c.exp {
		counts[e.ent+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	c.entStart = counts
	c.entExp = make([]int32, len(c.exp))
	fill := append([]int32(nil), counts[:len(g.ents)]...)
	for i, e := range c.exp {
		c.entExp[fill[e.ent]] = int32(i)
		fill[e.ent]++
	}
	c.lastExp = make([]int32, len(g.ents)*parts)
	for i := range c.lastExp {
		c.lastExp[i] = -1
	}
	return c
}

// observe checks one delivered event. Events must be observed in
// delivery order.
func (c *checker) observe(e *rec) {
	c.delivered++
	if e.op&events.OpOverflow != 0 {
		c.overflow++
	}
	p := uint64(0)
	if e.seq != 0 {
		p = e.seq % c.parts
		want := c.lastSeq[p] + c.parts
		if c.lastSeq[p] == 0 {
			want = c.parts + p
		}
		switch {
		case e.seq < want:
			c.seqErr++
		case e.seq > want:
			c.seqGap += int((e.seq - want) / c.parts)
			c.lastSeq[p] = e.seq
		default:
			c.lastSeq[p] = e.seq
		}
	}
	c.seqs = append(c.seqs, e.seq)
	dir, base := path.Split(e.path)
	dir = path.Clean(dir)
	ent, ver, ok := parseName(base)
	if !ok || int(ent) >= len(c.g.ents) {
		c.unexpected++
		return
	}
	fellBack := dir == "/"+resolve.ParentDirectoryRemoved
	if !fellBack && dir != c.g.parentPath(ent) {
		c.unexpected++
		return
	}
	match := func(xi int32) bool {
		x := &c.exp[xi]
		if c.arrive[xi] != 0 || x.op != e.op || x.ent != ent {
			return false
		}
		c.arrive[xi] = e.at
		c.pos[xi] = int32(c.delivered - 1)
		if fellBack || ver != x.ver {
			c.fallback++
		}
		k := int(ent)*int(c.parts) + int(p)
		if xi < c.lastExp[k] {
			c.reordered++
		} else {
			c.lastExp[k] = xi
		}
		return true
	}
	if c.byOp {
		if e.opi >= 0 && e.opi < int64(len(c.opExp)-1) {
			for xi := c.opExp[e.opi]; xi < c.opExp[e.opi+1]; xi++ {
				if match(xi) {
					return
				}
			}
		}
	} else {
		for _, xi := range c.entExp[c.entStart[ent]:c.entStart[ent+1]] {
			if match(xi) {
				return
			}
		}
	}
	c.unexpected++
}

// digest summarizes a replayed history: its length, whether its seqs
// strictly increase, and a sum and mixed-hash fingerprint of the seqs.
type digest struct {
	n          int
	increasing bool
	sum, mix   uint64
}

func seqDigest(seqs func(yield func(uint64))) digest {
	d := digest{increasing: true}
	var last uint64
	seqs(func(s uint64) {
		if d.n > 0 && s <= last {
			d.increasing = false
		}
		last = s
		d.n++
		d.sum += s
		d.mix ^= s * 0x9e3779b97f4a7c15
	})
	return d
}

func replayDigest(hist []events.Event) digest {
	return seqDigest(func(yield func(uint64)) {
		for i := range hist {
			yield(hist[i].Seq)
		}
	})
}

// checkReplay compares a replayed history with the seqs delivered live:
// the replay must hold every stored event exactly once, in seq order.
func (c *checker) checkReplay(d digest) {
	live := seqDigest(func(yield func(uint64)) {
		for _, s := range c.seqs {
			if s != 0 {
				yield(s)
			}
		}
	})
	switch {
	case !d.increasing:
		c.replayBad++
	case d.n != live.n:
		c.replayBad += abs(d.n - live.n)
	case d.sum != live.sum || d.mix != live.mix:
		c.replayBad++
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// missing counts reference events never delivered.
func (c *checker) missing() int {
	n := 0
	for _, a := range c.arrive {
		if a == 0 {
			n++
		}
	}
	return n
}

// bytes is the size of the checker's arrays.
func (c *checker) bytes() uintptr {
	return uintptr(cap(c.exp))*unsafe.Sizeof(expEv{}) +
		4*uintptr(cap(c.opExp)+cap(c.entStart)+cap(c.entExp)+cap(c.pos)+cap(c.lastExp)) +
		8*uintptr(cap(c.arrive)+cap(c.seqs)+cap(c.lastSeq))
}

// failures is the gate's numerator: every way the delivered stream can
// disagree with the reference. A missing event that was stored leaves a
// seq gap, so only the gaps beyond the missing events count again.
func (c *checker) failures() int {
	miss := c.missing()
	return miss + c.unexpected + c.reordered + c.seqErr + c.replayBad + max(0, c.seqGap-miss)
}

// expIn is the range of reference events produced by ops [a, b).
func (c *checker) expIn(a, b int) (lo, hi int) {
	return int(c.opExp[a]), int(c.opExp[b])
}

// latencies returns, for the events of ops [a, b), the delay from each
// op's scheduled send time to the event's delivery, in ms, and the same
// split into consecutive windows of win ns by scheduled time.
// An event not delivered by deadline counts at deadline - schedule, so it
// misses any limit below that.
func (c *checker) latencies(a, b int, sched []int64, deadline, win int64) (lat []float64, windows [][]float64, late int) {
	lo, hi := c.expIn(a, b)
	lat = make([]float64, 0, hi-lo)
	t0 := sched[a]
	for i := lo; i < hi; i++ {
		s := sched[c.exp[i].opi]
		at := c.arrive[i]
		if at == 0 || at > deadline {
			at = deadline
			late++
		}
		l := float64(at-s) / 1e6
		lat = append(lat, l)
		w := int((s - t0) / win)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], l)
	}
	for _, w := range windows {
		sort.Float64s(w)
	}
	return lat, windows, late
}

// windowQuantile is the median over windows of each window's q-quantile.
func windowQuantile(windows [][]float64, q float64) float64 {
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
