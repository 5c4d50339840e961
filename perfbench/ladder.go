package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/simdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/resolution"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/scalable"
)

// Ladder input caps: the first ops of the workload's catch-up phase.
const (
	ladderLocalOps  = 40000
	ladderLustreOps = 60000
	ladderBatch     = 512 // records per resolve call, the collector's read batch
	ifaceBatch      = 256 // events per Ingest, the resolution layer's batch
)

// ladderResult is the ladder's per-rung figures plus what the handoff
// estimate needs.
type ladderResult struct {
	m          map[string]float64
	evPerBlock float64 // events per published block
	recPerEv   float64 // Changelog records per event
}

// measure times f and counts its allocations, recording the rung's three
// figures per unit of n.
func (l *ladderResult) measure(r rung, n int, f func()) (nsPer float64) {
	var d time.Duration
	allocs, bytes := memDelta(func() {
		t := time.Now()
		f()
		d = time.Since(t)
	})
	names := r.names()
	l.m[names[0]] = float64(d) / float64(n)
	l.m[names[1]] = float64(allocs) / float64(n)
	l.m[names[2]] = float64(bytes) / float64(n)
	return l.m[names[0]]
}

// runLadder drives each layer on the workload's path directly, from one
// goroutine, on inputs recorded from the same workload and seed. Layers it
// builds itself get 1ns modeled costs, so the ladder measures code.
func runLadder(w workload, cfg config) (*ladderResult, error) {
	l := &ladderResult{m: map[string]float64{}}
	p := makePlan(w, cfg)
	if w.local {
		return l, l.local(p)
	}
	return l, l.lustre(w, cfg, p)
}

// local drives the simdsi pump, resolution, the store and iface.
func (l *ladderResult) local(p *plan) error {
	g := p.g
	ops := g.ops[:min(p.drainEnd, ladderLocalOps)]
	var nev int
	for _, o := range ops {
		nev += g.eventsPerOp(o)
	}
	// The file-system operations alone, to separate them from the pump.
	fs, err := localTree(g)
	if err != nil {
		return err
	}
	var opErr error
	var base time.Duration
	baseAllocs, baseBytes := memDelta(func() {
		t := time.Now()
		for _, o := range ops {
			if err := g.applyVFS(fs, localRoot, o); err != nil && opErr == nil {
				opErr = err
			}
		}
		base = time.Since(t)
	})
	if opErr != nil {
		return opErr
	}

	// The pump: the same ops with the simulated inotify DSI attached,
	// draining its stream after every chunk (a chunk's events fit the
	// DSI buffer, so the pump never waits on the ladder).
	if fs, err = localTree(g); err != nil {
		return err
	}
	d, err := simdsi.NewInotify(dsi.Config{Root: localRoot, Recursive: true, Backend: fs})
	if err != nil {
		return err
	}
	recorded := make([]events.Event, 0, nev)
	const chunk = 2000
	l.measure(rungPump, nev, func() {
		for i := 0; i < len(ops); i += chunk {
			j := min(i+chunk, len(ops))
			want := len(recorded)
			for _, o := range ops[i:j] {
				if err := g.applyVFS(fs, localRoot, o); err != nil && opErr == nil {
					opErr = err
				}
				want += g.eventsPerOp(o)
			}
			for len(recorded) < want {
				recorded = append(recorded, <-d.Events())
			}
		}
	})
	d.Close()
	if opErr != nil {
		return opErr
	}
	names := rungPump.names()
	l.m[names[0]] -= float64(base) / float64(nev)
	l.m[names[1]] -= float64(baseAllocs) / float64(nev)
	l.m[names[2]] -= float64(baseBytes) / float64(nev)

	// Resolution over a channel holding the recorded stream.
	src := make(chan events.Event, len(recorded))
	for _, e := range recorded {
		src <- e
	}
	close(src)
	out := make([]events.Event, 0, len(recorded))
	l.measure(rungResolution, len(recorded), func() {
		proc := resolution.New(src, resolution.Options{})
		for b := range proc.Batches() {
			out = append(out, b...)
			proc.Recycle(b)
		}
	})
	if len(out) != len(recorded) {
		return fmt.Errorf("ladder: resolution emitted %d of %d events", len(out), len(recorded))
	}

	st, err := eventstore.New(eventstore.Options{})
	if err != nil {
		return err
	}
	l.measure(rungAppend, len(out), func() {
		for _, e := range out {
			if _, err := st.Append(e); err != nil && opErr == nil {
				opErr = err
			}
		}
	})
	l.measure(rungSince, len(out), func() {
		if _, err := st.Since(0, 0); err != nil && opErr == nil {
			opErr = err
		}
	})
	st.Close()

	// iface delivery: Ingest (which includes its store append) to one
	// recursive subscriber, drained after every batch.
	st2, err := eventstore.New(eventstore.Options{})
	if err != nil {
		return err
	}
	api, err := iface.New(iface.Options{Store: st2, AutoAck: true})
	if err != nil {
		return err
	}
	sub, err := api.Subscribe(iface.Filter{Recursive: true}, 0)
	if err != nil {
		return err
	}
	got := 0
	l.measure(rungIface, len(out), func() {
		for i := 0; i < len(out); i += ifaceBatch {
			if err := api.Ingest(out[i:min(i+ifaceBatch, len(out))]); err != nil && opErr == nil {
				opErr = err
			}
			got += len(<-sub.C())
		}
	})
	api.Close()
	st2.Close()
	if got != len(out) && opErr == nil {
		opErr = fmt.Errorf("ladder: iface delivered %d of %d events", got, len(out))
	}
	return opErr
}

// lustre drives the resolver, Block codec, store, msgq hop and recovery.
func (l *ladderResult) lustre(w workload, cfg config, p *plan) error {
	g := p.g
	lc := lustre.NewCluster(lustreConfig())
	cl := lc.Client()
	for _, o := range g.ops[:min(p.drainEnd, ladderLustreOps)] {
		if err := g.applyLustre(cl, o); err != nil {
			return err
		}
	}
	var batches [][]lustre.Record
	nrec := 0
	for i := 0; i < lc.NumMDS(); i++ {
		log, err := lc.Changelog(i)
		if err != nil {
			return err
		}
		recs := log.Read(0, 0)
		nrec += len(recs)
		for j := 0; j < len(recs); j += ladderBatch {
			batches = append(batches, recs[j:min(j+ladderBatch, len(recs))])
		}
	}
	res, err := resolve.New(resolve.Options{
		Backend: lc, CacheSize: lustreCacheSize,
		EventOverhead: time.Nanosecond, CacheLookupCost: time.Nanosecond,
	})
	if err != nil {
		return err
	}
	// Cold: each batch as the collector first sees it. Warm: the same
	// batch again, its FIDs now cached.
	blocks := make([]*events.Block, len(batches))
	for i := range blocks {
		blocks[i] = events.NewBlock(2*ladderBatch, 64<<10)
	}
	scratch := events.NewBlock(2*ladderBatch, 64<<10)
	var cold, warm time.Duration
	var coldA, coldB, warmA, warmB uint64
	for i, b := range batches {
		a, by := memDelta(func() {
			t := time.Now()
			res.TranslateBlock(blocks[i], b)
			cold += time.Since(t)
		})
		coldA, coldB = coldA+a, coldB+by
		scratch.Reset()
		a, by = memDelta(func() {
			t := time.Now()
			res.TranslateBlock(scratch, b)
			warm += time.Since(t)
		})
		warmA, warmB = warmA+a, warmB+by
	}
	hit, miss := rungHit.names(), rungMiss.names()
	n := float64(nrec)
	l.m[miss[0]], l.m[miss[1]], l.m[miss[2]] = float64(cold)/n, float64(coldA)/n, float64(coldB)/n
	l.m[hit[0]], l.m[hit[1]], l.m[hit[2]] = float64(warm)/n, float64(warmA)/n, float64(warmB)/n
	nev := 0
	for _, b := range blocks {
		nev += b.Len()
	}
	l.evPerBlock = float64(nev) / float64(len(blocks))
	l.recPerEv = float64(nrec) / float64(nev)

	var opErr error
	st, err := eventstore.New(eventstore.Options{})
	if err != nil {
		return err
	}
	l.measure(rungAppend, nev, func() {
		for _, b := range blocks {
			if _, err := st.AppendBlock(b); err != nil && opErr == nil {
				opErr = err
			}
		}
	})
	var hist []events.Event
	l.measure(rungSince, nev, func() {
		hist, err = st.Since(0, 0)
	})
	st.Close()
	if err != nil {
		return err
	}

	if w.nodes > 0 {
		if err := l.wire(cfg, blocks, nev, hist); err != nil {
			return err
		}
	} else if err := l.hop(blocks, "inproc://perfbench-ladder", rungInproc); err != nil {
		return err
	}
	return opErr
}

// wire drives the clustered shape's extra layers: the journaled store,
// the Block codec, the TCP hop and the recovery fan-out.
func (l *ladderResult) wire(cfg config, blocks []*events.Block, nev int, hist []events.Event) error {
	if err := os.MkdirAll(cfg.tmpBase(), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.tmpBase(), "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "journal")
	js, err := eventstore.New(eventstore.Options{JournalPath: jpath, Sync: eventstore.SyncEveryN})
	if err != nil {
		return err
	}
	var opErr error
	jns := l.measure(rungJournal, nev, func() {
		for _, b := range blocks {
			if _, err := js.AppendBlock(b); err != nil && opErr == nil {
				opErr = err
			}
		}
		if err := js.Sync(); err != nil && opErr == nil {
			opErr = err
		}
	})
	if err := js.Close(); err != nil && opErr == nil {
		opErr = err
	}
	if opErr != nil {
		return opErr
	}
	fi, err := os.Stat(jpath)
	if err != nil {
		return err
	}
	l.m["eventstore.journal_ns_per_ev"] = jns - l.m[rungAppend.names()[0]]
	l.m["eventstore.journal_bytes_per_ev"] = float64(fi.Size()) / float64(nev)

	payloads := make([][]byte, len(blocks))
	var wire int
	l.measure(rungEncode, nev, func() {
		for i, b := range blocks {
			payloads[i] = b.EncodeTo(nil, nil)
			wire += len(payloads[i])
		}
	})
	l.m["events.wire_bytes_per_ev"] = float64(wire) / float64(nev)
	dec := events.NewBlock(ladderBatch, 0)
	l.measure(rungDecode, nev, func() {
		for _, pl := range payloads {
			if err := events.DecodeBlockInto(dec, pl); err != nil && opErr == nil {
				opErr = err
			}
		}
	})
	if opErr != nil {
		return opErr
	}
	if err := l.hop(blocks, "tcp://127.0.0.1:0", rungTCP); err != nil {
		return err
	}
	return l.fanout(hist)
}

// hop publishes every block once and receives it on a subscriber, from
// one goroutine: the per-batch cost of one message-queue hop.
func (l *ladderResult) hop(blocks []*events.Block, ep string, r rung) error {
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind(ep); err != nil {
		return err
	}
	defer pub.Close()
	sub := msgq.NewSub()
	defer sub.Close()
	sub.Subscribe("ladder")
	if err := sub.Connect(pub.Addr()); err != nil {
		return err
	}
	if err := sub.WaitReady(5 * time.Second); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pub.WaitSubscribed(ctx); err != nil {
		return err
	}
	for _, b := range blocks {
		b.Wire() // encode outside the hop: the collector's block arrives encoded once
	}
	var opErr error
	l.measure(r, len(blocks), func() {
		for _, b := range blocks {
			if n, _ := pub.PublishBlockCtx(ctx, "ladder", b); n == 0 && opErr == nil {
				opErr = fmt.Errorf("ladder: %s hop: no subscriber took the block", ep)
			}
			if _, ok := sub.Recv(ctx); !ok && opErr == nil {
				opErr = fmt.Errorf("ladder: %s hop: receive failed", ep)
			}
		}
	})
	return opErr
}

// fanout serves the history from two recovery servers, one per
// partition as a two-node cluster splits it, and reads it back through
// RecoveryFanout.SinceVector.
func (l *ladderResult) fanout(hist []events.Event) error {
	var srvs []*scalable.RecoveryServer
	var addrs []string
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	for part := 0; part < 2; part++ {
		eng, err := eventstore.NewSharded(2, eventstore.Options{})
		if err != nil {
			return err
		}
		defer eng.Close()
		var mine []events.Event
		for _, e := range hist {
			if eventstore.PartitionForPath(e.Path, 2) == part {
				mine = append(mine, e)
			}
		}
		if _, err := eng.AppendBatchPartition(part, mine); err != nil {
			return err
		}
		srv, err := scalable.NewRecoveryServer(eng, "127.0.0.1:0")
		if err != nil {
			return err
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
	}
	f := scalable.NewRecoveryFanout(2, addrs...)
	var got []events.Event
	var err error
	l.measure(rungFanout, len(hist), func() {
		got, err = f.SinceVector([]uint64{0, 0}, 0)
	})
	if err != nil {
		return err
	}
	if len(got) != len(hist) {
		return fmt.Errorf("ladder: fan-out recovered %d of %d events", len(got), len(hist))
	}
	return nil
}
