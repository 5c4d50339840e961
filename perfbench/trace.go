package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fsmonitor"
	"fsmonitor/internal/core"
	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/simdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/pipeline"
)

// span is one timed call at a layer boundary (ns since the tracer epoch).
type span struct {
	start, end int64
	n          int    // events the call handled
	last       uint64 // last seq it assigned (store appends)
}

// tracer records the traced run's spans in memory: the generator's op
// spans (the span ID of every event is its op index), DSI capture stamps
// (local), store-append spans (classic aggregator),
// delivery times (the sink) and replay calls; plus periodic samples of
// every layer's Stats(). It writes them out when the run ends.
type tracer struct {
	epoch    time.Time
	genStart []int64
	genEnd   []int64
	capture  []int64 // local: DSI capture stamp per event, in stream order

	mu      sync.Mutex
	appends []span

	replay      []span
	replayAlloc [2]uint64 // allocations (count, bytes) across the replay calls
	samples     []map[string]float64
	layers      map[string]float64
	stop        func() map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// start sizes the op spans once the op log is known.
func (t *tracer) start(nops int) {
	t.genStart = make([]int64, nops)
	t.genEnd = make([]int64, nops)
}

// tracedDSI forwards a DSI's stream, stamping each event at capture.
type tracedDSI struct {
	dsi.DSI
	out  chan events.Event
	done chan struct{}
}

func (d *tracedDSI) Events() <-chan events.Event { return d.out }

func (d *tracedDSI) Close() error {
	err := d.DSI.Close()
	<-d.done
	return err
}

// localRegistry registers the simulated inotify backend behind a
// capture-stamping wrapper and selects it through core.Options.Registry.
func (t *tracer) localRegistry() fsmonitor.Option {
	reg := dsi.NewRegistry()
	reg.Register("traced-inotify", func(info dsi.StorageInfo) int { return 0 }, func(cfg dsi.Config) (dsi.DSI, error) {
		inner, err := simdsi.NewInotify(cfg)
		if err != nil {
			return nil, err
		}
		d := &tracedDSI{DSI: inner, out: make(chan events.Event, pipeline.DefaultDSIBuffer), done: make(chan struct{})}
		go func() {
			defer close(d.done)
			defer close(d.out)
			for e := range inner.Events() {
				t.capture = append(t.capture, t.now())
				d.out <- e
			}
		}()
		return d, nil
	})
	return func(o *core.Options) {
		o.Registry = reg
		o.DSIName = "traced-inotify"
	}
}

// tracedEngine times the classic aggregator's store appends (its store
// lane calls AppendBlockPartition).
type tracedEngine struct {
	*eventstore.Store
	t *tracer
}

func (t *tracer) wrapEngine(st *eventstore.Store) eventstore.Engine { return &tracedEngine{st, t} }

func (e *tracedEngine) record(start int64, n int, last uint64) {
	end := e.t.now()
	e.t.mu.Lock()
	e.t.appends = append(e.t.appends, span{start: start, end: end, n: n, last: last})
	e.t.mu.Unlock()
}

func (e *tracedEngine) AppendBlockPartition(part int, blk *events.Block) (uint64, error) {
	start := e.t.now()
	last, err := e.Store.AppendBlockPartition(part, blk)
	e.record(start, blk.Len(), last)
	return last, err
}

// appendOf finds the store-append span that assigned seq (classic
// aggregator: one partition, so a span covers seqs (last-n, last]).
func (t *tracer) appendOf(seq uint64) (span, bool) {
	i := sort.Search(len(t.appends), func(i int) bool { return t.appends[i].last >= seq })
	if seq == 0 || i == len(t.appends) || t.appends[i].last-uint64(t.appends[i].n) >= seq {
		return span{}, false
	}
	return t.appends[i], true
}

// sampleInterval is the Stats() sampling period of the traced run.
const sampleInterval = 10 * time.Millisecond

// sampler calls read every sampleInterval until stopSampling, which
// returns the per-key maximum over all samples.
func (t *tracer) sampler(read func() map[string]float64) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			s := read()
			s["t_ms"] = float64(t.now()) / 1e6
			t.samples = append(t.samples, s)
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	t.stop = func() map[string]float64 {
		close(quit)
		<-done
		peak := map[string]float64{}
		for _, s := range t.samples {
			for k, v := range s {
				if v > peak[k] {
					peak[k] = v
				}
			}
		}
		return peak
	}
}

// stopSampling ends the Stats() sampling and returns the peaks.
func (t *tracer) stopSampling() map[string]float64 {
	if t.stop == nil {
		return nil
	}
	return t.stop()
}

func blocked(st []pipeline.Stats) float64 {
	var d time.Duration
	for _, s := range st {
		d += s.Blocked
	}
	return float64(d) / 1e6
}

func queuePeak(st []pipeline.Stats) float64 {
	p := 0
	for _, s := range st {
		if s.QueuePeak > p {
			p = s.QueuePeak
		}
	}
	return float64(p)
}

// write stores the spans of a sample of events (every 64th expected
// event) and all Stats() samples as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64, r *runStats) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	c := r.chk
	for i := 0; i < len(c.exp); i += 64 {
		x := c.exp[i]
		rec := map[string]any{
			"id": x.opi, "op": opKindNames[r.plan.g.ops[x.opi].kind], "event": x.op.String(),
			"gen": []int64{t.genStart[x.opi], t.genEnd[x.opi]}, "deliver": c.arrive[i],
		}
		if r.sched[x.opi] != 0 {
			rec["due"] = r.sched[x.opi]
		}
		if c.arrive[i] != 0 {
			pos := c.pos[i]
			if int(pos) < len(t.capture) {
				rec["capture"] = t.capture[pos]
			}
			if sp, ok := t.appendOf(c.seqs[pos]); ok {
				rec["store"] = []int64{sp.start, sp.end}
			}
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	for _, sp := range t.appends {
		if err := enc.Encode(map[string]any{"span": "store.append", "start": sp.start, "end": sp.end, "n": sp.n, "last_seq": sp.last}); err != nil {
			f.Close()
			return err
		}
	}
	for _, sp := range t.replay {
		if err := enc.Encode(map[string]any{"span": "replay", "start": sp.start, "end": sp.end, "n": sp.n}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.samples {
		if err := enc.Encode(map[string]any{"sample": s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
