package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"fsmonitor/internal/events"
)

// sink records every delivered event compactly, with its arrival time.
// One consumer goroutine appends; everything else reads after that
// goroutine ends, except n and last, which the generator polls.
type sink struct {
	epoch  time.Time
	recs   []rec
	opBase int64 // Lustre record times are opBase + op index; 0 = local
	n      atomic.Int64
	last   atomic.Int64 // arrival of the newest batch (ns since epoch)

	progress chan struct{}
	done     chan struct{}
}

// rec is what the gate needs of one delivered event. The path string is
// shared with the program's own copy, so keeping it costs no copy.
type rec struct {
	path string
	seq  uint64
	opi  int64 // op index carried in the record time (Lustre), -1 otherwise
	at   int64 // arrival, ns since epoch
	op   events.Op
}

func newSink(epoch time.Time, capacity int64) *sink {
	return &sink{epoch: epoch, recs: make([]rec, 0, capacity), progress: make(chan struct{}, 1), done: make(chan struct{})}
}

// now is the time since the run's epoch in ns; never 0, which the
// checker reserves for "not delivered".
func (s *sink) now() int64 { return int64(time.Since(s.epoch)) + 1 }

// consume drains ch until it closes.
func (s *sink) consume(ch <-chan []events.Event) {
	defer close(s.done)
	for b := range ch {
		at := s.now()

		for i := range b {
			e := &b[i]
			opi := int64(-1)
			if s.opBase != 0 {
				opi = e.Time.UnixNano() - s.opBase
			}
			s.recs = append(s.recs, rec{path: e.Path, seq: e.Seq, opi: opi, at: at, op: e.Op})
		}
		s.last.Store(at)
		s.n.Add(int64(len(b)))
		select {
		case s.progress <- struct{}{}:
		default:
		}
	}
}

// waitFor blocks until at least n events arrived or the deadline passes.
func (s *sink) waitFor(n int64, deadline time.Time) bool {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	for s.n.Load() < n {
		select {
		case <-s.progress:
		case <-t.C:
			return s.n.Load() >= n
		}
	}
	return true
}

// runStats is everything one run of a workload measured.
type runStats struct {
	w       workload
	setup   []float64 // seconds per set-up trial
	readyAt float64   // seconds from deploy start to ready, for the run's own deployment

	drains    []drainRun // one per catch-up trial
	mainDrain drainRun   // the main trial's catch-up (zero if it was incomplete)
	drainFail int        // gate failures of the catch-up trials the run does not carry on
	drainExp  int        // reference events of those trials

	latLow, latHigh   []float64   // sorted ms
	winLow, winHigh   [][]float64 // the same per latWindow of scheduled time
	lateLow, lateHigh int         // events that missed their phase
	genLate           []float64   // ms the open-loop generator ran behind schedule, sorted

	replayEvents int
	replaySec    []float64
	replays      []digest

	rssMB float64
	// harnessMB is what the benchmark itself holds at its peak, which
	// rssMB includes: the delivered-event records, the checker's arrays
	// and the schedule.
	harnessMB float64
	plan      *plan
	sched     []int64 // per op: when it was due (open loop) or sent (ns since epoch)
	chk       *checker
	opErrs    int

	// peaks holds the per-key maximum of the traced run's Stats() samples.
	peaks map[string]float64
}

// drainRun is one catch-up trial.
type drainRun struct {
	events int64   // events delivered in the timed window
	sec    float64 // window length
	cpu    float64 // process CPU seconds over the window
}

func (d drainRun) eps() float64 { return float64(d.events) / d.sec }

// markMain records the main trial's catch-up, the first trial after the
// n the run already had.
func (r *runStats) markMain(n int) {
	if len(r.drains) > n {
		r.mainDrain = r.drains[n]
	}
}

// drainTrials is how many times the catch-up phase is timed (median
// reported); warmupTrials more run first, checked but not timed.
const (
	drainTrials  = 7
	warmupTrials = 2
)

// catchUpTimeout bounds the wait for a catch-up; a trial takes about a
// second. Events still missing then fail the gate.
const catchUpTimeout = 15 * time.Second

func (r *runStats) failures() int { return r.chk.failures() + r.opErrs + r.drainFail }

// attempted counts the reference events of every trial of the run.
func (r *runStats) attempted() int { return len(r.chk.exp) + r.drainExp }

// drainEPS is the median catch-up throughput over the trials.
func (r *runStats) drainEPS() float64 {
	xs := make([]float64, len(r.drains))
	for i, d := range r.drains {
		xs[i] = d.eps()
	}
	return median(xs)
}

// cpuPerEv is the median process CPU per delivered event over the
// catch-up trials, in µs.
func (r *runStats) cpuPerEv() float64 {
	xs := make([]float64, len(r.drains))
	for i, d := range r.drains {
		xs[i] = d.cpu * 1e6 / float64(d.events)
	}
	return median(xs)
}

func (r *runStats) replayEPS() float64 {
	eps := make([]float64, len(r.replaySec))
	for i, s := range r.replaySec {
		eps[i] = float64(r.replayEvents) / s
	}
	return median(eps)
}

// endToEnd renders the untraced metrics.
func (r *runStats) endToEnd() result {
	m := map[string]metric{
		"setup_s":         {median(r.setup), "s"},
		"drain_eps":       {r.drainEPS(), "ev/s"},
		"lat_low_p50_ms":  {windowQuantile(r.winLow, 0.50), "ms"},
		"lat_high_p50_ms": {windowQuantile(r.winHigh, 0.50), "ms"},
		"cpu_us_per_ev":   {r.cpuPerEv(), "us/ev"},
		"rss_peak_mb":     {r.rssMB, "MB"},
	}
	f := r.failures()
	return result{Correct: f == 0, Attempted: r.attempted(), Failed: f, Metrics: m}
}

// summary prints the human-readable run report to stderr.
func (r *runStats) summary() {
	fmt.Fprintf(os.Stderr, "perfbench: %s setup=%.4fs (median of %d) drain=%d ev (%.0f ev/s, %.2f us/ev cpu, median of %d)\n",
		r.w.name, median(r.setup), len(r.setup), r.plan.drainEvents, r.drainEPS(), r.cpuPerEv(), len(r.drains))
	fmt.Fprintf(os.Stderr, "perfbench: %s low %.0f ev/s: p50=%.3fms (phase %.3fms) p99=%.3fms (phase %.3fms) n=%d late=%d; high %.0f ev/s: p50=%.3fms (phase %.3fms) p99=%.3fms (phase %.3fms) n=%d late=%d; gen late p99=%.3fms\n",
		r.w.name, r.w.lowEPS(), windowQuantile(r.winLow, .5), quantile(r.latLow, .5), windowQuantile(r.winLow, .99), quantile(r.latLow, .99), len(r.latLow), r.lateLow,
		r.w.highEPS(), windowQuantile(r.winHigh, .5), quantile(r.latHigh, .5), windowQuantile(r.winHigh, .99), quantile(r.latHigh, .99), len(r.latHigh), r.lateHigh, quantile(r.genLate, .99))
	for _, d := range r.drains {
		fmt.Fprintf(os.Stderr, " %.0f", d.eps())
	}
	fmt.Fprintln(os.Stderr, " ev/s per catch-up trial")
	for _, sec := range r.replaySec {
		fmt.Fprintf(os.Stderr, " %.0f", float64(r.replayEvents)/sec)
	}
	fmt.Fprintln(os.Stderr, " ev/s per replay trial")
	c := r.chk
	fmt.Fprintf(os.Stderr, "perfbench: %s replay=%d ev %.0f ev/s rss=%.1fMB delivered=%d expected=%d missing=%d unexpected=%d reordered=%d seqerr=%d seqgap=%d fallback=%d replaybad=%d operr=%d\n",
		r.w.name, r.replayEvents, r.replayEPS(), r.rssMB, c.delivered, r.attempted(), c.missing(), c.unexpected, c.reordered, c.seqErr, c.seqGap, c.fallback, c.replayBad, r.opErrs+r.drainFail)
}

// runShape runs the workload once; tr != nil selects the traced run.
func runShape(w workload, cfg config, tr *tracer) (*runStats, error) {
	var r *runStats
	var err error
	if w.local {
		r, err = runLocal(w, cfg, tr)
	} else {
		r, err = runLustre(w, cfg, tr)
	}
	if err != nil {
		return nil, err
	}
	r.summary()
	return r, nil
}

// plan is the op log shared by every shape: the catch-up ops, then the
// open-loop ops, which alternate between the low and the high rate in
// segments so that both rates sample the whole open-loop stretch of the
// run (a noisy neighbour slows both alike rather than one of them).
type plan struct {
	g           *gen
	drainEnd    int // catch-up ops are [0, drainEnd)
	segs        []segment
	end         int
	drainEvents int64 // events of the catch-up ops
	expTotal    int64 // events of every op
}

// segment is a stretch of open-loop ops [a, b) sent at eps events/s.
type segment struct {
	a, b int
	eps  float64
	high bool
	sec  float64
}

// segSec is the length of one open-loop segment; the open loop takes
// 40% of --seconds, half at each rate.
const segSec = 0.5

func makePlan(w workload, cfg config) *plan {
	g := newGen(cfg.seed, w.top, w.sub, !w.local)
	if !w.local {
		g.mkdirOps()
	}
	p := &plan{g: g}
	g.churn(int(float64(drainOpsPerSec) * cfg.seconds * cfg.scale))
	p.drainEnd = len(g.ops)
	pairs := int(0.2*cfg.seconds/segSec + 0.5)
	if pairs < 1 {
		pairs = 1
	}
	sec := segSec * cfg.scale
	for i := 0; i < 2*pairs; i++ {
		sg := segment{a: len(g.ops), eps: w.lowEPS(), high: i%2 == 1, sec: sec}
		if sg.high {
			sg.eps = w.highEPS()
		}
		for have := 0.0; have < sg.eps*sec; {
			have += float64(g.eventsPerOp(g.next()))
		}
		sg.b = len(g.ops)
		p.segs = append(p.segs, sg)
	}
	p.end = len(g.ops)
	p.drainEvents = p.events(0, p.drainEnd)
	p.expTotal = p.events(0, p.end)
	return p
}

func (p *plan) events(a, b int) int64 {
	var n int64
	for _, o := range p.g.ops[a:b] {
		n += int64(p.g.eventsPerOp(o))
	}
	return n
}

// openLoop sends the segment's ops on a fixed schedule from t0 (ns since
// epoch). Each op is due when the events before it in the segment are
// due at the segment's rate; sched[i] receives op i's due time. It never
// sends early; when it runs behind it sends back to back until it catches
// up. It returns when the segment's schedule ends.
func openLoop(s *sink, p *plan, sg segment, t0 int64, sched []int64, genLate *[]float64,
	apply func(int) error, tr *tracer) (end int64, errs int) {
	var cum float64
	for i := sg.a; i < sg.b; i++ {
		due := t0 + int64(cum/sg.eps*1e9)
		sched[i] = due
		cum += float64(p.g.eventsPerOp(p.g.ops[i]))
		now := s.now()
		if d := due - now; d > 0 {
			time.Sleep(time.Duration(d))
			now = s.now()
		}
		*genLate = append(*genLate, float64(now-due)/1e6)
		if tr != nil {
			tr.genStart[i] = now
		}
		if apply(i) != nil {
			errs++
		}
		if tr != nil {
			tr.genEnd[i] = s.now()
		}
	}
	return t0 + int64(sg.sec*1e9), errs
}

// latWindow splits the open loop for the latency figures: the p50 or p99
// of each window of scheduled time, then the median over windows, so one
// stall (a GC cycle, a slice regrowth) moves the figure only as far as
// the windows it hits.
const latWindow = int64(100 * time.Millisecond)

// openGrace is how long after its last send the open loop waits for
// delivery; later events count as missing every latency limit.
const openGrace = 500 * time.Millisecond

// runOpenLoop drives the open-loop segments back to back on one
// continuous schedule, then waits for delivery; it returns the deadline
// events had to arrive by.
func runOpenLoop(r *runStats, s *sink, p *plan, sched []int64, apply func(int) error, tr *tracer) (deadline int64) {
	runtime.GC()
	var genLate []float64
	t := s.now() + int64(time.Millisecond)
	for _, sg := range p.segs {
		var errs int
		t, errs = openLoop(s, p, sg, t, sched, &genLate, apply, tr)
		r.opErrs += errs
	}
	s.waitFor(p.expTotal, time.Now().Add(openGrace))
	sort.Float64s(genLate)
	r.genLate = genLate
	return s.now()
}

// checkDrain runs the gate over a catch-up trial that ends after the
// catch-up phase.
func (r *runStats) checkDrain(s *sink, p *plan, parts int) {
	c := newChecker(p.g, parts, s.opBase != 0, p.drainEnd)
	for i := range s.recs {
		c.observe(&s.recs[i])
	}
	s.recs = nil
	r.drainFail += c.failures()
	r.drainExp += len(c.exp)
}

// check runs the correctness gate over everything delivered live, in
// delivery order, and derives the latencies.
func (r *runStats) check(s *sink, p *plan, parts int, sched []int64, deadline int64) {
	c := newChecker(p.g, parts, s.opBase != 0, p.end)
	for i := range s.recs {
		c.observe(&s.recs[i])
	}
	r.harnessMB = float64(uintptr(cap(s.recs))*unsafe.Sizeof(rec{})+c.bytes()+uintptr(8*len(sched))) / 1e6
	s.recs = nil
	for _, d := range r.replays {
		c.checkReplay(d)
	}
	r.chk = c
	r.plan, r.sched = p, sched
	for _, sg := range p.segs {
		lat, win, late := c.latencies(sg.a, sg.b, sched, deadline, latWindow)
		if sg.high {
			r.latHigh, r.winHigh, r.lateHigh = append(r.latHigh, lat...), append(r.winHigh, win...), r.lateHigh+late
		} else {
			r.latLow, r.winLow, r.lateLow = append(r.latLow, lat...), append(r.winLow, win...), r.lateLow+late
		}
	}
	sort.Float64s(r.latLow)
	sort.Float64s(r.latHigh)
}
