package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"fsmonitor"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/vfs"
)

const (
	localRoot = "/w"
	// localWindow bounds generated-but-undelivered events in the
	// closed-loop catch-up phase, well under the simulated inotify queue
	// (16384 events), so the kernel queue can never overflow.
	localWindow = 8192
)

// localRun is one monitor over a fresh simulated tree with its subscriber
// draining into a sink.
type localRun struct {
	fs  *vfs.FS
	m   *fsmonitor.Monitor
	sub *fsmonitor.Subscription
	s   *sink
}

// watch attaches fsmonitor.WatchSim to fs with one recursive subscriber.
func watch(fs *vfs.FS, opts []fsmonitor.Option) (*fsmonitor.Monitor, *fsmonitor.Subscription, error) {
	m, err := fsmonitor.WatchSim(fs, "sim-linux", localRoot, opts...)
	if err != nil {
		return nil, nil, err
	}
	sub, err := m.Subscribe(iface.Filter{Recursive: true}, 0)
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return m, sub, nil
}

// runLocal runs local-churn: fsmonitor.WatchSim over a simulated Linux
// file system with one recursive subscriber. Catch-up trials are split
// between the start and the end of the run; the middle one's monitor
// carries the open loop and the replay, and stays open while the set-up
// trials run.
func runLocal(w workload, cfg config, tr *tracer) (*runStats, error) {
	p := makePlan(w, cfg)
	r := &runStats{w: w, plan: p}
	opts := []fsmonitor.Option{fsmonitor.WithRecursive()}
	// The first catch-ups of a process run cold (heap growth, page
	// faults); they are checked but not timed.
	for k := 0; k < warmupTrials; k++ {
		if err := r.localTrial(p, opts); err != nil {
			return nil, err
		}
	}
	r.drains = r.drains[:0]
	for k := 0; k < drainTrials/2; k++ {
		if err := r.localTrial(p, opts); err != nil {
			return nil, err
		}
	}

	epoch := time.Now()
	mopts := opts
	if tr != nil {
		epoch = tr.epoch
		mopts = append(mopts, tr.localRegistry())
		tr.start(len(p.g.ops))
	}
	lr, err := startLocal(p, mopts, epoch, p.expTotal)
	if err != nil {
		return nil, err
	}
	defer lr.m.Close()
	if tr != nil {
		tr.sampleLocal(lr.m)
	}
	sched := make([]int64, len(p.g.ops))
	n := len(r.drains)
	if err := r.localDrain(lr, p, sched, tr); err != nil {
		return nil, err
	}
	r.markMain(n)
	apply := func(i int) error { return p.g.applyVFS(lr.fs, localRoot, p.g.ops[i]) }
	deadline := runOpenLoop(r, lr.s, p, sched, apply, tr)

	// A late reader recovers the full history from the interface layer's
	// store (the local path's replay).
	for i := 0; i < localReplayTrials; i++ {
		runtime.GC()
		t := lr.s.now()
		h, err := lr.m.Since(0, 0)
		if err != nil {
			return nil, err
		}
		end := lr.s.now()
		r.replaySec = append(r.replaySec, float64(end-t)/1e9)
		if tr != nil {
			tr.replay = append(tr.replay, span{start: t, end: end, n: len(h)})
		}
		r.replays = append(r.replays, replayDigest(h))
		r.replayEvents = len(h)
	}
	if tr != nil {
		r.peaks = tr.stopSampling()
	}
	if err := r.localSetups(p, opts, w.setupTrials); err != nil {
		return nil, err
	}
	st := lr.m.Stats()
	if err := lr.m.Close(); err != nil {
		return nil, err
	}
	<-lr.s.done
	r.check(lr.s, p, 1, sched, deadline)
	if tr != nil {
		tr.localLayers(r, st)
	}

	for k := drainTrials/2 + 1; k < drainTrials; k++ {
		if err := r.localTrial(p, opts); err != nil {
			return nil, err
		}
	}
	r.rssMB = peakRSSMB()
	return r, nil
}

// localSetups times n set-ups: attach a monitor to the tree and subscribe
// (the crawl that installs a watch per directory is part of set-up). They
// run while the main monitor still holds the run's history, so the heap is
// large; a GC before each trial frees the previous trial's memory for
// reuse, and no GC cycle lands inside a trial.
func (r *runStats) localSetups(p *plan, opts []fsmonitor.Option, n int) error {
	fs, err := localTree(p.g)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		m, sub, err := watch(fs, opts)
		if err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t).Seconds())
		sub.Close()
		if err := m.Close(); err != nil {
			return err
		}
	}
	return nil
}

// startLocal builds a fresh tree, attaches a monitor and starts draining
// its subscription into a sink sized for capacity events.
func startLocal(p *plan, opts []fsmonitor.Option, epoch time.Time, capacity int64) (*localRun, error) {
	fs, err := localTree(p.g)
	if err != nil {
		return nil, err
	}
	m, sub, err := watch(fs, opts)
	if err != nil {
		return nil, err
	}
	lr := &localRun{fs: fs, m: m, sub: sub, s: newSink(epoch, capacity)}
	go lr.s.consume(sub.C())
	return lr, nil
}

// localTrial is a catch-up trial on its own monitor, checked and closed.
func (r *runStats) localTrial(p *plan, opts []fsmonitor.Option) error {
	lr, err := startLocal(p, opts, time.Now(), p.drainEvents)
	if err != nil {
		return err
	}
	if err := r.localDrain(lr, p, make([]int64, p.drainEnd), nil); err != nil {
		lr.m.Close()
		return err
	}
	if err := lr.m.Close(); err != nil {
		return err
	}
	<-lr.s.done
	r.checkDrain(lr.s, p, 1)
	return nil
}

// localTree builds the simulated file system with the plan's directories.
func localTree(g *gen) (*vfs.FS, error) {
	fs := vfs.New()
	if err := fs.Mkdir(localRoot); err != nil {
		return nil, err
	}
	for _, d := range g.dpath {
		if err := fs.Mkdir(localRoot + d); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// localDrain is the local catch-up phase: a closed loop that sends the
// catch-up ops back to back but holds while the window of undelivered
// events is full.
func (r *runStats) localDrain(lr *localRun, p *plan, sched []int64, tr *tracer) error {
	g, s := p.g, lr.s
	runtime.GC()
	t0 := s.now()
	cpu0 := cpuTime()
	var sent int64
	stalled := false
	for i := 0; i < p.drainEnd; i++ {
		for !stalled && sent-s.n.Load() > localWindow {
			select {
			case <-s.progress:
			case <-time.After(catchUpTimeout):
				// Deliveries stopped; send the rest unwindowed and let the
				// gate count what never arrives.
				stalled = true
			}
		}
		sched[i] = s.now()
		if tr != nil {
			tr.genStart[i] = sched[i]
		}
		if g.applyVFS(lr.fs, localRoot, g.ops[i]) != nil {
			r.opErrs++
		}
		if tr != nil {
			tr.genEnd[i] = s.now()
		}
		sent += int64(g.eventsPerOp(g.ops[i]))
	}
	if !s.waitFor(p.drainEvents, time.Now().Add(catchUpTimeout)) {
		// Events that never arrive fail the gate; the trial is not timed.
		fmt.Fprintf(os.Stderr, "perfbench: local-churn: catch-up incomplete: %d/%d events delivered\n", s.n.Load(), p.drainEvents)
		return nil
	}
	cpu := cpuTime() - cpu0
	sec := float64(s.last.Load()-t0) / 1e9
	r.drains = append(r.drains, drainRun{events: p.drainEvents, sec: sec, cpu: cpu})
	return nil
}

// Replay is timed this many times (median reported): the local replay is
// a short in-memory copy, the Lustre one a full recovery round trip.
const (
	localReplayTrials  = 5
	lustreReplayTrials = 3
)
