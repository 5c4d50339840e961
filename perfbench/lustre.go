package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/scalable"
)

// lustreCacheSize is the fid2path cache the paper found best (Table VIII).
const lustreCacheSize = 5000

// lustreConfig is the Iota shape (4 MDTs, DNE) with the modeled fid2path
// and client-op costs at zero, so the benchmark measures code rather
// than the model.
func lustreConfig() lustre.Config {
	cfg := lustre.IotaConfig()
	cfg.Fid2PathCost = 0
	cfg.OpLatency = nil
	return cfg
}

// deployment is one running scalable monitor with its first consumer.
type deployment struct {
	m      *scalable.Monitor
	con    *scalable.Consumer
	engine eventstore.Engine // classic only; owned by the benchmark
	dir    string            // cluster journal directory
	parts  int
	// deployed and cpu0 mark when scalable.Deploy returned: the
	// collectors have started reading the Changelog.
	deployed time.Time
	cpu0     float64
}

// close stops the consumer and the deployment, then releases the store;
// it is safe to call twice.
func (d *deployment) close() {
	if d.con != nil {
		d.con.Close()
	}
	if d.m != nil {
		d.m.Close()
		d.m = nil
	}
	if d.engine != nil {
		d.engine.Close()
		d.engine = nil
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
}

// deploy starts the workload's deployment over lc and attaches the first
// consumer. The clustered shape gets a journaled store in a fresh
// directory the benchmark creates itself.
func deploy(w workload, cfg config, lc *lustre.Cluster, tr *tracer) (*deployment, error) {
	d := &deployment{}
	opts := scalable.DeployOptions{MountPoint: "/mnt/lustre", CacheSize: lustreCacheSize}
	if w.nodes > 0 {
		if err := os.MkdirAll(cfg.tmpBase(), 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.tmpBase(), w.name+"-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		opts.ClusterNodes = w.nodes
		opts.Transport = "tcp"
		opts.ClusterStore = eventstore.Options{
			JournalPath: filepath.Join(dir, "journal"),
			Sync:        eventstore.SyncEveryN,
		}
	} else {
		st, err := eventstore.New(eventstore.Options{})
		if err != nil {
			return nil, err
		}
		d.engine = st
		opts.Engine = st
		if tr != nil {
			opts.Engine = tr.wrapEngine(st)
		}
	}
	m, err := scalable.Deploy(lc, opts)
	if err != nil {
		d.close()
		return nil, err
	}
	d.deployed, d.cpu0 = time.Now(), cpuTime()
	d.m = m
	// The paced components' utilization and the traced samples cover the
	// catch-up from the moment the collectors start.
	m.ResetAccounting()
	if tr != nil {
		tr.sampleLustre(m)
	}
	d.parts = 1
	if w.nodes > 0 {
		d.parts = m.ClusterParts()
	} else {
		d.parts = m.Aggregator.Partitions()
	}
	d.con, err = m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// runLustre runs lustre-agg1 or lustre-cluster2: prefill a Changelog
// backlog, deploy, drain it, then the open loop, then a late consumer
// replays the full history. Catch-up trials are split between the start
// and the end of the run; the middle one's deployment carries the open
// loop and the replay, and stays up while the set-up trials run.
func runLustre(w workload, cfg config, tr *tracer) (*runStats, error) {
	p := makePlan(w, cfg)
	r := &runStats{w: w, plan: p}
	// The first catch-ups of a process run cold (heap growth, page
	// faults, the first TCP links); they are checked but not timed.
	for k := 0; k < warmupTrials; k++ {
		if err := r.lustreTrial(w, cfg, p); err != nil {
			return nil, err
		}
	}
	r.drains = r.drains[:0]
	for k := 0; k < drainTrials/2; k++ {
		if err := r.lustreTrial(w, cfg, p); err != nil {
			return nil, err
		}
	}

	n := len(r.drains)
	d, s, apply, err := r.lustreDrain(w, cfg, p, tr, p.expTotal)
	if err != nil {
		return nil, err
	}
	r.markMain(n)
	defer d.close()
	if tr != nil {
		tr.drainStats(d)
	}
	sched := make([]int64, len(p.g.ops))
	deadline := runOpenLoop(r, s, p, sched, apply, tr)

	// A late consumer from seq 0 replays the whole history through the
	// recovery path (in process for the classic aggregator, the TCP
	// recovery fan-out for the cluster).
	for i := 0; i < lustreReplayTrials; i++ {
		var h []events.Event
		var late *scalable.Consumer
		var err error
		runtime.GC()
		t := s.now()
		allocs, bytes := memDelta(func() {
			if late, err = d.m.NewConsumer(iface.Filter{Recursive: true}, 0); err != nil {
				return
			}
			select {
			case h = <-late.C():
			case <-time.After(60 * time.Second):
				err = fmt.Errorf("no replay")
			}
		})
		end := s.now()
		if late != nil {
			late.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("late consumer: %w", err)
		}
		r.replaySec = append(r.replaySec, float64(end-t)/1e9)
		if tr != nil {
			tr.replayAlloc[0] += allocs
			tr.replayAlloc[1] += bytes
			tr.replay = append(tr.replay, span{start: t, end: end, n: len(h)})
		}
		r.replays = append(r.replays, replayDigest(h))
		r.replayEvents = len(h)
	}
	if tr != nil {
		r.peaks = tr.stopSampling()
	}
	if err := r.lustreSetups(w, cfg, w.setupTrials); err != nil {
		return nil, err
	}
	d.con.Close()
	<-s.done
	if tr != nil {
		tr.lustreLayers(r, d)
	}
	d.close()
	r.check(s, p, d.parts, sched, deadline)

	for k := drainTrials/2 + 1; k < drainTrials; k++ {
		if err := r.lustreTrial(w, cfg, p); err != nil {
			return nil, err
		}
	}
	r.rssMB = peakRSSMB()
	return r, nil
}

// lustreSetups times n set-ups on idle clusters of the workload's shape,
// so the measurement does not race a draining backlog. They run while the
// main deployment still holds the run's history, so the heap is large; a
// GC before each trial frees the previous trial's memory for reuse, and no
// GC cycle lands inside a trial.
func (r *runStats) lustreSetups(w workload, cfg config, n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		d, err := deploy(w, cfg, lustre.NewCluster(lustreConfig()), nil)
		if err != nil {
			return fmt.Errorf("set-up trial: %w", err)
		}
		r.setup = append(r.setup, time.Since(t).Seconds())
		d.close()
	}
	return nil
}

// lustreTrial is a catch-up trial on its own cluster, checked and closed.
func (r *runStats) lustreTrial(w workload, cfg config, p *plan) error {
	d, s, _, err := r.lustreDrain(w, cfg, p, nil, p.drainEvents)
	if err != nil {
		return err
	}
	d.con.Close()
	<-s.done
	d.close()
	r.checkDrain(s, p, d.parts)
	return nil
}

// lustreDrain prefills the catch-up backlog on a fresh cluster, deploys
// the workload's monitor over it and times the drain.
func (r *runStats) lustreDrain(w workload, cfg config, p *plan, tr *tracer, capacity int64) (*deployment, *sink, func(int) error, error) {
	g := p.g
	// Every record the generator causes carries opBase + its op index as
	// its time, which identifies the op each delivered event came from.
	lc := lustre.NewCluster(lustreConfig())
	var cur atomic.Int64
	opBase := time.Now().UnixNano()
	lc.SetClock(func() time.Time { return time.Unix(0, opBase+cur.Load()) })
	cl := lc.Client()
	apply := func(i int) error {
		cur.Store(int64(i))
		return g.applyLustre(cl, g.ops[i])
	}
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
		tr.start(len(g.ops))
	}
	s := newSink(epoch, capacity)
	s.opBase = opBase
	for i := 0; i < p.drainEnd; i++ {
		if tr != nil {
			tr.genStart[i] = s.now()
		}
		if apply(i) != nil {
			r.opErrs++
		}
		if tr != nil {
			tr.genEnd[i] = s.now()
		}
	}

	runtime.GC()
	t := time.Now()
	d, err := deploy(w, cfg, lc, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if tr != nil {
		r.readyAt = time.Since(t).Seconds()
	}
	// The catch-up window opens when Deploy returns, as the collectors
	// start on the backlog, and closes when its last event reaches the
	// consumer; attaching the consumer (and its store replay) is part of
	// catching up.
	t0 := int64(d.deployed.Sub(epoch)) + 1
	go s.consume(d.con.C())
	if !s.waitFor(p.drainEvents, time.Now().Add(catchUpTimeout)) {
		// Events that never arrive fail the gate; the trial is not timed.
		fmt.Fprintf(os.Stderr, "perfbench: %s: catch-up incomplete: %d/%d events delivered\n", w.name, s.n.Load(), p.drainEvents)
		return d, s, apply, nil
	}
	cpu := cpuTime() - d.cpu0
	sec := float64(s.last.Load()-t0) / 1e9
	r.drains = append(r.drains, drainRun{events: p.drainEvents, sec: sec, cpu: cpu})
	return d, s, apply, nil
}

// tmpBase is where runs create their scratch directories, inside the
// working directory.
func (c config) tmpBase() string {
	if c.tmpDir != "" {
		return c.tmpDir
	}
	return filepath.Join(".bench_build", "tmp")
}
