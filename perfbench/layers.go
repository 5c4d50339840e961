package main

import (
	"runtime"
	"strconv"

	"fsmonitor"
	"fsmonitor/internal/scalable"
)

// Per-layer metric units.
const (
	uCount = "count"
	uRatio = "ratio"
	uMS    = "ms"
	uNSEv  = "ns/ev"
	uBEv   = "B/ev"
)

// rung names one ladder measurement; it reports ns, allocations and
// allocated bytes per unit as <base>{ns,allocs,alloc_bytes}_per_<unit>.
type rung struct{ base, unit string }

func (r rung) names() [3]string {
	return [3]string{r.base + "ns_per_" + r.unit, r.base + "allocs_per_" + r.unit, r.base + "alloc_bytes_per_" + r.unit}
}

func (r rung) units() [3]string {
	u := r.unit
	if u == "rec_hit" || u == "rec_miss" {
		u = "rec"
	}
	return [3]string{"ns/" + u, "allocs/" + u, "B/" + u}
}

// The ladder's rungs, by layer. Each runs only on the workloads whose
// path includes its layer; elsewhere it reports zero work.
var (
	rungPump       = rung{"dsi.pump_", "ev"}
	rungResolution = rung{"resolution.", "ev"}
	rungAppend     = rung{"eventstore.append_", "ev"}
	rungJournal    = rung{"eventstore.journal_append_", "ev"}
	rungSince      = rung{"eventstore.since_", "ev"}
	rungIface      = rung{"iface.deliver_", "ev"}
	rungHit        = rung{"resolve.", "rec_hit"}
	rungMiss       = rung{"resolve.", "rec_miss"}
	rungEncode     = rung{"events.encode_", "ev"}
	rungDecode     = rung{"events.decode_", "ev"}
	rungInproc     = rung{"msgq.inproc_hop_", "batch"}
	rungTCP        = rung{"msgq.tcp_hop_", "batch"}
	rungFanout     = rung{"recovery.fanout_since_", "ev"}
	rungRecovery   = rung{"recovery.since_", "ev"}
	rungs          = []rung{rungPump, rungResolution, rungAppend, rungJournal, rungSince, rungIface,
		rungHit, rungMiss, rungEncode, rungDecode, rungInproc, rungTCP, rungFanout, rungRecovery}
)

// perLayerUnits lists every per-layer metric that is not a ladder rung.
var perLayerUnits = map[string]string{
	"dsi.captured":                    uCount,
	"dsi.dropped":                     uCount,
	"dsi.overflow":                    uCount,
	"resolution.ev_per_batch":         "ev/batch",
	"resolution.dedup_frac":           uRatio,
	"resolution.queue_peak":           uCount,
	"resolution.blocked_ms":           uMS,
	"eventstore.journal_ns_per_ev":    uNSEv,
	"eventstore.journal_bytes_per_ev": uBEv,
	"eventstore.evicted":              uCount,
	"iface.delivered":                 uCount,
	"resolve.fid2path_per_rec":        "calls/rec",
	"resolve.fid2path_useful_frac":    uRatio,
	"resolve.stale_frac":              uRatio,
	"resolve.fallback_frac":           uRatio,
	"cache.hit_ratio":                 uRatio,
	"cache.coalesced":                 uCount,
	"collector.records_read":          uCount,
	"collector.lag_peak":              uCount,
	"collector.mdt_skew":              uRatio,
	"collector.paced_util":            uRatio,
	"collector.blocked_ms":            uMS,
	"events.wire_bytes_per_ev":        uBEv,
	"aggregator.store_ns_per_ev":      uNSEv,
	"aggregator.queue_peak":           uCount,
	"aggregator.blocked_ms":           uMS,
	"aggregator.paced_util":           uRatio,
	"cluster.ready_s":                 "s",
	"cluster.partition_skew":          uRatio,
	"cluster.strays_forwarded":        uCount,
	"consumer.received":               uCount,
	"consumer.recovered":              uCount,
	"consumer.blocked_ms":             uMS,
	"gen.ns_per_ev":                   uNSEv,
	"gen.late_p99_ms":                 uMS,
	"handoff_ns_per_ev":               uNSEv,
	"trace.overhead_frac":             uRatio,
	"harness_mb":                      "MB",
	"fail_frac":                       uRatio,
	"replay_eps":                      "ev/s",
	"lat_low_p99_ms":                  uMS,
	"lat_high_p99_ms":                 uMS,
	"lat_low_p50_phase_ms":            uMS,
	"lat_high_p50_phase_ms":           uMS,
	"lat_low_p99_phase_ms":            uMS,
	"lat_high_p99_phase_ms":           uMS,
	"lat_low_samples":                 uCount,
	"lat_high_samples":                uCount,
}

// perLayerMetricUnits returns every per-layer metric name with its unit.
func perLayerMetricUnits() map[string]string {
	m := map[string]string{}
	for k, v := range perLayerUnits {
		m[k] = v
	}
	for _, r := range rungs {
		n, u := r.names(), r.units()
		for i := range n {
			m[n[i]] = u[i]
		}
	}
	return m
}

// endToEndUnits lists the untraced metrics.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"drain_eps":       "ev/s",
	"lat_low_p50_ms":  "ms",
	"lat_high_p50_ms": "ms",
	"cpu_us_per_ev":   "us/ev",
	"rss_peak_mb":     "MB",
}

// sampleLocal samples the local monitor's layer stats during the run.
func (t *tracer) sampleLocal(m *fsmonitor.Monitor) {
	t.sampler(func() map[string]float64 {
		st := m.Stats()
		return map[string]float64{
			"resolution.queue_peak": float64(st.Resolution.QueuePeak),
			"resolution.processed":  float64(st.Resolution.Processed),
			"resolution.blocked_ms": blocked(st.Resolution.Stages),
			"iface.delivered":       float64(st.Interface.Delivered),
			"dsi.dropped":           float64(st.DSIDropped),
		}
	})
}

// localLayers derives the local path's traced per-layer counters.
func (t *tracer) localLayers(r *runStats, st fsmonitor.Stats) {
	l := t.layers
	l["dsi.captured"] = float64(len(t.capture))
	l["dsi.dropped"] = float64(st.DSIDropped)
	l["dsi.overflow"] = float64(r.chk.overflow)
	rs := st.Resolution
	if rs.Batches > 0 {
		l["resolution.ev_per_batch"] = float64(rs.Processed) / float64(rs.Batches)
	}
	if rs.Processed > 0 {
		l["resolution.dedup_frac"] = float64(rs.Deduped) / float64(rs.Processed)
	}
	l["resolution.queue_peak"] = float64(rs.QueuePeak)
	l["resolution.blocked_ms"] = blocked(rs.Stages)
	l["iface.delivered"] = float64(st.Interface.Delivered)
	l["eventstore.evicted"] = float64(st.Interface.Store.Evicted)
}

// memDelta measures allocations across f, which must run with the rest
// of the program idle.
func memDelta(f func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// sampleLustre samples the deployment's component stats during the run.
func (t *tracer) sampleLustre(m *scalable.Monitor) {
	t.sampler(func() map[string]float64 {
		st := m.Stats()
		var lag, read float64
		for _, c := range st.Collectors {
			lag += float64(c.ChangelogLag)
			read += float64(c.RecordsRead)
		}
		s := map[string]float64{
			"collector.lag":          lag,
			"collector.records_read": read,
		}
		if m.Aggregator != nil {
			s["aggregator.queue_peak"] = queuePeak(st.Aggregator.Pipeline)
			s["aggregator.stored"] = float64(st.Aggregator.Stored)
		}
		for i, n := range st.Nodes {
			s["cluster.node"+strconv.Itoa(i)+".stored"] = float64(n.Stored)
		}
		return s
	})
}

// drainStats reads the paced components' utilization over the drain
// phase (accounting was reset when the drain began).
func (t *tracer) drainStats(d *deployment) {
	st := d.m.Stats()
	util := 0.0
	for _, c := range st.Collectors {
		if c.Utilization > util {
			util = c.Utilization
		}
	}
	t.layers["collector.paced_util"] = util
	if d.m.Aggregator != nil {
		t.layers["aggregator.paced_util"] = st.Aggregator.Utilization
	}
}

// lustreLayers derives the scalable path's traced per-layer counters.
func (t *tracer) lustreLayers(r *runStats, d *deployment) {
	l := t.layers
	st := d.m.Stats()
	var read, calls, stale, errs, hits, misses, coalesced, maxRead float64
	var blockedMS float64
	for _, c := range st.Collectors {
		rr := float64(c.RecordsRead)
		read += rr
		if rr > maxRead {
			maxRead = rr
		}
		calls += float64(c.Fid2PathCalls)
		stale += float64(c.Fid2PathStale)
		errs += float64(c.Fid2PathErrors)
		hits += float64(c.Cache.Hits)
		misses += float64(c.Cache.Misses)
		coalesced += float64(c.Cache.Coalesced)
		blockedMS += blocked(c.Pipeline)
	}
	l["collector.records_read"] = read
	l["collector.lag_peak"] = r.peaks["collector.lag"]
	if read > 0 {
		l["collector.mdt_skew"] = maxRead / (read / float64(len(st.Collectors)))
		l["resolve.fid2path_per_rec"] = calls / read
	}
	l["collector.blocked_ms"] = blockedMS
	if calls > 0 {
		l["resolve.fid2path_useful_frac"] = (calls - stale - errs) / calls
		l["resolve.stale_frac"] = stale / calls
	}
	if hits+misses > 0 {
		l["cache.hit_ratio"] = hits / (hits + misses)
	}
	l["cache.coalesced"] = coalesced
	if a := d.m.Aggregator; a != nil {
		as := st.Aggregator
		l["aggregator.queue_peak"] = queuePeak(as.Pipeline)
		l["aggregator.blocked_ms"] = blocked(as.Pipeline)
		l["eventstore.evicted"] = float64(d.engine.Stats().Evicted)
		var ns, n float64
		t.mu.Lock()
		for _, sp := range t.appends {
			ns += float64(sp.end - sp.start)
			n += float64(sp.n)
		}
		t.mu.Unlock()
		if n > 0 {
			l["aggregator.store_ns_per_ev"] = ns / n
		}
	}
	if len(st.Nodes) > 0 {
		var maxStored, sum, strays float64
		for _, n := range st.Nodes {
			s := float64(n.Stored)
			sum += s
			if s > maxStored {
				maxStored = s
			}
			strays += float64(n.StraysForwarded)
		}
		if sum > 0 {
			l["cluster.partition_skew"] = maxStored / (sum / float64(len(st.Nodes)))
		}
		l["cluster.strays_forwarded"] = strays
		l["cluster.ready_s"] = r.readyAt
	}
	cs := d.con.Stats()
	l["consumer.received"] = float64(cs.Received)
	l["consumer.recovered"] = float64(cs.Recovered)
	l["consumer.blocked_ms"] = blocked(cs.Pipeline)
	var ns, n float64
	for _, sp := range t.replay {
		ns += float64(sp.end - sp.start)
		n += float64(sp.n)
	}
	if n > 0 {
		names := rungRecovery.names()
		l[names[0]] = ns / n
		l[names[1]] = float64(t.replayAlloc[0]) / n
		l[names[2]] = float64(t.replayAlloc[1]) / n
	}
}

// perLayer renders the traced run's per-layer metrics: the ladder's
// rungs, the traced counters, and the figures derived from both. Layers
// the workload bypasses report zero work.
func (r *runStats) perLayer(base *runStats, lad *ladderResult, t *tracer) result {
	vals := map[string]float64{}
	for k := range perLayerMetricUnits() {
		vals[k] = 0
	}
	for k, v := range t.layers {
		vals[k] = v
	}
	for k, v := range lad.m {
		vals[k] = v
	}
	c := r.chk
	vals["fail_frac"] = float64(r.failures()) / float64(r.attempted())
	// The replay rate and the tail latencies come from the untraced run;
	// the traced run adds a hop per event on the local path.
	vals["replay_eps"] = base.replayEPS()
	vals["lat_low_p99_ms"] = windowQuantile(base.winLow, 0.99)
	vals["lat_high_p99_ms"] = windowQuantile(base.winHigh, 0.99)
	vals["lat_low_p50_phase_ms"] = quantile(base.latLow, 0.50)
	vals["lat_high_p50_phase_ms"] = quantile(base.latHigh, 0.50)
	vals["lat_low_p99_phase_ms"] = quantile(base.latLow, 0.99)
	vals["lat_high_p99_phase_ms"] = quantile(base.latHigh, 0.99)
	vals["harness_mb"] = base.harnessMB
	vals["lat_low_samples"] = float64(len(base.latLow))
	vals["lat_high_samples"] = float64(len(base.latHigh))
	vals["gen.late_p99_ms"] = quantile(r.genLate, 0.99)
	var genNS int64
	for i := 0; i < r.plan.drainEnd; i++ {
		genNS += t.genEnd[i] - t.genStart[i]
	}
	vals["gen.ns_per_ev"] = float64(genNS) / float64(r.plan.drainEvents)
	if !r.w.local && c.delivered > 0 {
		vals["resolve.fallback_frac"] = float64(c.fallback) / float64(c.delivered)
	}
	// Tracing covers only the main trial, so the overhead compares the
	// main trial's catch-up in the traced and the untraced run.
	if b, t := base.mainDrain, r.mainDrain; b.events > 0 && t.events > 0 {
		vals["trace.overhead_frac"] = 1 - t.eps()/b.eps()
	}

	// Handoff: the untraced run's CPU per event minus the sum of the
	// ladder's per-event costs along the workload's path.
	var path float64
	if r.w.local {
		// iface.deliver includes its store append; the generator runs
		// inside the measured closed loop.
		path = vals["gen.ns_per_ev"] + vals["dsi.pump_ns_per_ev"] + vals["resolution.ns_per_ev"] + vals["iface.deliver_ns_per_ev"]
	} else {
		path = vals["resolve.ns_per_rec_miss"]*lad.recPerEv + vals["eventstore.append_ns_per_ev"] +
			(vals["msgq.inproc_hop_ns_per_batch"]+vals["msgq.tcp_hop_ns_per_batch"])/lad.evPerBlock
		if r.w.nodes > 0 {
			path += vals["eventstore.journal_ns_per_ev"] + vals["events.encode_ns_per_ev"] + vals["events.decode_ns_per_ev"]
		}
	}
	vals["handoff_ns_per_ev"] = base.cpuPerEv()*1e3 - path

	units := perLayerMetricUnits()
	m := map[string]metric{}
	for k, v := range vals {
		m[k] = metric{v, units[k]}
	}
	f := r.failures() + base.failures()
	return result{Correct: f == 0, Attempted: r.attempted() + base.attempted(), Failed: f, Metrics: m}
}
