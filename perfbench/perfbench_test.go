package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinyConfig runs a workload at a small fraction of its size.
func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 10, trace: trace, scale: 0.02, traceDir: t.TempDir(), tmpDir: t.TempDir()}
}

// TestTinyRuns runs every workload untraced at a tiny scale: it must
// finish with every event delivered exactly once and every end-to-end
// metric present and positive.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, tinyConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range endToEndUnits {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want unit %s and a positive value", name, m, ok, unit)
				}
			}
			if len(res.Metrics) != len(endToEndUnits) {
				t.Errorf("got %d metrics, want %d", len(res.Metrics), len(endToEndUnits))
			}
		})
	}
}

// TestTracedRunsSeparateLayers runs every workload traced at a tiny
// scale and checks that each layer reports work exactly on the workloads
// whose path includes it: the local layers only on local-churn, the
// scalable layers only on the Lustre shapes, the journal, codec and TCP
// hop only on the cluster, the in-process hop and classic aggregator only
// on lustre-agg1.
func TestTracedRunsSeparateLayers(t *testing.T) {
	local := []string{"dsi.captured", "dsi.pump_ns_per_ev", "resolution.ns_per_ev", "resolution.ev_per_batch",
		"iface.delivered", "iface.deliver_ns_per_ev"}
	scalable := []string{"resolve.ns_per_rec_miss", "resolve.ns_per_rec_hit", "collector.records_read",
		"consumer.received", "recovery.since_ns_per_ev", "cache.hit_ratio"}
	agg1 := []string{"msgq.inproc_hop_ns_per_batch", "aggregator.store_ns_per_ev"}
	cluster := []string{"msgq.tcp_hop_ns_per_batch", "events.encode_ns_per_ev", "events.decode_ns_per_ev",
		"eventstore.journal_bytes_per_ev", "cluster.ready_s", "recovery.fanout_since_ns_per_ev"}
	both := []string{"eventstore.append_ns_per_ev", "eventstore.since_ns_per_ev", "gen.ns_per_ev", "replay_eps"}
	want := map[string][2][]string{ // workload -> {working, bypassed}
		"local-churn":     {cat(local, both), cat(scalable, agg1, cluster)},
		"lustre-agg1":     {cat(scalable, agg1, both), cat(local, cluster)},
		"lustre-cluster2": {cat(scalable, cluster, both), cat(local, agg1)},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, tinyConfig(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got := res.Metrics["fail_frac"].Value; got != 0 {
				t.Errorf("fail_frac = %v", got)
			}
			units := perLayerMetricUnits()
			if len(res.Metrics) != len(units) {
				t.Errorf("got %d metrics, want %d", len(res.Metrics), len(units))
			}
			for name, unit := range units {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("metric %s = %+v (present %v), want unit %s", name, m, ok, unit)
				}
			}
			for _, name := range want[w.name][0] {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v on %s, want work", name, v, w.name)
				}
			}
			for _, name := range want[w.name][1] {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v on %s, want zero work", name, v, w.name)
				}
			}
		})
	}
}

func cat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// TestSameSeedSameOpLog pins the generator: a seed fixes the op log.
func TestSameSeedSameOpLog(t *testing.T) {
	for _, w := range workloads {
		cfg := config{seed: 3, seconds: 10, scale: 0.05}
		a, b := makePlan(w, cfg), makePlan(w, cfg)
		if !reflect.DeepEqual(a.g.ops, b.g.ops) || a.drainEnd != b.drainEnd || !reflect.DeepEqual(a.segs, b.segs) {
			t.Errorf("%s: same seed gave different op logs", w.name)
		}
		cfg.seed = 4
		if c := makePlan(w, cfg); reflect.DeepEqual(a.g.ops, c.g.ops) {
			t.Errorf("%s: different seeds gave the same op log", w.name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON checks every metric the benchmark can
// emit against the metric-name rule and BENCHMARK.json, both ways.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, emitted map[string]string, listed map[string]string) {
		for name, unit := range emitted {
			if !valid.MatchString(name) {
				t.Errorf("%s metric %q breaks the name rule", kind, name)
			}
			if got, ok := listed[name]; !ok || got != unit {
				t.Errorf("%s metric %q (%s) is listed as %q (present %v)", kind, name, unit, got, ok)
			}
		}
		for name := range listed {
			if _, ok := emitted[name]; !ok {
				t.Errorf("%s metric %q is listed but never emitted", kind, name)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %q: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end-to-end", endToEndUnits, e2e)
	pl := map[string]string{}
	for _, m := range bj.PerLayer {
		pl[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %q: better %q", m.Name, m.Better)
		}
	}
	check("per-layer", perLayerMetricUnits(), pl)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
}

// syntheticStream is a correct delivery of the plan's reference events in
// reference order, seqs 1..n.
func syntheticStream(c *checker, byOp bool) []rec {
	var out []rec
	for i, x := range c.exp {
		opi := int64(-1)
		if byOp {
			opi = int64(x.opi)
		}
		out = append(out, rec{path: c.g.path(x.ent, x.ver), seq: uint64(i + 1), opi: opi, at: int64(i + 1), op: x.op})
	}
	return out
}

// TestGateCatchesFaults injects a drop, a duplicate, a reorder and a
// skipped seq into an otherwise correct delivery: each must raise the
// failure count.
func TestGateCatchesFaults(t *testing.T) {
	for _, w := range workloads[:2] {
		p := makePlan(w, config{seed: 5, seconds: 10, scale: 0.01})
		byOp := !w.local
		gate := func(stream []rec) int {
			c := newChecker(p.g, 1, byOp, p.end)
			for i := range stream {
				c.observe(&stream[i])
			}
			return c.failures()
		}
		good := syntheticStream(newChecker(p.g, 1, byOp, p.end), byOp)
		if f := gate(good); f != 0 {
			t.Fatalf("%s: clean stream failed %d checks", w.name, f)
		}
		mid := len(good) / 2
		dropped := append(append([]rec(nil), good[:mid]...), good[mid+1:]...)
		duplicated := append(append(append([]rec(nil), good[:mid+1]...), good[mid]), good[mid+1:]...)
		reordered := append([]rec(nil), good...)
		reordered[mid], reordered[mid+1] = reordered[mid+1], reordered[mid]
		// Every event delivered, but the store skipped a seq.
		skipped := append([]rec(nil), good...)
		for i := mid; i < len(skipped); i++ {
			skipped[i].seq++
		}
		for name, s := range map[string][]rec{"drop": dropped, "duplicate": duplicated, "reorder": reordered, "seq skip": skipped} {
			if f := gate(s); f == 0 {
				t.Errorf("%s: injected %s went unnoticed", w.name, name)
			}
		}
		// A replay that lost an event or carries an extra one fails too.
		c := newChecker(p.g, 1, byOp, p.end)
		for i := range good {
			c.observe(&good[i])
		}
		short := seqDigest(func(yield func(uint64)) {
			for _, r := range good[1:] {
				yield(r.seq)
			}
		})
		c.checkReplay(short)
		if c.failures() == 0 {
			t.Errorf("%s: short replay went unnoticed", w.name)
		}
	}
}
