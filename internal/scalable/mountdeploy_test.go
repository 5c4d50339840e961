// Mixed-backend deployment tests live in an external test package so they
// can compose the Lustre DSI (which itself wraps package scalable) with
// local and object-store backends behind one aggregation tier.
package scalable_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/lustredsi"
	"fsmonitor/internal/dsi/objectdsi"
	"fsmonitor/internal/dsi/simdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/scalable"
	"fsmonitor/internal/telemetry"
	"fsmonitor/internal/vfs"
)

// TestMixedThreeMountDeploy is the ISSUE's acceptance scenario: a Lustre
// simulator, a local simulated watcher, and an object store mounted into
// one namespace, delivering one unified, correctly-prefixed stream through
// collector → aggregator → consumer with per-mount telemetry.
func TestMixedThreeMountDeploy(t *testing.T) {
	cluster := lustre.NewCluster(lustre.Config{Name: "mix", NumMDS: 2, NumOSS: 2, OSTsPerOSS: 2, OSTSizeGB: 1})
	lustreDSI, err := lustredsi.New(dsi.Config{Root: "/mnt/lustre", Backend: cluster})
	if err != nil {
		t.Fatal(err)
	}

	fs := vfs.New()
	if err := fs.MkdirAll("/src"); err != nil {
		t.Fatal(err)
	}
	localDSI, err := simdsi.NewInotify(dsi.Config{Root: "/", Recursive: true, Backend: fs})
	if err != nil {
		lustreDSI.Close()
		t.Fatal(err)
	}

	bucket := objectdsi.NewBucket()
	objDSI, err := objectdsi.New(dsi.Config{Root: "/", Backend: &objectdsi.Backend{
		Bucket: bucket, ListInterval: 10 * time.Millisecond,
	}})
	if err != nil {
		lustreDSI.Close()
		localDSI.Close()
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	mon, err := scalable.DeployMounts([]scalable.MountSource{
		{Prefix: "/lustre", DSI: lustreDSI},
		{Prefix: "/local", DSI: localDSI},
		{Prefix: "/obj", DSI: objDSI},
	}, scalable.DeployOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	// Drive all three backends.
	cl := cluster.Client()
	if err := cl.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/data/results.h5"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/src/main.go"); err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("models/weights.bin", 4096); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{
		"/lustre/data/results.h5": false,
		"/local/src/main.go":      false,
		"/obj/models/weights.bin": false,
	}
	bySource := map[string]int{}
	deadline := time.After(10 * time.Second)
	for remaining := len(want); remaining > 0; {
		select {
		case batch, ok := <-con.C():
			if !ok {
				t.Fatal("consumer closed early")
			}
			for _, e := range batch {
				if e.Root != "/" {
					t.Errorf("event root = %q (want unified /): %v", e.Root, e)
				}
				if seen, tracked := want[e.Path]; tracked && !seen && e.Op.Has(events.OpCreate) {
					want[e.Path] = true
					remaining--
				}
				switch {
				case strings.HasPrefix(e.Path, "/lustre/"), strings.HasPrefix(e.Path, "/local/"), strings.HasPrefix(e.Path, "/obj/"):
					bySource[strings.SplitN(e.Path[1:], "/", 2)[0]]++
				default:
					t.Errorf("event outside every mount prefix: %v", e)
				}
				if e.Seq == 0 {
					t.Errorf("unsequenced event (store bypassed): %v", e)
				}
			}
		case <-deadline:
			t.Fatalf("missing events: %v (got per-mount %v)", want, bySource)
		}
	}

	// Per-mount capture counters mirror under fsmon.mount.<name>.*.
	snap := reg.Snapshot()
	for _, name := range []string{"lustre", "local", "obj"} {
		key := "fsmon.mount." + name + ".captured"
		v, ok := snap[key].(float64)
		if !ok || v < 1 {
			t.Errorf("%s = %v", key, snap[key])
		}
	}

	st := mon.Stats()
	if len(st.Collectors) != 3 {
		t.Fatalf("collectors = %d", len(st.Collectors))
	}
	var totalPublished uint64
	for _, cs := range st.Collectors {
		if cs.RecordsRead == 0 || cs.EventsPublished == 0 {
			t.Errorf("mount %s stats = %+v", cs.Source, cs)
		}
		totalPublished += cs.EventsPublished
	}
	if st.Aggregator.Received != totalPublished {
		t.Errorf("aggregator received %d, collectors published %d", st.Aggregator.Received, totalPublished)
	}
}

// TestMountDeployPartitionedRecovery checks a partitioned mixed deploy
// still recovers missed events through the cursor-vector path.
func TestMountDeployPartitionedRecovery(t *testing.T) {
	fs := vfs.New()
	localDSI, err := simdsi.NewInotify(dsi.Config{Root: "/", Recursive: true, Backend: fs})
	if err != nil {
		t.Fatal(err)
	}
	bucket := objectdsi.NewBucket()
	objDSI, err := objectdsi.New(dsi.Config{Root: "/", Backend: &objectdsi.Backend{
		Bucket: bucket, ListInterval: 10 * time.Millisecond,
	}})
	if err != nil {
		localDSI.Close()
		t.Fatal(err)
	}
	mon, err := scalable.DeployMounts([]scalable.MountSource{
		{Prefix: "/local", DSI: localDSI},
		{Prefix: "/obj", DSI: objDSI},
	}, scalable.DeployOptions{StorePartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := fs.Create("/f" + string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := bucket.Put("k"+string(rune('0'+i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	got := drainPaths(t, con, 10)
	vec := con.Stats().LastSeqVector
	con.Close()

	// More activity while nobody listens...
	if _, err := fs.Create("/late"); err != nil {
		t.Fatal(err)
	}
	if _, err := bucket.Put("klate", 1); err != nil {
		t.Fatal(err)
	}
	waitStored(t, mon, 12)

	// ...then a vector-resumed consumer recovers exactly the missed tail.
	con2, err := scalable.NewConsumer(scalable.ConsumerOptions{
		AggregatorEndpoint: mon.Aggregator.Endpoint(),
		Filter:             iface.Filter{Recursive: true},
		Recover:            mon.Aggregator,
		SinceVector:        vec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	late := drainPaths(t, con2, 2)
	for _, p := range []string{"/local/late", "/obj/klate"} {
		if !late[p] {
			t.Errorf("vector recovery missed %s (got %v, first batch %v)", p, late, got)
		}
	}
}

func drainPaths(t *testing.T, con *scalable.Consumer, n int) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for count := 0; count < n; {
		select {
		case batch, ok := <-con.C():
			if !ok {
				t.Fatalf("consumer closed with %d/%d", count, n)
			}
			for _, e := range batch {
				if !got[e.Path] {
					got[e.Path] = true
					count++
				}
			}
		case <-deadline:
			t.Fatalf("drained %d/%d: %v", count, n, got)
		}
	}
	return got
}

func waitStored(t *testing.T, mon *scalable.Monitor, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mon.Aggregator.Stats().Stored < n {
		if time.Now().After(deadline) {
			t.Fatalf("stored %d < %d", mon.Aggregator.Stats().Stored, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// simAndObjectMounts opens a simulated local watcher and an object store
// for a two-mount deployment at /local and /obj.
func simAndObjectMounts(t *testing.T) (*vfs.FS, *objectdsi.Bucket, []scalable.MountSource) {
	t.Helper()
	fs := vfs.New()
	localDSI, err := simdsi.NewInotify(dsi.Config{Root: "/", Recursive: true, Backend: fs})
	if err != nil {
		t.Fatal(err)
	}
	bucket := objectdsi.NewBucket()
	objDSI, err := objectdsi.New(dsi.Config{Root: "/", Backend: &objectdsi.Backend{
		Bucket: bucket, ListInterval: 10 * time.Millisecond,
	}})
	if err != nil {
		localDSI.Close()
		t.Fatal(err)
	}
	return fs, bucket, []scalable.MountSource{
		{Prefix: "/local", DSI: localDSI},
		{Prefix: "/obj", DSI: objDSI},
	}
}

// putFiles creates n local files and n objects, returning the unified
// paths the deployment must deliver.
func putFiles(t *testing.T, fs *vfs.FS, bucket *objectdsi.Bucket, n int) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%02d", i)
		if _, err := fs.Create("/" + name); err != nil {
			t.Fatal(err)
		}
		if _, err := bucket.Put(name, 1); err != nil {
			t.Fatal(err)
		}
		want["/local/"+name] = false
		want["/obj/"+name] = false
	}
	return want
}

// TestMountDeployAuditAndTraces: a classic mount deployment with
// telemetry runs the same capture boundary as the Lustre collectors, so
// the conservation audit balances to zero across captured → published →
// stored → republished → delivered, and sampled batches complete the full
// span chain.
func TestMountDeployAuditAndTraces(t *testing.T) {
	fs, bucket, mounts := simAndObjectMounts(t)
	reg := telemetry.NewRegistry()
	reg.EnableTracing(1, 0)
	mon, err := scalable.DeployMounts(mounts, scalable.DeployOptions{StorePartitions: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	want := putFiles(t, fs, bucket, 10)
	delivered := 0
	deadline := time.After(10 * time.Second)
	for remaining := len(want); remaining > 0; {
		select {
		case batch := <-con.C():
			delivered += len(batch)
			for _, e := range batch {
				if seen, ok := want[e.Path]; ok && !seen {
					want[e.Path] = true
					remaining--
				}
			}
		case <-deadline:
			t.Fatalf("missing events: %v", want)
		}
	}

	aud := reg.Audit()
	if aud == nil {
		t.Fatal("mount deploy did not enable the conservation audit")
	}
	end := time.Now().Add(5 * time.Second)
	for aud.Balance(1) != 0 {
		if time.Now().After(end) {
			t.Fatalf("audit never balanced: %+v", aud.Snapshot())
		}
		select {
		case batch := <-con.C():
			delivered += len(batch)
		case <-time.After(5 * time.Millisecond):
		}
	}
	s := aud.Snapshot()
	if s.Captured < uint64(len(want)) || s.Delivered != s.Captured {
		t.Errorf("audit captured %d delivered %d, want >= %d and equal", s.Captured, s.Delivered, len(want))
	}
	if s.Violations != 0 {
		t.Errorf("clean run recorded %d violations (gaps=%d dups=%d)", s.Violations, s.Gaps, s.Dups)
	}
	var published uint64
	for _, cs := range mon.Stats().Collectors {
		published += cs.EventsPublished
	}
	if published != s.Captured {
		t.Errorf("collectors published %d, audit captured %d", published, s.Captured)
	}

	traces := reg.Traces().Snapshot()
	if len(traces) == 0 {
		t.Fatal("no mount traces completed")
	}
	for _, tr := range traces {
		if len(tr.Spans) != events.NumTiers {
			t.Errorf("trace %#x has %d spans, want the %d-tier chain", tr.ID, len(tr.Spans), events.NumTiers)
		}
	}
}

// TestMountDeployCluster: with ClusterNodes set, mount collectors route
// every batch slice to its partition owner exactly as the Lustre
// collectors do — each event arrives once, sequenced in the lane of the
// partition its path hashes to.
func TestMountDeployCluster(t *testing.T) {
	fs, bucket, mounts := simAndObjectMounts(t)
	mon, err := scalable.DeployMounts(mounts, scalable.DeployOptions{ClusterNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if len(mon.Nodes) != 2 || mon.Aggregator != nil {
		t.Fatalf("cluster deploy shape: %d nodes, aggregator %v", len(mon.Nodes), mon.Aggregator)
	}
	parts := mon.ClusterParts()
	if parts != 2 {
		t.Fatalf("ClusterParts = %d, want 2", parts)
	}
	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	want := putFiles(t, fs, bucket, 10)
	seqs := map[uint64]string{}
	check := func(batch []events.Event) {
		for _, e := range batch {
			if e.Seq == 0 {
				t.Errorf("unsequenced event: %v", e)
			}
			if prev, dup := seqs[e.Seq]; dup {
				t.Errorf("seq %d delivered twice (%s, %s)", e.Seq, prev, e.Path)
			}
			seqs[e.Seq] = e.Path
			if lane, p := int(e.Seq%uint64(parts)), eventstore.PartitionForPath(e.Path, parts); lane != p {
				t.Errorf("%s has seq %d in lane %d, want partition %d's lane", e.Path, e.Seq, lane, p)
			}
			if _, ok := want[e.Path]; ok {
				want[e.Path] = true
			}
		}
	}
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		select {
		case batch := <-con.C():
			check(batch)
			done = true
			for _, seen := range want {
				done = done && seen
			}
		case <-deadline:
			t.Fatalf("missing events: %v", want)
		}
	}
	// Let any duplicate surface, then require the stream to match the
	// collectors' published count exactly.
	quiet := time.After(200 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case batch := <-con.C():
			check(batch)
		case <-quiet:
			waiting = false
		}
	}
	var published uint64
	for _, cs := range mon.Stats().Collectors {
		published += cs.EventsPublished
	}
	if uint64(len(seqs)) != published {
		t.Errorf("delivered %d distinct events, collectors published %d", len(seqs), published)
	}
}
