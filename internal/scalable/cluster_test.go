package scalable

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
)

// A clustered deploy whose journal directory does not exist fails fast
// with the store-open error naming the path, not with a coverage timeout.
func TestClusterDeployMissingJournalDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "journal")
	start := time.Now()
	m, err := Deploy(testCluster(1), DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    2,
		StorePartitions: 2,
		ClusterStore:    eventstore.Options{JournalPath: missing},
	})
	if err == nil {
		m.Close()
		t.Fatal("deploy with a missing journal directory succeeded")
	}
	if !strings.Contains(err.Error(), missing) {
		t.Errorf("error does not name the journal path %s: %v", missing, err)
	}
	if took := time.Since(start); took > clusterReadyTimeout/2 {
		t.Errorf("error took %v, want well under the %v coverage timeout", took, clusterReadyTimeout)
	}
}

// TestClusterDeployEndToEnd drives the full clustered deployment: two
// aggregator nodes, routed collectors, and a consumer subscribed to both
// nodes, over a live workload.
func TestClusterDeployEndToEnd(t *testing.T) {
	cl := testCluster(1)
	m, err := Deploy(cl, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    2,
		StorePartitions: 4,
		ClusterStore:    eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Nodes) != 2 || m.Aggregator != nil {
		t.Fatalf("cluster deploy shape: %d nodes, aggregator %v", len(m.Nodes), m.Aggregator)
	}
	if m.ClusterParts() != 4 {
		t.Fatalf("ClusterParts = %d, want 4", m.ClusterParts())
	}
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	client := cl.Client()
	if err := client.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	const files = 50
	want := map[string]bool{}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/dir/file%03d.dat", i)
		if err := client.Create(path); err != nil {
			t.Fatal(err)
		}
		want[path] = true
	}
	got := drainConsumer(con, 500*time.Millisecond)
	seen := map[string]bool{}
	for _, e := range got {
		if e.Seq == 0 {
			t.Fatalf("event %q missing seq", e.Path)
		}
		if seen[e.Path] {
			t.Fatalf("duplicate event %q", e.Path)
		}
		seen[e.Path] = true
	}
	for path := range want {
		if !seen[path] {
			t.Fatalf("missing event %q (got %d of %d)", path, len(got), files)
		}
	}
	st := m.Stats()
	if len(st.Nodes) != 2 {
		t.Fatalf("stats nodes = %d", len(st.Nodes))
	}
	var stored uint64
	for _, ns := range st.Nodes {
		stored += ns.Stored
	}
	if stored < files {
		t.Fatalf("cluster stored %d events, want >= %d", stored, files)
	}
	// Both nodes own partitions in steady state.
	for i, ns := range st.Nodes {
		if ns.PartitionsOwned != 2 {
			t.Fatalf("node %d owns %d partitions, want 2", i, ns.PartitionsOwned)
		}
	}
}

// rawRepublish publishes one pre-marshaled batch into an aggregation tier
// over TCP and captures the republished wire payload, also over TCP — TCP
// on both hops forces real encoding on the republish side. makeTier
// builds the tier subscribed to the given intake endpoint and returns its
// publisher endpoint plus a cleanup.
func rawRepublish(t *testing.T, intakeTopic string, payload []byte, makeTier func(intakeEndpoint string) (string, func())) []byte {
	t.Helper()
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	tierEndpoint, cleanup := makeTier(pub.Addr())
	defer cleanup()
	sub := msgq.NewSub()
	sub.Subscribe(AggTopic)
	if err := sub.Connect(tierEndpoint); err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pub.PublishCtx(context.Background(), intakeTopic, payload) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("intake never subscribed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, ok := sub.Recv(ctx)
	if !ok {
		t.Fatal("no republished batch")
	}
	if out.Topic != AggTopic {
		t.Fatalf("republish topic %q, want %q", out.Topic, AggTopic)
	}
	return out.Payload
}

// TestClusterSingleNodeWireIdentity proves the ISSUE's compatibility bar:
// a one-node cluster republishes byte-for-byte what the classic
// single-process aggregator would for the same input batch — same topic,
// same sequence lane, same wire image.
func TestClusterSingleNodeWireIdentity(t *testing.T) {
	batch := []events.Event{
		{Path: "/a/one.txt", Op: events.OpCreate, Root: "/mnt/lustre", Source: "mdt0"},
		{Path: "/a/two.txt", Op: events.OpModify, Root: "/mnt/lustre", Source: "mdt0"},
		{Path: "/b/three.txt", Op: events.OpDelete, Root: "/mnt/lustre", Source: "mdt0"},
	}
	payload, err := events.MarshalBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	classic := rawRepublish(t, TopicPrefix+"mdt0", payload, func(intake string) (string, func()) {
		agg, err := NewAggregator(AggregatorOptions{
			CollectorEndpoints: []string{intake},
			Endpoint:           "tcp://127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg.Endpoint(), agg.Close
	})

	clustered := rawRepublish(t, msgq.NodeTopic("n0", 0), payload, func(intake string) (string, func()) {
		node, err := cluster.NewNode(cluster.NodeOptions{
			ID:                 "n0",
			Endpoint:           "tcp://127.0.0.1:0",
			CollectorEndpoints: []string{intake},
			Parts:              1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		return node.Endpoint(), node.Close
	})

	if !bytes.Equal(classic, clustered) {
		t.Fatalf("single-node cluster wire differs from classic aggregator:\nclassic   %d bytes %x\nclustered %d bytes %x",
			len(classic), classic, len(clustered), clustered)
	}
}

// TestClusterConsumerHandoffRecovery is the ISSUE's exactness bar at the
// consumer level: a consumer's cursor vector taken before a node dies
// resumes exactly across the handoff — the fan-out recovery replays every
// post-cursor event once, including events stored by the dead node and
// recovered by the survivor, with no loss and no duplicates.
func TestClusterConsumerHandoffRecovery(t *testing.T) {
	const parts = 4
	journal := filepath.Join(t.TempDir(), "journal")
	newNode := func(id string, join ...string) (*cluster.Node, *RecoveryServer) {
		n, err := cluster.NewNode(cluster.NodeOptions{
			ID:                id,
			Endpoint:          fmt.Sprintf("inproc://handoff-%p-%s", t, id),
			Join:              join,
			Parts:             parts,
			Store:             eventstore.Options{JournalPath: journal, Sync: eventstore.SyncAlways},
			HeartbeatInterval: 10 * time.Millisecond,
			FailAfter:         60 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecoveryServer(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.SetRecovery(rec.Addr())
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		return n, rec
	}
	n0, rec0 := newNode("n0")
	defer n0.Close()
	defer rec0.Close()
	n1, rec1 := newNode("n1", n0.CtlEndpoint())
	defer n1.Close()
	for _, n := range []*cluster.Node{n0, n1} {
		if err := n.Membership().WaitMembers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitOwned := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(n0.OwnedPartitions())+len(n1.OwnedPartitions()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("owned: n0=%v n1=%v", n0.OwnedPartitions(), n1.OwnedPartitions())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitOwned(parts)

	// Routed publisher standing in for the collector tier.
	col := msgq.NewPub(msgq.WithBlockOnFull())
	if err := col.Bind(fmt.Sprintf("inproc://handoff-%p-col", t)); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for _, n := range []*cluster.Node{n0, n1} {
		if err := n.ConnectCollectors(col.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	alive := []*cluster.Node{n0, n1}
	publish := func(phase string, count int) map[string]bool {
		t.Helper()
		paths := map[string]bool{}
		for i := 0; i < count; i++ {
			path := fmt.Sprintf("/%s/f%03d", phase, i)
			p := eventstore.PartitionForPath(path, parts)
			payload, err := events.MarshalBatch([]events.Event{{Path: path, Op: events.OpCreate, Root: "/mnt", Source: "test"}})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				owner := alive[0].Membership().Assignment().OwnerOf(p)
				if owner != "" {
					if n := col.PublishCtx(context.Background(), msgq.NodeTopic(owner, p), payload); n > 0 {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("could not deliver %s", path)
				}
				time.Sleep(2 * time.Millisecond)
			}
			paths[path] = true
		}
		return paths
	}

	fanout := NewRecoveryFanout(parts, rec0.Addr(), rec1.Addr())
	con1, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoints: []string{n0.Endpoint(), n1.Endpoint()},
		Filter:              iface.Filter{Recursive: true},
		Recover:             fanout,
		StorePartitions:     parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	phase1 := publish("one", 30)
	got1 := drainConsumer(con1, 400*time.Millisecond)
	if len(got1) != len(phase1) {
		t.Fatalf("consumer 1 delivered %d events, want %d", len(got1), len(phase1))
	}
	cursors := con1.LastSeqVector()
	con1.Close()

	// Kill n1 and its recovery server mid-stream; n0 must take over by
	// journal replay before the next phase lands.
	n1.Kill()
	rec1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(n0.OwnedPartitions()) != parts {
		if time.Now().After(deadline) {
			t.Fatalf("survivor owns %v", n0.OwnedPartitions())
		}
		time.Sleep(2 * time.Millisecond)
	}
	phase2 := publish("two", 30)
	deadline = time.Now().Add(5 * time.Second)
	for n0.Stats().Stored+n1.Stats().Stored < 60 {
		if time.Now().After(deadline) {
			t.Fatalf("stored %d+%d", n0.Stats().Stored, n1.Stats().Stored)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Resume from the pre-handoff cursor vector. The fan-out still lists
	// the dead node's recovery address: its dial failure must be survived,
	// with coverage proven by the survivor alone.
	con2, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoints: []string{n0.Endpoint()},
		Filter:              iface.Filter{Recursive: true},
		Recover:             fanout,
		SinceVector:         cursors,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	got2 := drainConsumer(con2, 400*time.Millisecond)
	seen := map[string]bool{}
	for _, e := range got2 {
		if seen[e.Path] {
			t.Fatalf("duplicate event %q after resume", e.Path)
		}
		seen[e.Path] = true
		if phase1[e.Path] {
			t.Fatalf("pre-cursor event %q replayed", e.Path)
		}
		if !phase2[e.Path] {
			t.Fatalf("unexpected event %q", e.Path)
		}
	}
	if len(seen) != len(phase2) {
		t.Fatalf("resumed consumer saw %d events, want %d", len(seen), len(phase2))
	}
}

func TestClusterIDPrefixDefaults(t *testing.T) {
	if p, err := clusterIDPrefix(DeployOptions{}); err != nil || p != "n" {
		t.Fatalf("founding prefix = %q, %v; want \"n\"", p, err)
	}
	p, err := clusterIDPrefix(DeployOptions{ClusterJoin: []string{"tcp://seed:7401"}})
	if err != nil {
		t.Fatal(err)
	}
	if p == "n" {
		t.Fatal("joining deployment must not default to the founding prefix")
	}
	if !cluster.ValidID(p + "0") {
		t.Fatalf("derived prefix %q does not form valid member IDs", p)
	}
	if p2, err := clusterIDPrefix(DeployOptions{ClusterNodePrefix: "agg-"}); err != nil || p2 != "agg-" {
		t.Fatalf("explicit prefix = %q, %v", p2, err)
	}
	if _, err := clusterIDPrefix(DeployOptions{ClusterNodePrefix: "bad.prefix"}); err == nil {
		t.Fatal("prefix containing '.' must be rejected")
	}
}

// TestClusterNodePrefixAndMembers deploys with an explicit ID prefix and
// checks the members listing exposes every node's reachable addresses.
func TestClusterNodePrefixAndMembers(t *testing.T) {
	cl := testCluster(1)
	m, err := Deploy(cl, DeployOptions{
		CacheSize:         100,
		PollInterval:      time.Millisecond,
		ClusterNodes:      2,
		StorePartitions:   4,
		ClusterNodePrefix: "agg-",
		ClusterStore:      eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, n := range m.Nodes {
		if want := fmt.Sprintf("agg-%d", i); n.ID() != want {
			t.Fatalf("node %d ID = %q, want %q", i, n.ID(), want)
		}
	}
	members := m.ClusterMembers()
	if len(members) != 2 {
		t.Fatalf("ClusterMembers = %d entries, want 2", len(members))
	}
	for _, mi := range members {
		if mi.Endpoint == "" || mi.Ctl == "" || mi.Recovery == "" {
			t.Fatalf("member %q missing addresses: %+v", mi.ID, mi)
		}
	}
}

// TestClusterJoinIDConflictRejected joins a second deployment that
// reuses the founding deployment's ID prefix: the joiner must detect the
// live ID collision and refuse to run instead of splitting the colliding
// member's routed topics and sequence lanes.
func TestClusterJoinIDConflictRejected(t *testing.T) {
	cl := testCluster(1)
	dir := t.TempDir()
	a, err := Deploy(cl, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    1,
		StorePartitions: 2,
		ClusterStore:    eventstore.Options{JournalPath: filepath.Join(dir, "journal-a")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	_, err = Deploy(cl, DeployOptions{
		CacheSize:         100,
		PollInterval:      time.Millisecond,
		ClusterNodes:      1,
		StorePartitions:   2,
		ClusterJoin:       []string{a.Nodes[0].CtlEndpoint()},
		ClusterNodePrefix: "n", // collides with the founder's n0
		ClusterStore:      eventstore.Options{JournalPath: filepath.Join(dir, "journal-b")},
	})
	if err == nil {
		t.Fatal("joining with a colliding member ID must fail")
	}
	if !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// snapTestSource is a recovery source whose live coverage view disagrees
// with its snapshot: the server must trust the snapshot for both the
// coverage frame and the events, or a partition released between the two
// reads would be claimed as covered with its history silently missing.
type snapTestSource struct {
	evs []events.Event // all on partition 1 of 2
}

func (s snapTestSource) Since(seq uint64, max int) ([]events.Event, error) { return nil, nil }
func (s snapTestSource) OwnedPartitions() []int                            { return []int{0, 1} }
func (s snapTestSource) RecoverySnapshot() RecoverySourceSnapshot {
	return snapTestSnapshot{evs: s.evs}
}

type snapTestSnapshot struct {
	evs []events.Event
}

func (f snapTestSnapshot) OwnedPartitions() []int { return []int{1} }
func (f snapTestSnapshot) Since(seq uint64, max int) ([]events.Event, error) {
	return f.SinceVector([]uint64{seq, seq}, max)
}
func (f snapTestSnapshot) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	var out []events.Event
	for _, e := range f.evs {
		if e.Seq > cursors[e.Seq%2] {
			out = append(out, e)
		}
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out, nil
}

func TestRecoveryServerSnapshotCoverage(t *testing.T) {
	src := snapTestSource{evs: []events.Event{
		{Seq: 1, Path: "/a", Op: events.OpCreate},
		{Seq: 3, Path: "/b", Op: events.OpCreate},
	}}
	srv, err := NewRecoveryServer(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewRecoveryClient(srv.Addr())
	evs, owned, err := cli.SinceVectorOwned([]uint64{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(owned) != 1 || owned[0] != 1 {
		t.Fatalf("coverage frame %v, want [1] (the snapshot's view, not the live source's)", owned)
	}
	if len(evs) != 2 {
		t.Fatalf("recovered %d events, want 2", len(evs))
	}
}
