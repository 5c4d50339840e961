package scalable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/metrics"
	"fsmonitor/internal/telemetry"
)

// DeployOptions configures a full scalable-monitor deployment: a collector
// per storage source (every MDS of a Lustre cluster, or every mounted
// DSI), the aggregation tier, and optionally the TCP recovery service.
// The Lustre-only fields (MountPoint through ResolveWorkers) are ignored
// by DeployMounts.
type DeployOptions struct {
	// MountPoint is the client mount path events are reported under.
	MountPoint string
	// CacheSize is each collector's fid2path cache capacity (0 = no
	// cache).
	CacheSize int
	// CacheShards is each collector's fid2path cache shard count
	// (0 = pipeline.DefaultCacheShards).
	CacheShards int
	// NegativeTTL is how long collectors negative-cache stale-FID
	// resolution failures; <= 0 disables (the default). Use
	// pipeline.DefaultNegativeTTL when enabling.
	NegativeTTL time.Duration
	// ResolveWorkers is each collector's resolve-stage parallelism
	// (0 = pipeline.DefaultResolveWorkers, the paper's serial
	// collector).
	ResolveWorkers int
	// Transport selects endpoints: "inproc" (default) or "tcp"
	// (127.0.0.1 with kernel-assigned ports).
	Transport string
	// Engine is the aggregator's reliable store engine (nil = an
	// in-memory engine with StorePartitions partitions).
	Engine eventstore.Engine
	// StorePartitions shards the aggregation tier: the reliable store,
	// the aggregator's store lanes, and the republish topics all split
	// into this many partitions keyed by MDT index (default
	// pipeline.DefaultStorePartitions = 1, the paper's single serial
	// store — Tables IV/VII re-runs stay calibrated). Ignored when
	// Engine supplies its own partition count.
	StorePartitions int
	// ClusterNodes deploys the aggregation tier as a cluster of this many
	// aggregator nodes (internal/cluster) instead of the single
	// Aggregator: collectors route each batch slice to the partition
	// owner's inbox topic, every node stores and republishes the
	// partitions it owns, and consumers recover through a fan-out across
	// all nodes' recovery servers. 0 (the default) keeps the classic
	// single-aggregator deployment; Engine is ignored when clustered (use
	// ClusterStore). StorePartitions is raised to at least
	// ClusterNodes so every node owns work.
	ClusterNodes int
	// ClusterJoin lists ctl inboxes of an existing cluster's members:
	// the deployed nodes join that cluster instead of founding their own.
	ClusterJoin []string
	// ClusterListen is the first deployed node's publisher bind (e.g.
	// "tcp://0.0.0.0:7400") so nodes on other machines can join it; empty
	// uses the Transport default. Its host also becomes the bind host for
	// every other cluster socket this process opens (remaining node
	// publishers, ctl inboxes, recovery servers), all on ephemeral ports —
	// a listen/join deployment is reachable end to end, not just node 0.
	ClusterListen string
	// ClusterNodePrefix prefixes the deployed nodes' member IDs
	// ("<prefix>0".."<prefix>N-1"). A founding deployment defaults to "n";
	// a joining deployment (ClusterJoin set) defaults to a host+pid-derived
	// prefix so two processes joining the same cluster can never collide on
	// member IDs. Must not contain '.' (IDs ride in routed topic names).
	ClusterNodePrefix string
	// ClusterAdvertise is the externally reachable host substituted into
	// every advertised cluster address (publishers, ctl inboxes, recovery
	// servers). Required when ClusterListen binds a wildcard host
	// ("0.0.0.0") that peers on other machines cannot dial back.
	ClusterAdvertise string
	// ClusterStore is the nodes' base store configuration: JournalPath is
	// the engine-wide base every partition derives its "<path>.p<i>"
	// segment from (the handoff medium). The zero value is in-memory.
	ClusterStore eventstore.Options
	// ClusterTelemetryAddrs, when non-empty on a clustered deployment,
	// serves the telemetry HTTP endpoint (including the /cluster/*
	// observability plane) on one server per address — typically one per
	// node (":0" picks free ports). Every server is shut down gracefully
	// by Monitor.Close. Requires Telemetry.
	ClusterTelemetryAddrs []string
	// BatchSize overrides the collectors' batch bound
	// (CollectorOptions.BatchSize).
	BatchSize int
	// PollInterval overrides the collectors' idle poll.
	PollInterval time.Duration
	// Context aborts every deployed service when canceled (Close remains
	// the graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors every deployed component into the
	// unified registry (fsmon.collector.mdt<N>.* or fsmon.mount.<name>.*,
	// fsmon.aggregator.*, fsmon.store.p<i>.*, fsmon.process.*) and enables
	// event latency tracing. Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs from every
	// deployed service; nil discards.
	Logger *slog.Logger
}

// Monitor is a running scalable-monitor deployment. Exactly one of
// Aggregator (classic) and Nodes (clustered) is populated.
type Monitor struct {
	Collectors []*Collector
	Aggregator *Aggregator
	// Nodes are the in-process members of the clustered aggregation tier
	// (DeployOptions.ClusterNodes > 0).
	Nodes      []*cluster.Node
	cluster    *lustre.Cluster // the monitored cluster (Deploy only)
	opts       DeployOptions
	router     *cluster.Membership // collector-side observer view (clustered only)
	recoveries []*RecoveryServer   // one per in-process node (clustered only)
	parts      int                 // cluster partition count
	telSrvs    []*telemetry.Server // per-node telemetry HTTP servers (clustered only)
}

// collectorCtor starts one collector of a deployment from the options
// every collector shares: endpoint, router, batching, context, telemetry
// and logger.
type collectorCtor func(shared CollectorOptions) (*Collector, error)

// Deploy starts a collector on every MDS of the cluster and an aggregator
// subscribed to all of them — the Fig. 4 topology ("an aggregator service
// on MGS that polls all MDSs concurrently and pushes all events in a
// single queue to the clients").
func Deploy(lc *lustre.Cluster, opts DeployOptions) (*Monitor, error) {
	if opts.MountPoint == "" {
		opts.MountPoint = "/mnt/lustre"
	}
	ctors := make([]collectorCtor, lc.NumMDS())
	for i := range ctors {
		ctors[i] = func(o CollectorOptions) (*Collector, error) {
			o.Cluster = lc
			o.MDT = i
			o.MountPoint = opts.MountPoint
			o.CacheSize = opts.CacheSize
			o.CacheShards = opts.CacheShards
			o.NegativeTTL = opts.NegativeTTL
			o.ResolveWorkers = opts.ResolveWorkers
			return NewCollector(o)
		}
	}
	m, err := deployTiers(opts, ctors)
	if err != nil {
		return nil, err
	}
	m.cluster = lc
	return m, nil
}

// MountSource names one mounted backend for DeployMounts. The DSI is
// typically opened through the dsi registry; the deployment owns it.
type MountSource struct {
	// Prefix is the unified-namespace mount point; its telemetry name is
	// mount.PointName(Prefix).
	Prefix string
	// DSI is the opened backend to mount.
	DSI dsi.DSI
}

// DeployMounts starts a collector per mounted backend feeding one
// aggregation tier — the Fig. 4 topology with heterogeneous storage behind
// the collectors: every mount's stream arrives at consumers through the
// same store-and-republish tier, correctly prefixed into one namespace
// rooted at "/". The tier is built exactly as Deploy builds it, so
// ClusterNodes routes mounts through a cluster too.
func DeployMounts(mounts []MountSource, opts DeployOptions) (*Monitor, error) {
	if len(mounts) == 0 {
		return nil, errors.New("scalable: DeployMounts needs at least one mount")
	}
	ctors := make([]collectorCtor, len(mounts))
	seen := make(map[string]bool, len(mounts))
	for i, ms := range mounts {
		cp, err := mount.CleanPrefix(ms.Prefix)
		if err != nil {
			return nil, err
		}
		if seen[cp] {
			return nil, fmt.Errorf("%w: %s", mount.ErrMounted, cp)
		}
		seen[cp] = true
		if ms.DSI == nil {
			return nil, fmt.Errorf("scalable: mount %s has no DSI", cp)
		}
		ctors[i] = func(o CollectorOptions) (*Collector, error) { return newDSICollector(cp, ms.DSI, o) }
	}
	return deployTiers(opts, ctors)
}

// deployTiers builds a deployment's tiers around the given collectors: with
// cluster options set, the nodes and routing observer first (the
// collectors route to them), then the collectors, then the nodes'
// subscriptions and telemetry servers; otherwise the collectors, then one
// aggregator subscribed to all of them.
func deployTiers(opts DeployOptions, ctors []collectorCtor) (*Monitor, error) {
	m := &Monitor{opts: opts}
	clustered := opts.ClusterNodes > 0 || len(opts.ClusterJoin) > 0 || opts.ClusterListen != ""
	var router Router
	if clustered {
		if err := m.startCluster(); err != nil {
			m.Close()
			return nil, err
		}
		router = m.router
	}
	endpoints := make([]string, 0, len(ctors))
	for i, mk := range ctors {
		ep := fmt.Sprintf("inproc://collector-%p-%d", m, i)
		if opts.Transport == "tcp" {
			ep = "tcp://127.0.0.1:0"
		}
		col, err := mk(CollectorOptions{
			Endpoint:     ep,
			Router:       router,
			BatchSize:    opts.BatchSize,
			PollInterval: opts.PollInterval,
			Context:      opts.Context,
			Telemetry:    opts.Telemetry,
			Logger:       opts.Logger,
		})
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Collectors = append(m.Collectors, col)
		endpoints = append(endpoints, col.Endpoint())
	}
	if clustered {
		if err := m.connectCluster(endpoints); err != nil {
			m.Close()
			return nil, err
		}
	} else {
		aggEp := fmt.Sprintf("inproc://aggregator-%p", m)
		if opts.Transport == "tcp" {
			aggEp = "tcp://127.0.0.1:0"
		}
		agg, err := NewAggregator(AggregatorOptions{
			CollectorEndpoints: endpoints,
			Endpoint:           aggEp,
			Engine:             opts.Engine,
			StorePartitions:    opts.StorePartitions,
			Context:            opts.Context,
			Telemetry:          opts.Telemetry,
			Logger:             opts.Logger,
		})
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Aggregator = agg
	}
	// Process-wide resource gauges ride the same registry so one snapshot
	// answers both "how fast" and "at what cost" (Tables IV/VII).
	metrics.Register(opts.Telemetry)
	return m, nil
}

// NewConsumer attaches a consumer to this deployment's aggregation tier
// with fault recovery. The consumer adopts the tier's partition count
// automatically; against a cluster it subscribes to every node and
// recovers through the fan-out.
func (m *Monitor) NewConsumer(filter iface.Filter, sinceSeq uint64) (*Consumer, error) {
	if m.router != nil {
		return m.newClusterConsumer(filter, sinceSeq, nil)
	}
	return NewConsumer(ConsumerOptions{
		AggregatorEndpoint: m.Aggregator.Endpoint(),
		Filter:             filter,
		Recover:            m.Aggregator,
		SinceSeq:           sinceSeq,
		StorePartitions:    m.Aggregator.Partitions(),
		Context:            m.opts.Context,
		Telemetry:          m.opts.Telemetry,
		Logger:             m.opts.Logger,
	})
}

// NewConsumerVector attaches a consumer resuming from per-partition
// cursors (a previous consumer's LastSeqVector) — the precise restart path
// for partitioned and clustered deployments.
func (m *Monitor) NewConsumerVector(filter iface.Filter, sinceVector []uint64) (*Consumer, error) {
	if m.router != nil {
		return m.newClusterConsumer(filter, 0, sinceVector)
	}
	return NewConsumer(ConsumerOptions{
		AggregatorEndpoint: m.Aggregator.Endpoint(),
		Filter:             filter,
		Recover:            m.Aggregator,
		SinceVector:        sinceVector,
		Context:            m.opts.Context,
		Telemetry:          m.opts.Telemetry,
		Logger:             m.opts.Logger,
	})
}

// ResetAccounting restarts every component's utilization window.
func (m *Monitor) ResetAccounting() {
	for _, c := range m.Collectors {
		c.ResetAccounting()
	}
	if m.Aggregator != nil {
		m.Aggregator.ResetAccounting()
	}
}

// Stats gathers per-component snapshots.
type Stats struct {
	Collectors []CollectorStats
	Aggregator AggregatorStats
	// Nodes holds per-node snapshots of the clustered aggregation tier
	// (empty for classic deployments).
	Nodes []cluster.NodeStats
}

// Stats returns a deployment-wide snapshot.
func (m *Monitor) Stats() Stats {
	st := Stats{}
	for _, c := range m.Collectors {
		st.Collectors = append(st.Collectors, c.Stats())
	}
	if m.Aggregator != nil {
		st.Aggregator = m.Aggregator.Stats()
	}
	for _, n := range m.Nodes {
		st.Nodes = append(st.Nodes, n.Stats())
	}
	return st
}

// TelemetryServers returns the per-node telemetry HTTP servers a
// clustered deployment started for ClusterTelemetryAddrs (empty
// otherwise). Their lifecycle belongs to the monitor; Close shuts down
// every one of them.
func (m *Monitor) TelemetryServers() []*telemetry.Server { return m.telSrvs }

// Close stops every component upstream-first: collectors, then the
// routing observer, the recovery servers, the aggregation tier, and
// finally every per-node telemetry HTTP server — all of them, not just
// the first, each through the graceful Server.Close drain.
func (m *Monitor) Close() {
	for _, c := range m.Collectors {
		c.Close()
	}
	if m.router != nil {
		m.router.Close()
	}
	for _, r := range m.recoveries {
		r.Close()
	}
	for _, n := range m.Nodes {
		n.Close()
	}
	if m.Aggregator != nil {
		m.Aggregator.Close()
	}
	for _, s := range m.telSrvs {
		s.Close()
	}
}
