GO ?= go

.PHONY: all build vet staticcheck test race fuzz-smoke bench bench-smoke bench-aggregator bench-json bench-telemetry bench-trace bench-mount bench-cluster bench-cluster-json flame trace-sample audit-smoke incident-smoke check

all: check

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is available (CI installs it; dev
# machines without it skip with a note rather than failing the gate).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

race:
	$(GO) test -race -shuffle=on ./...

# fuzz-smoke runs each fuzz target for a few seconds past its checked-in
# seed corpus: the Block wire codec against the legacy codec, journal
# replay (never panics; keeps a whole-record prefix or names the corrupt
# offset), the msgq frame decoder (bounded allocation, exact re-encoding)
# and the recovery request decoders (exact-length payloads only). A
# failing input lands in the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBlockRoundTrip$$' -fuzztime 5s ./internal/events/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/eventstore/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/msgq/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoveryDecode$$' -fuzztime 5s ./internal/scalable/

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-smoke runs one iteration of the fast micro-benchmarks (resolver
# scaling, cache contention, pipeline stages, aggregator partitions) as a
# CI regression canary; the slow paper-table benches stay out of it. The
# local path gets a short fixed run of its own: the end-to-end monitor
# (MonitorThroughputDirect: capture → resolution → store) and the
# interface layer's Ingest (store append + delivery to one recursive
# subscriber, 256-event batches).
bench-smoke:
	$(GO) test -run '^$$' -bench 'ResolveStage|GetOrLoad|AggregatorThroughput' -benchtime 1x -benchmem \
		./internal/resolve/ ./internal/cache/ ./internal/bench/
	$(GO) test -run '^$$' -bench 'MonitorThroughputDirect$$' -benchtime 50000x -benchmem ./internal/bench/
	$(GO) test -run '^$$' -bench '^BenchmarkIngest$$' -benchtime 2000x -benchmem ./internal/iface/

# bench-aggregator measures aggregation-tier store throughput at 1/2/4
# partitions, paced (AggregatorThroughput, 1µs accounted cost per event)
# and raw (AggregatorThroughputRaw, pacing dialed to 1ns so the metric is
# the pipeline's own mechanical ceiling).
bench-aggregator:
	$(GO) test -run '^$$' -bench 'AggregatorThroughput(Raw)?/' -benchmem ./internal/bench/

# bench-json re-runs the aggregator bench with machine-readable output:
# bench-aggregator.json carries one JSON object per line (gotestsum-style
# `go test -json` stream), the artifact CI uploads so throughput can be
# charted across commits without scraping logs.
bench-json:
	$(GO) test -json -run '^$$' -bench 'AggregatorThroughput(Raw)?/' -benchmem ./internal/bench/ \
		> bench-aggregator.json

# flame captures a CPU profile of the single-partition aggregator bench and
# renders it: always a pprof -top table (flame.txt), and an SVG flamegraph
# (flame.svg) when graphviz's dot is installed. The profile and binary stay
# next to the outputs for interactive `go tool pprof` sessions.
flame:
	$(GO) test -run '^$$' -bench '^BenchmarkAggregatorThroughput$$/partitions=1' \
		-benchtime 1000000x -cpuprofile cpu.prof -o bench.test ./internal/bench/
	$(GO) tool pprof -top -nodecount 30 bench.test cpu.prof | tee flame.txt
	@if command -v dot >/dev/null 2>&1; then \
		$(GO) tool pprof -svg -output flame.svg bench.test cpu.prof && echo "wrote flame.svg"; \
	else \
		echo "flame: graphviz (dot) not installed, skipping flame.svg (flame.txt written)"; \
	fi

# bench-telemetry runs the aggregator bench with and without a live
# registry attached; the events/s delta is the observability overhead
# (acceptance: telemetry enabled costs < 5%).
bench-telemetry:
	$(GO) test -run '^$$' -bench 'AggregatorThroughput(Telemetry)?/' -benchmem ./internal/bench/

# bench-trace runs the telemetry-enabled aggregator bench with and
# without 1-in-1024 per-event span tracing armed; the events/s delta is
# the tracing overhead (acceptance: < 5% at ~1-in-1000 sampling).
bench-trace:
	$(GO) test -run '^$$' -bench 'AggregatorThroughputT(elemetry|raced)/' -benchmem ./internal/bench/

# bench-mount measures the mount-composed namespace's routing overhead
# against direct single-DSI attach at two levels: the raw pump pair
# (Direct/MountAttach: channel forward vs rewrite+route+forward — the
# absolute per-event cost, ~200ns) and the end-to-end monitor pair
# (MonitorThroughputDirect/Mounted: full capture→resolve→store path).
# Acceptance: < 5% end-to-end events/s delta on multi-core hosts, where
# the mount pump pipelines with the resolution stages; on a single-core
# host the pump serializes and the delta degrades toward the raw pair's
# ratio, so judge the gate by the multi-core number.
bench-mount:
	$(GO) test -run '^$$' -bench 'DirectAttach|MountAttach$$|MountAttachNested|Route$$' -benchtime 1s -benchmem \
		./internal/dsi/mount/
	$(GO) test -run '^$$' -bench 'MonitorThroughput' -benchtime 100000x -benchmem ./internal/bench/

# bench-cluster measures aggregate store throughput of the clustered
# aggregation tier at 1/2/4 nodes over 4 partitions, each node pacing the
# accounted per-event aggregation cost on its own ingest throttle
# (acceptance: >= 1.6x aggregate events/s from 1 node to 2). The
# Telemetry variant re-runs with the observability plane armed — gauges,
# conservation audit, federated snapshots — and the events/s delta is
# the enabled-plane overhead (acceptance: < 5%).
bench-cluster:
	$(GO) test -run '^$$' -bench 'ClusterThroughput/' -benchmem ./internal/bench/

# bench-cluster-json re-runs the cluster bench with machine-readable
# output (one `go test -json` object per line) into bench-cluster.json,
# the artifact CI uploads so node-scaling can be charted across commits.
bench-cluster-json:
	$(GO) test -json -run '^$$' -bench 'ClusterThroughput/' -benchmem ./internal/bench/ \
		> bench-cluster.json

# audit-smoke is the delivery-conservation gate: deploy a 2-node
# cluster, stream a batch of events through capture → store → deliver,
# and require the audit to balance to zero with no sequence violations
# while /cluster/metrics and /cluster/metrics/prom parse. The merged
# cluster metrics document lands in cluster-metrics.json — the artifact
# CI uploads so a conservation break is diagnosable from the run.
audit-smoke:
	FSMON_AUDIT_SMOKE_OUT=$(CURDIR)/cluster-metrics.json \
		$(GO) test -count=1 -run 'TestAuditSmoke' ./internal/scalable/

# incident-smoke is the flight-recorder gate: deploy a 2-node cluster
# with the recorder armed, inject a pipeline stall under live load, and
# require a diagnostic bundle within one watchdog window that names the
# tripping rule and holds boosted-rate traces, sampler history, and the
# log ring. The bundle lands in incident-bundle.json — the artifact CI
# uploads so a tripped gate is diagnosable from the run.
incident-smoke:
	FSMON_INCIDENT_SMOKE_OUT=$(CURDIR)/incident-bundle.json \
		$(GO) test -count=1 -run 'TestIncidentSmoke' ./internal/scalable/

# trace-sample drives the simulated-Lustre demo workload with every
# event traced end to end and writes the completed span chains to
# traces.json — the CI sample artifact, loadable in chrome://tracing.
trace-sample:
	$(GO) run ./cmd/fsmon -lustre iota -demo -partitions 2 -trace-sample 1 -trace-out traces.json >/dev/null

# check is the pre-PR gate: everything must build, vet (and staticcheck,
# where installed) clean, pass the full suite under the race detector,
# survive a short fuzz of the wire decoders and journal replay, hold the
# tracing-overhead and mount-routing benches, keep the cluster
# delivery-conservation audit balanced, and prove the incident flight
# recorder captures an injected stall.
check: build vet staticcheck race fuzz-smoke bench-trace bench-mount audit-smoke incident-smoke
