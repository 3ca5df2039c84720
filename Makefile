GO ?= go

.PHONY: build test vet race lint verify bench chaos obs-smoke fuzz net-smoke net-chaos recovery-torture restart-smoke bench-restart bench-ycsb trace-smoke snapshot-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# lint runs the custom concurrency-invariant analyzers (atomicdisc,
# lockorder, metaencap, noalloc, nondet, syncerr, unlockpath — see
# DESIGN.md §9) plus the stock `go vet` passes, which thedb-lint
# invokes itself. Every run prints the //thedb:nolint tally and fails
# on suppressions with no justification text.
lint:
	$(GO) run ./cmd/thedb-lint ./...

race:
	$(GO) test -race ./...

# chaos is the protocol-robustness smoke: the seeded fault-injection
# torture (with the serializability oracle), the stuck-epoch watchdog,
# and the degradation-ladder tests, under -race with -short trimming
# the torture to a handful of seeds (see DESIGN.md §10). Drop -short
# for the full 64-seed sweep.
chaos:
	$(GO) test -race ./internal/fault/ ./internal/oracle/ ./internal/obs/
	$(GO) test -race -short -run 'Chaos|Watchdog|Ladder|Backoff|Epoch|Event|Contended' ./internal/core/

# obs-smoke is the end-to-end exposition check: build the bench CLI,
# start it with the observability endpoint, scrape /metrics until it
# answers, and require the always-on thedb_up gauge (DESIGN.md §11.4).
OBS_ADDR ?= 127.0.0.1:19095
obs-smoke:
	$(GO) build -o /tmp/thedb-bench ./cmd/thedb-bench
	/tmp/thedb-bench -obs.addr $(OBS_ADDR) -quick -workers 2 -duration 3s fig10 & \
	pid=$$!; \
	ok=; \
	for i in $$(seq 1 20); do \
		if curl -sf http://$(OBS_ADDR)/metrics > /tmp/thedb-metrics.txt; then ok=1; break; fi; \
		sleep 0.3; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	test -n "$$ok" || { echo "obs-smoke: /metrics never answered"; exit 1; }; \
	grep -q '^thedb_up 1' /tmp/thedb-metrics.txt || { echo "obs-smoke: thedb_up gauge missing"; cat /tmp/thedb-metrics.txt; exit 1; }; \
	echo "obs-smoke: /metrics serving, thedb_up present"

# fuzz gives the wire-protocol frame decoder a short adversarial
# workout beyond the checked-in seed corpus (DESIGN.md §12.1). The
# decoder must never panic on hostile bytes; CI runs this in the lint
# job.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire/

# net-smoke is the end-to-end serving-plane check (DESIGN.md §12):
# build the server and bench binaries, start a YCSB server on loopback
# with the obs endpoint, wait until it accepts calls, run a short
# pipelined bench over the wire, require the server connection counter
# in /metrics, then SIGTERM and require a clean graceful drain.
NET_ADDR ?= 127.0.0.1:17707
NET_OBS_ADDR ?= 127.0.0.1:19096
net-smoke:
	$(GO) build -o /tmp/thedb-server ./cmd/thedb-server
	$(GO) build -o /tmp/thedb-bench ./cmd/thedb-bench
	/tmp/thedb-server -addr $(NET_ADDR) -workers 4 -workload ycsb \
		-ycsb.records 20000 -obs.addr $(NET_OBS_ADDR) & \
	pid=$$!; \
	ok=; \
	for i in $$(seq 1 40); do \
		if /tmp/thedb-bench -addr $(NET_ADDR) -duration 100ms \
			-net.clients 1 -net.conns 1 -net.records 20000 >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.25; \
	done; \
	test -n "$$ok" || { echo "net-smoke: server never accepted calls"; kill $$pid 2>/dev/null; exit 1; }; \
	/tmp/thedb-bench -addr $(NET_ADDR) -duration 2s -net.mix a -net.records 20000 \
		|| { echo "net-smoke: bench failed"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://$(NET_OBS_ADDR)/metrics > /tmp/thedb-net-metrics.txt \
		|| { echo "net-smoke: /metrics never answered"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '^thedb_server_connections_total' /tmp/thedb-net-metrics.txt \
		|| { echo "net-smoke: server counters missing from /metrics"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "net-smoke: server did not drain cleanly"; exit 1; }; \
	echo "net-smoke: pipelined bench over loopback ok, counters exported, clean drain"

# trace-smoke is the end-to-end tracing check (DESIGN.md §15): pin the
# zero-allocation trace-record path, then boot a YCSB server with
# tracing, the contention profiler and histogram exemplars on, drive a
# pipelined bench over loopback with -net.obs so it pulls /debug/trace
# and prints the per-phase latency breakdown, and require retained
# traces on /debug/trace, a serving /debug/contention, and an exemplar
# trace ID on the latency histogram. The 1µs slow threshold makes
# retention deterministic: every committed transaction counts as slow.
TRACE_ADDR ?= 127.0.0.1:17727
TRACE_OBS_ADDR ?= 127.0.0.1:19097
trace-smoke:
	$(GO) test -run 'TestTraceRecordZeroAllocs' ./internal/core/
	$(GO) build -o /tmp/thedb-server ./cmd/thedb-server
	$(GO) build -o /tmp/thedb-bench ./cmd/thedb-bench
	/tmp/thedb-server -addr $(TRACE_ADDR) -workers 4 -workload ycsb \
		-ycsb.records 20000 -obs.addr $(TRACE_OBS_ADDR) \
		-trace.buffer 512 -trace.slow 1us -trace.exemplars -contention.k 16 & \
	pid=$$!; \
	ok=; \
	for i in $$(seq 1 40); do \
		if /tmp/thedb-bench -addr $(TRACE_ADDR) -duration 100ms \
			-net.clients 1 -net.conns 1 -net.records 20000 >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.25; \
	done; \
	test -n "$$ok" || { echo "trace-smoke: server never accepted calls"; kill $$pid 2>/dev/null; exit 1; }; \
	/tmp/thedb-bench -addr $(TRACE_ADDR) -duration 2s -net.mix a -net.records 20000 \
		-net.obs $(TRACE_OBS_ADDR) > /tmp/thedb-trace-bench.txt 2>&1 \
		|| { echo "trace-smoke: bench failed"; cat /tmp/thedb-trace-bench.txt; kill $$pid 2>/dev/null; exit 1; }; \
	cat /tmp/thedb-trace-bench.txt; \
	grep -q 'server traces:' /tmp/thedb-trace-bench.txt \
		|| { echo "trace-smoke: bench printed no phase breakdown"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://$(TRACE_OBS_ADDR)/debug/trace > /tmp/thedb-trace.json \
		|| { echo "trace-smoke: /debug/trace never answered"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '"id"' /tmp/thedb-trace.json \
		|| { echo "trace-smoke: no traces retained"; cat /tmp/thedb-trace.json; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://$(TRACE_OBS_ADDR)/debug/contention > /tmp/thedb-contention.json \
		|| { echo "trace-smoke: /debug/contention never answered"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '"total"' /tmp/thedb-contention.json \
		|| { echo "trace-smoke: contention endpoint malformed"; cat /tmp/thedb-contention.json; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://$(TRACE_OBS_ADDR)/metrics > /tmp/thedb-trace-metrics.txt \
		|| { echo "trace-smoke: /metrics never answered"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q 'trace_id=' /tmp/thedb-trace-metrics.txt \
		|| { echo "trace-smoke: no exemplar trace ID on the latency histogram"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "trace-smoke: server did not drain cleanly"; exit 1; }; \
	echo "trace-smoke: traces retained, breakdown printed, contention + exemplars exported, clean drain"

# snapshot-smoke is the end-to-end MVCC check (DESIGN.md §16): pin the
# zero-allocation version-install fast path, then boot a YCSB server
# on loopback and drive the snap mix (read-mostly writes plus 5%
# snapshot long scans on the read-only wire path). The bench itself
# fails on any call failure, so a clean exit already proves zero
# read-only validation failures; the /metrics scrape then requires
# committed snapshot reads, installed versions, and a nonzero GC
# reclaim counter — the full install → pin → read → prune loop ran.
SNAP_ADDR ?= 127.0.0.1:17737
SNAP_OBS_ADDR ?= 127.0.0.1:19098
snapshot-smoke:
	$(GO) test -run 'TestVersionHotPathZeroAlloc' ./internal/storage/
	$(GO) build -o /tmp/thedb-server ./cmd/thedb-server
	$(GO) build -o /tmp/thedb-bench ./cmd/thedb-bench
	/tmp/thedb-server -addr $(SNAP_ADDR) -workers 4 -workload ycsb \
		-ycsb.records 20000 -obs.addr $(SNAP_OBS_ADDR) & \
	pid=$$!; \
	ok=; \
	for i in $$(seq 1 40); do \
		if /tmp/thedb-bench -addr $(SNAP_ADDR) -duration 100ms \
			-net.clients 1 -net.conns 1 -net.records 20000 >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.25; \
	done; \
	test -n "$$ok" || { echo "snapshot-smoke: server never accepted calls"; kill $$pid 2>/dev/null; exit 1; }; \
	/tmp/thedb-bench -addr $(SNAP_ADDR) -duration 3s -net.mix snap -net.records 20000 \
		> /tmp/thedb-snap-bench.txt 2>&1 \
		|| { echo "snapshot-smoke: bench failed"; cat /tmp/thedb-snap-bench.txt; kill $$pid 2>/dev/null; exit 1; }; \
	cat /tmp/thedb-snap-bench.txt; \
	grep -q 'snapshot reads' /tmp/thedb-snap-bench.txt \
		|| { echo "snapshot-smoke: bench ran no snapshot reads"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://$(SNAP_OBS_ADDR)/metrics > /tmp/thedb-snap-metrics.txt \
		|| { echo "snapshot-smoke: /metrics never answered"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '^thedb_snapshot_reads_total [1-9]' /tmp/thedb-snap-metrics.txt \
		|| { echo "snapshot-smoke: no committed snapshot reads"; grep thedb_snapshot /tmp/thedb-snap-metrics.txt; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '^thedb_mvcc_versions_installed_total [1-9]' /tmp/thedb-snap-metrics.txt \
		|| { echo "snapshot-smoke: no versions installed"; grep thedb_mvcc /tmp/thedb-snap-metrics.txt; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '^thedb_mvcc_versions_reclaimed_total [1-9]' /tmp/thedb-snap-metrics.txt \
		|| { echo "snapshot-smoke: GC reclaimed no versions"; grep thedb_mvcc /tmp/thedb-snap-metrics.txt; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "snapshot-smoke: server did not drain cleanly"; exit 1; }; \
	echo "snapshot-smoke: snap mix over loopback ok, snapshot reads committed, versions installed + reclaimed, clean drain"

# net-chaos is the serving-plane torture (DESIGN.md §14): a client
# fleet drives disjoint workloads through the fault-injecting proxy
# (internal/netfault) at a WAL-backed server that is killed and
# restarted from its WAL mid-run, then diffs the final state against
# per-client sequential models, reconciles every ambiguous outcome and
# runs the serializability oracle over the whole multi-incarnation
# history. Always under -race; -short trims the 32-seed sweep. The
# dedup/session unit tests and the proxy's own tests ride along.
net-chaos:
	$(GO) test -race -run 'NetChaosTorture' .
	$(GO) test -race ./internal/netfault/ ./client/
	$(GO) test -race -run 'Dedup|Deadline|Restart' ./internal/server/

# recovery-torture is the model-vs-real crash-recovery sweep (DESIGN.md
# §13.5): 64 seeded lives, each crashing at a byte-budget instant mid
# WAL write or at one of the checkpoint writer's fault points
# (mid-write, pre-rename, post-rename, mid-truncate), then recovering
# from checkpoint + WAL tail and diffing the database against the
# sequential model. Always under -race; -short trims to 8 seeds. The
# recovery example then runs its bit-identical restart checks (value
# log from checkpoint + WAL tail, command replay, crash salvage).
recovery-torture:
	$(GO) test -race -run 'RecoveryTorture' .
	$(GO) run ./examples/recovery

# restart-smoke is the end-to-end instant-restart check: boot a durable
# YCSB server (the 100k-row populate is 100k committed transactions),
# let the online checkpointer publish, kill -9 mid-flight, restart with
# salvage against the same WAL directory, and require the recovery
# report to show a checkpoint restore plus tail-only replay, with the
# epoch seeded above the image's watermark (new commits must not land
# where the next boot skips them as already imaged).
SMOKE_ADDR ?= 127.0.0.1:17717
SMOKE_WAL ?= /tmp/thedb-restart-smoke
restart-smoke:
	$(GO) build -o /tmp/thedb-server ./cmd/thedb-server
	rm -rf $(SMOKE_WAL)
	/tmp/thedb-server -addr $(SMOKE_ADDR) -workers 4 -workload ycsb \
		-wal.dir $(SMOKE_WAL) -checkpoint.every 2s 2>/tmp/thedb-smoke1.log & \
	pid=$$!; \
	ok=; \
	for i in $$(seq 1 60); do \
		if ls $(SMOKE_WAL)/checkpoint-*.ckpt >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.5; \
	done; \
	test -n "$$ok" || { echo "restart-smoke: no checkpoint published"; kill -9 $$pid 2>/dev/null; cat /tmp/thedb-smoke1.log; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	/tmp/thedb-server -addr $(SMOKE_ADDR) -workers 4 -workload ycsb \
		-wal.dir $(SMOKE_WAL) -wal.salvage -checkpoint.every 0 2>/tmp/thedb-smoke2.log & \
	pid=$$!; \
	ok=; \
	for i in $$(seq 1 60); do \
		if grep -q 'thedb-server: recovery' /tmp/thedb-smoke2.log; then ok=1; break; fi; \
		sleep 0.5; \
	done; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	test -n "$$ok" || { echo "restart-smoke: no recovery report"; cat /tmp/thedb-smoke2.log; exit 1; }; \
	grep 'thedb-server: recovery' /tmp/thedb-smoke2.log | grep -q '"checkpoint"' \
		|| { echo "restart-smoke: restart did not load a checkpoint"; cat /tmp/thedb-smoke2.log; exit 1; }; \
	line=$$(grep 'thedb-server: recovery' /tmp/thedb-smoke2.log); \
	seeded=$$(echo "$$line" | sed -n 's/.*"seeded_epoch":\([0-9]*\).*/\1/p'); \
	wm=$$(echo "$$line" | sed -n 's/.*"watermark_epoch":\([0-9]*\).*/\1/p'); \
	test -n "$$seeded" && test -n "$$wm" && test "$$seeded" -gt "$$wm" \
		|| { echo "restart-smoke: seeded epoch $$seeded not above watermark $$wm"; exit 1; }; \
	echo "restart-smoke: crash restart restored checkpoint + WAL tail"; \
	grep 'thedb-server: recovery' /tmp/thedb-smoke2.log

# bench-restart regenerates BENCH_restart.json: restart wall time at
# 10k/100k/1M committed transactions, with and without a fresh
# checkpoint, demonstrating O(tail) restart (ISSUE 6 acceptance).
bench-restart:
	THEDB_BENCH_RESTART=1 $(GO) test -run 'BenchRestartSnapshot' -v -timeout 30m .

# bench-ycsb regenerates BENCH_ycsb.json: YCSB throughput and p50/p99
# latency over in-process sessions and over the loopback serving
# plane, side by side.
bench-ycsb:
	THEDB_BENCH_YCSB=1 $(GO) test -run 'BenchYCSBSnapshot' -v -timeout 10m .

# verify is the pre-merge gate: clean build, vet, and the full suite
# under the race detector (the crash-torture and concurrency tests are
# the point of -race here). Use `go test -short` for a quicker pass.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...
