# Convenience targets; `make check` is the gate referenced by ROADMAP.md.

.PHONY: check vet build test race bench fuzz crash soak serve loadtest

check:
	sh scripts/check.sh

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/sim ./internal/server/... ./internal/durable ./internal/faults ./cmd/aboramd

# The repo's end-to-end benchmark (BENCHMARK.json: four workloads, one
# seeded run each). The root microbenchmarks remain
# `go test -bench=. -benchmem` (README, "Benchmarks").
bench:
	bash bench/run.sh -seed 7

# Run each native fuzz target for FUZZTIME (default 30s per target).
FUZZTIME ?= 30s
fuzz:
	go test -run='^$$' -fuzz='^FuzzAccess$$' -fuzztime=$(FUZZTIME) ./internal/ringoram
	go test -run='^$$' -fuzz='^FuzzCheckpointRoundTrip$$' -fuzztime=$(FUZZTIME) ./aboram
	go test -run='^$$' -fuzz='^FuzzDeltaDecode$$' -fuzztime=$(FUZZTIME) ./aboram
	go test -run='^$$' -fuzz='^FuzzTraceParse$$' -fuzztime=$(FUZZTIME) ./internal/trace
	go test -run='^$$' -fuzz='^FuzzWireDecode$$' -fuzztime=$(FUZZTIME) ./internal/server/wire
	go test -run='^$$' -fuzz='^FuzzShardRoute$$' -fuzztime=$(FUZZTIME) ./internal/server
	go test -run='^$$' -fuzz='^FuzzReplStream$$' -fuzztime=$(FUZZTIME) ./internal/server/wire
	go test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME) ./internal/durable
	go test -run='^$$' -fuzz='^FuzzReshardJournal$$' -fuzztime=$(FUZZTIME) ./internal/durable
	go test -run='^$$' -fuzz='^FuzzXORPeel$$' -fuzztime=$(FUZZTIME) ./internal/secmem

# Long kill-recover campaign: the full (non-short) crash-recovery,
# live-reshard, and replication-failover oracles under the race
# detector, all against the engine's one write protocol (group commit,
# the delta chain, batch-boundary checkpoints). `make check` runs the
# -short variants.
crash:
	go test -race -count=1 -run '^TestCrashRecovery|^TestReshardKillRecover|^TestFailover' -v ./internal/check

# Chaos soak: live daemon under kill -9 schedules, overload bursts, and a
# network blackout, checked for exactly-once and zero acked loss
# (internal/check RunSoak), with background checkpoint publishes racing
# the kills — run unsharded, against a 2-shard fleet with
# cross-shard apply checks, in reshard mode (live 2→3→2 migrations
# under the same fire), and in replication mode (semi-sync shipping to a
# chaos-partitioned standby, promoted and re-verified at the end).
# SOAKTIME sets the per-incarnation wall budget
# (e.g. SOAKTIME=30s); `make check` runs the -short variant.
SOAKTIME ?= 5s
soak:
	SOAKTIME=$(SOAKTIME) go test -race -count=1 -run '^TestChaosSoak' -v ./internal/check

# Serving layer: start a daemon on the default port, or drive one with the
# closed-loop load generator (see README "Serving").
SERVE_ADDR ?= 127.0.0.1:7314
serve:
	go run ./cmd/aboramd -addr $(SERVE_ADDR)

loadtest:
	go run ./cmd/abload -addr $(SERVE_ADDR) -workers 32 -ops 5000
