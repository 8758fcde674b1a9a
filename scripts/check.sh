#!/bin/sh
# The full verification gate (also reachable as `make check`):
# gofmt over every tracked .go file (bench/ included) +
# a guard that aboram/gob.go is the only non-test Go file outside bench/
# importing encoding/gob (the checkpoint payload codec) +
# vet + build + tests + the race-detector pass over the concurrent
# packages (the sim orchestrator's worker pool — simulated cycles only,
# the in-process TCP benches are gone — the ringoram engine, the serving
# layer's scheduler/TCP
# front end and fleet lifecycle, the durability stack with its fault
# injector, and the daemon's own reshard/promotion/shutdown paths),
# the simulator pipeline's equivalence and error-path tests and the
# worker pool's tests (Exec.each, and experiments on the pool matching
# their sequential output) under the race detector at one and two Ps
# (one P must deadlock neither),
# race-mode crash-recovery and exactly-once smokes, all against the
# engine's one write protocol (group commit, the delta chain,
# batch-boundary checkpoints) and all six kill-recover oracles on the
# one harness core in internal/check/harness.go (the kill-recover
# oracle, the seed-purity tests that compare two runs of one seed down
# to the recovered engine's fingerprint, the live-reshard kill-recover
# oracle in forward and rollback directions, the replication failover
# oracle with its mid-frame kill sites and fencing check,
# retry/group-commit schedules, single- and multi-shard chaos soak plus
# its reshard- and replication-failover-mode variants),
# a race-mode pass of the checkpoint-stream determinism test (two
# same-seed instances write byte-identical Save and SaveDelta bytes),
# a race-mode pass of the XOR fast-path oracle (the sweep-shaped
# differential oracle with Config.XORRead on) and of the shard
# oracle/isolation/leakage audits (including the mid-migration audit),
# the benchmark module's own vet + build + self-tests (bench/ is a
# separate module, so `go build ./...` here cannot see a refactor
# breaking the surface it compiles against),
# then a short-budget fuzz smoke over the thirteen native fuzz targets.
# Longer campaigns: `make fuzz FUZZTIME=10m`, `make crash`,
# `make soak SOAKTIME=60s`, or see EXPERIMENTS.md.
set -eux

unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on: $unformatted" >&2
	exit 1
fi
gob_users=$(git ls-files -z '*.go' ':(exclude)*_test.go' ':(exclude)bench/' | xargs -0 grep -l '"encoding/gob"' || true)
if [ "$gob_users" != "aboram/gob.go" ]; then
	echo "encoding/gob imported outside aboram/gob.go: $gob_users" >&2
	exit 1
fi
go vet ./...
go build ./...
go test ./...
go test -race ./internal/sim ./internal/server/... ./internal/durable ./internal/faults ./cmd/aboramd
go test -race -cpu 1,2 -run 'TestRunMatchesReference|TestRunError|TestExecEach|TestParallelMatchesSequential' ./internal/sim
go test -race -run '^TestCheckpointStreamsDeterministic$' ./aboram
go test -race -short -run '^TestCrashRecoverySchedules$|^TestCrashScheduleDeterminism$|^TestRetryScheduleDeterminism$|^TestGroupCommitScheduleDeterminism$|^TestReshardKillRecover|^TestFailoverSmoke$|^TestRetrySchedules$|^TestGroupCommitSchedules$|^TestChaosSoak|^TestXORSweepOracle$|^TestXORRemoteSlotsCovered$|^TestShardOracleClean$|^TestShardIsolation$|^TestShardLeak' ./internal/check
(cd bench && go vet ./... && go build -o /dev/null ./... && go test ./...)

FUZZTIME="${FUZZTIME:-5s}"
go test -run='^$' -fuzz='^FuzzAccess$' -fuzztime="$FUZZTIME" ./internal/ringoram
go test -run='^$' -fuzz='^FuzzCheckpointRoundTrip$' -fuzztime="$FUZZTIME" ./aboram
go test -run='^$' -fuzz='^FuzzDeltaDecode$' -fuzztime="$FUZZTIME" ./aboram
go test -run='^$' -fuzz='^FuzzDataPlaneTamper$' -fuzztime="$FUZZTIME" ./aboram
go test -run='^$' -fuzz='^FuzzTraceParse$' -fuzztime="$FUZZTIME" ./internal/trace
go test -run='^$' -fuzz='^FuzzWireDecode$' -fuzztime="$FUZZTIME" ./internal/server/wire
go test -run='^$' -fuzz='^FuzzShardRoute$' -fuzztime="$FUZZTIME" ./internal/server
go test -run='^$' -fuzz='^FuzzReplStream$' -fuzztime="$FUZZTIME" ./internal/server/wire
go test -run='^$' -fuzz='^FuzzWALReplay$' -fuzztime="$FUZZTIME" ./internal/durable
go test -run='^$' -fuzz='^FuzzReshardJournal$' -fuzztime="$FUZZTIME" ./internal/durable
go test -run='^$' -fuzz='^FuzzXORPeel$' -fuzztime="$FUZZTIME" ./internal/secmem
go test -run='^$' -fuzz='^FuzzScopedVerify$' -fuzztime="$FUZZTIME" ./internal/merkle
go test -run='^$' -fuzz='^FuzzControllerMatchesReference$' -fuzztime="$FUZZTIME" ./internal/dram
