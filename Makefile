GO ?= go

.PHONY: build test quick race vet fmt check serve equivalence scenarios-check bench-ledger bench-ledger-check bench-fleet figures loadtest loadtest-short loadtest-ramp sweep sweep-short fuzz-short bench-wire loadtest-wire duel recover-test durability bench-wal bounded-state perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## quick: the -short tier — soak tests skipped, large-fleet scenarios 10x smaller
quick:
	$(GO) test -short ./...

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./...

## check: the full local gate — formatting, vet, the race-enabled suite, and
## the wire codec's zero-allocation proof (bench-wire asserts 0 allocs/op)
check: fmt vet race test bench-wire

## serve: launch the allocation daemon with sensible defaults (HTTP on
## :8080, binary wire protocol on :9090)
serve:
	$(GO) run ./cmd/dbpserved -addr :8080 -wire-addr :9090 -algo firstfit

## loadtest: benchmark a running dbpserved (start one with `make serve`) over
## HTTP at a fixed open-loop rate; writes BENCH_serve.json
loadtest:
	$(GO) run ./cmd/dbpload -target http -addr localhost:8080 -mode open -rate 5000 -warmup 2s -measure 10s -o BENCH_serve.json

## loadtest-short: ~5s in-process smoke benchmark (no daemon needed) — the CI
## tier; writes BENCH_serve.json
loadtest-short:
	$(GO) run ./cmd/dbpload -target inproc -mode open -rate 2000 -warmup 1s -measure 3s -jobs 20000 -o BENCH_serve.json

## loadtest-ramp: find the max rate a running dbpserved sustains under a 5ms p99 SLO
loadtest-ramp:
	$(GO) run ./cmd/dbpload -target http -addr localhost:8080 -ramp -slo-p99 5ms -o BENCH_serve.json

## loadtest-wire: benchmark a running dbpserved (start one with `make serve`)
## over the binary wire protocol at a fixed open-loop rate
loadtest-wire:
	$(GO) run ./cmd/dbpload -target wire -wire-addr localhost:9090 -mode open -rate 100000 -warmup 2s -measure 10s -o BENCH_serve.json

## duel: regenerate the HTTP-vs-wire transport curve in BENCH_serve.json
## against a running `make serve` daemon
duel:
	$(GO) run ./cmd/dbpload -duel -addr localhost:8080 -wire-addr localhost:9090 \
		-duel-rates 2000,5000,10000,20000,50000,100000 -warmup 1s -measure 5s -o BENCH_serve.json

## sweep: regenerate BENCH_scale.json — the shards × GOMAXPROCS × rate
## scaling surface of the in-process dispatcher
sweep:
	$(GO) run ./cmd/dbpload -target inproc -sweep -sweep-shards 1,2,4 -sweep-procs 1,2,4 \
		-sweep-rates 50000,200000,800000 -warmup 1s -measure 3s -jobs 100000 -o BENCH_scale.json

## sweep-short: seconds-scale sweep diffed against the committed baseline;
## exits 2 on a per-configuration throughput regression. The grid covers the
## same shards × procs configurations as the baseline (CompareScale treats a
## missing configuration as a failure) with a trimmed rate axis; the wide
## tolerance absorbs CI machine noise while catching a contention-class slip.
sweep-short:
	$(GO) run ./cmd/dbpload -target inproc -sweep -sweep-shards 1,2,4 -sweep-procs 1,2,4 \
		-sweep-rates 20000,200000 -warmup 300ms -measure 1s -jobs 50000 \
		-o BENCH_scale.new.json -compare BENCH_scale.json -tolerance 60

## equivalence: the cross-engine oracle (indexed vs linear, every policy,
## Run and Stream paths) under the race detector
equivalence:
	$(GO) test -race -count=1 -run Equivalent ./internal/packing/

## scenarios-check: the workload-registry gate — the registry smoke and
## statistics tests (every scenario generates, seed determinism, zipf
## slope, hotspot share, diurnal modulation, equal-duration bound) plus
## the batch-path half of the cross-engine oracle, which packs every
## registered scenario bit-identically on both engines
scenarios-check:
	$(GO) test -count=1 ./internal/workload/
	$(GO) test -count=1 -run 'TestEnginesEquivalent' ./internal/packing/

## bench-ledger: regenerate BENCH_ledger.json (per-event engine cost vs
## fleet size, per policy, indexed and linear)
bench-ledger:
	$(GO) run ./cmd/dbpbench -o BENCH_ledger.json

## bench-ledger-check: one-rep regeneration diffed against the committed
## baseline; exits 2 on a ns/event or scaling-ratio regression. The wide
## tolerance absorbs machine differences while still catching a
## complexity-class slip (an O(B) path shows up as ~900% at 10x size).
bench-ledger-check:
	$(GO) run ./cmd/dbpbench -reps 1 -o BENCH_ledger.new.json -compare BENCH_ledger.json -tolerance 300

## bench-fleet: run the large-fleet Go benchmarks once each
bench-fleet:
	$(GO) test -run '^$$' -bench LargeFleet -benchtime 1x .

## bench-wire: the wire codec's perf ledger; the accompanying
## TestCodecZeroAlloc asserts 0 allocs/op on the encode and decode paths
bench-wire:
	$(GO) test -run 'CodecZeroAlloc' -bench Wire -benchmem ./internal/wire/

## fuzz-short: a CI-scale smoke run of the wire codec and WAL record fuzzers
## (go's native fuzzing allows one target per invocation)
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzDecodeOp -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResult -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5s ./internal/wal/

## recover-test: the crash-injection suite — builds a real dbpserved, SIGKILLs
## it mid-barrage at randomized points, and verifies recovery (triple-entry
## accounting, bit-identical journal replay, restart idempotence, meta guard)
recover-test:
	$(GO) test -run 'CrashRecovery|DataDirConfigGuard' -count=1 -v ./cmd/dbpserved/

## durability: regenerate the fsync-policy cost curve in BENCH_serve.json —
## the same in-process workload under -fsync none/off/interval/always
durability:
	$(GO) run ./cmd/dbpload -fsync-duel -mode open -rate 3000 -warmup 1s -measure 5s \
		-jobs 60000 -snapshot-every 10000 -o BENCH_serve.json

## bench-wal: the WAL append hot path; TestAppendZeroAlloc asserts 0 allocs/op
## with fsync off
bench-wal:
	$(GO) test -run 'AppendZeroAlloc' -bench Append -benchmem ./internal/wal/

## bounded-state: the streaming ledger's live-state gates — zero allocs for
## an arrive+depart onto an open server, index leaves <= max(2*open, 64)
## with a flat live heap and flat ns/op over a million ops, and restore
## allocations independent of servers ever opened. Run outside -race,
## where the alloc and timing gates skip.
bounded-state:
	$(GO) test -count=1 -v -run 'TestStreamOpenServerRoundTripZeroAlloc|TestStreamBoundedState|TestRestoreCostIndependentOfServersUsed' ./internal/packing/

## perfbench-check: vet and test the benchmark harness, which is its own
## Go module — `go test ./...` at the root never compiles it, so an API
## change in internal/serve could otherwise break it silently
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

figures:
	$(GO) run ./cmd/dbpplot
