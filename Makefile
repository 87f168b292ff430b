# Mirrors .github/workflows/ci.yml so the tier-1 gate is reproducible
# locally: `make ci` must pass before pushing.

GO ?= go

.PHONY: ci fmt-check vet perfbench-vet build test test-purego test-procs test-386 race router-test chaos fuzz bench bench-diff loc clean

# bench-diff both gates regressions and emits the fresh numbers
# (BENCH_diff.json), so ci does not need a second full benchmark run;
# `make bench` is the deliberate act of rebaselining BENCH_serve.json.
ci: fmt-check vet perfbench-vet build race test-purego test-procs test-386 router-test chaos fuzz bench-diff

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# perfbench/ is a nested module (replace mpidetect => ../), so ./...
# above never sees it: vetting it here catches a renamed or deleted API
# it uses before the benchmark run does. Its only dependency is the local
# replace, so this needs no network.
perfbench-vet:
	cd perfbench && GOFLAGS=-mod=mod $(GO) vet .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package under the race detector. A -race build also poisons
# released IR: Module.Release gives each instruction of the module's
# arena an invalid opcode and nil operand lists and never reuses the
# arena (internal/ir/release_race.go), so any use of a module after its
# serving path released it panics here, and in chaos and router-test,
# instead of silently reading the next module's memory.
race:
	$(GO) test -race ./...

# The numeric packages again with the AVX2 assembly compiled out, so the
# generic Go kernels that every non-amd64 host runs also pass the golden
# artifacts (logits_v1.gob, encoder_v1.gob) bit for bit.
test-purego:
	$(GO) test -tags purego ./internal/tensor ./internal/autodiff ./internal/nn \
		./internal/gnn ./internal/ir2vec ./internal/core

# The kernel bit tests, the GNN golden, the inference allocation and
# arena ceilings, the worker-count check, the training checks and the
# simulator's scheduler checks under one and four procs: none of their
# results may depend on the core count.
# TrainDigest trains the GNN (Default config) and the decision tree and
# compares each model's parameter digest with the committed one;
# LegacyArtifact retrains the IR2Vec encoder and requires the vectors of
# the committed encoder_v1.gob. So both runs must train identical
# parameters. The simulator runs every rank on the goroutine that calls
# it, stepping them round-robin from one driver loop, so
# GoldenVerdictEquivalence (simverdicts_v1.gob) and GoldenDeterminism
# must read the same verdicts, steps and output on one P or four;
# RunStartsNoGoroutine must see the goroutine count unchanged while a
# run is in flight, and GoroutineHygiene unchanged after a deadlock,
# crash, timeout or cancel; and the WarmRunAllocs and FreshProgramRun
# ceilings must hold for runs from the shared free list. -count 1 so each
# run really executes under its own GOMAXPROCS instead of replaying a
# cached pass.
PROCS_TESTS = BitExact|LogitsGolden|PredictBatchAllocs|PredictBatchArena|WorkerCount|TrainDigest|LegacyArtifact|GoldenVerdictEquivalence|GoldenDeterminism|RunStartsNoGoroutine|GoroutineHygiene|WarmRunAllocs|FreshProgramRun
PROCS_PKGS = ./internal/tensor ./internal/gnn ./internal/ir2vec ./internal/dtree ./internal/mpisim
test-procs:
	GOMAXPROCS=1 $(GO) test -count 1 -run '$(PROCS_TESTS)' $(PROCS_PKGS)
	GOMAXPROCS=4 $(GO) test -count 1 -run '$(PROCS_TESTS)' $(PROCS_PKGS)

# The packages that own live counters, run as 386 binaries. Their
# counters are plain int64 fields bumped with sync/atomic, whose 64-bit
# functions need 8-byte-aligned words: a 64-bit target aligns every
# int64, a 32-bit one does not, and there a misplaced counter field
# panics ("unaligned 64-bit atomic operation") on its first use.
COUNTER_PKGS = ./internal/telemetry ./internal/cache ./internal/jobs ./internal/events \
	./internal/resilience ./internal/store ./internal/router ./internal/serve/...
test-386:
	GOARCH=386 $(GO) test -count 1 $(COUNTER_PKGS)

# Router failover suite under the race detector: the ring/retry/hedge
# unit tests plus the three-backend kill/restart integration test
# (skipped under -short, so it only runs here and in `make ci`).
# -count 1 because the suite's whole point is re-proving failover.
router-test:
	$(GO) test -race -count 1 ./internal/router/...

# Chaos suite: every registered fault point fired against a mixed
# classify/analyze/jobs workload under the race detector — including the
# router's proxy/health fault points and its hard-killed-backend drill.
# -count 1 defeats test caching — chaos that doesn't run proves nothing.
chaos:
	$(GO) test -race -run 'Chaos' -count 1 ./internal/serve/... ./internal/router/...

# Fuzz smokes, 15 seconds each (go test fuzzes one target per run):
# - FuzzParse: the zero-copy parser against the test-only reference
#   parser (identical modules, identical diagnostics, byte for byte);
# - FuzzNormalizeIR: the digest normalizer against its byte-at-a-time
#   reference (digests key the store, so they must never move);
# - FuzzDigest: the streaming digest against sha256 of the whole
#   normalized text, through buffers of every size, so chunk cuts land
#   on every line boundary;
# - FuzzOptimize: -O2 and -Os over any IR that parses and verifies (no
#   panic, the result verifies and re-parses, the same input always
#   prints the same output);
# - FuzzVecKernels: each AVX2 assembly kernel against its generic Go
#   twin, bit for bit, over odd lengths, misaligned slices, NaN payloads,
#   infinities, signed zeros and subnormals, the matmul row kernel in
#   both its accumulating and zero-start forms (skipped without AVX2);
# - FuzzEdgeAttend: the inference-only GATv2 ops (MatMulRows,
#   MatMulRowsAddRow, EdgeAttend) against the differentiable composition
#   training runs, bit for bit, over the same special values, repeated
#   rows, empty edge lists and destinations that receive no edge;
# - FuzzStoreOpen: arbitrary segment bytes after the magic (Open never
#   panics, Get serves only checksummed records of the input, the
#   recovered store stays writable across a reopen);
# - FuzzTierLoad: arbitrary durable-tier payloads (each Load is a
#   verdict, a miss or a counted decode error, never a panic);
# - FuzzSimulate: the simulator on any IR that parses and verifies, at 2
#   and 4 ranks under a 20k-step budget (no panic escapes RunCtx, a
#   repeated run gives an identical Result, no goroutine is left behind);
# - FuzzRESTBodies: arbitrary /v1/classify and /v1/analyze/batch bodies
#   through the REST handler on an in-process engine (each gets one
#   verdict per program, one NDJSON event per program, or a 4xx error
#   envelope; never a 5xx or a panic).
# The corpus seeds plus whatever the fuzzer grows locally; a longer soak
# is e.g. `go test -run '^$$' -fuzz FuzzOptimize -fuzztime 10m ./internal/passes/`.
# -fuzzminimizetime 1s caps the minimiser: by default it may spend up to
# 60 s shrinking each new interesting input, and execs stop counting
# meanwhile, so a 15 s smoke could test almost nothing. A failing input
# is still reported and saved under testdata/fuzz, only less minimised.
# 0x (no minimising) runs 4-5x the execs, but FuzzOptimize then finds an
# open -O2 round-trip bug within a smoke (ROADMAP item 8); switch once
# it runs clean.
FUZZ = $(GO) test -run '^$$' -fuzztime 15s -fuzzminimizetime 1s
fuzz:
	$(FUZZ) -fuzz FuzzParse ./internal/ir/
	$(FUZZ) -fuzz FuzzNormalizeIR ./internal/core/
	$(FUZZ) -fuzz FuzzDigest ./internal/core/
	$(FUZZ) -fuzz FuzzOptimize ./internal/passes/
	$(FUZZ) -fuzz FuzzVecKernels ./internal/tensor/
	$(FUZZ) -fuzz FuzzEdgeAttend ./internal/autodiff/
	$(FUZZ) -fuzz FuzzStoreOpen ./internal/store/
	$(FUZZ) -fuzz FuzzTierLoad ./internal/store/
	$(FUZZ) -fuzz FuzzSimulate ./internal/mpisim/
	$(FUZZ) -fuzz FuzzRESTBodies ./internal/serve/rest/

# One iteration of every benchmark — catches bit-rot in the bench harness
# without paying for a full measurement run — and emits machine-readable
# BENCH_serve.json (ns/op, B/op, allocs/op, custom metrics per benchmark)
# so the perf trajectory is tracked across PRs; CI uploads it as an
# artifact.
bench:
	$(GO) run ./cmd/benchjson -benchtime 1x -out BENCH_serve.json ./...

# Perf gate: rerun the benchmarks and fail (exit 1) when any benchmark
# regresses >20% ns/op against the committed BENCH_serve.json. Benchmarks
# whose committed time is under 10ms are skipped — at -benchtime 1x those
# are noise-dominated. -count 3 keeps the fastest of three runs per
# benchmark, so the single-CPU host's ±5-8% scheduler noise cannot trip
# the gate. Writes the fresh numbers next to the baseline without
# overwriting it.
bench-diff:
	$(GO) run ./cmd/benchjson -benchtime 1x -count 3 -out BENCH_diff.json \
		-baseline BENCH_serve.json -regress 20 -floor-ms 10 ./...

# Go line counts, the size metric simplicity changes report: production
# is every non-test .go file under internal/, cmd/ and examples/, test is
# every _test.go file there. Not part of ci; it measures, it gates nothing.
loc:
	@prod=$$(find internal cmd examples -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	test=$$(find internal cmd examples -name '*_test.go' -exec cat {} + | wc -l); \
	echo "production $$prod"; echo "test $$test"; echo "total $$((prod + test))"

# BENCH_serve.json is the committed perf baseline (bench-diff gates
# against it), so clean must not delete it — only the gate's scratch
# output.
clean:
	$(GO) clean ./...
	rm -f BENCH_diff.json
