GO ?= go

# GOAMD64 microarchitecture level for benchmark builds (bench-lanes).
# The hot near-block kernels carry their own runtime-dispatched AVX2+FMA
# assembly, so this only affects compiler-generated code; v3 (AVX2 ISA
# baseline) shaves a few percent off the scalar exact tier on modern
# hosts. Usage: make bench-lanes GOAMD64=v3
GOAMD64 ?=

.PHONY: check build test vet fmt bigendian race faults bench-warm bench-lanes bench-lists bench-kernels bench-snapshot obs perfgate net kernels loc

# comma is a literal comma inside a $(call ...) argument.
comma := ,

# check_listed PATTERN,PACKAGES fails unless EVERY alternative of the
# pattern names a test or benchmark that exists (`go test -list` lists
# both): `go test -run` or `-bench` of a regex that matches nothing exits
# 0, so a renamed or merged one would otherwise drop out of its gate
# silently.
define check_listed
	@have=$$($(GO) test -list '$(1)' $(2)) || exit 1; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$have" | grep -Eq "^$$alt" || { echo "make $@: nothing matches '$$alt' in $(2)"; exit 1; }; \
	done
endef

# run_listed FLAGS,PATTERN,PACKAGES runs `go test FLAGS -run PATTERN
# PACKAGES` after check_listed.
define run_listed
$(call check_listed,$(2),$(3))
	$(GO) test $(1) -run '$(2)' $(3)
endef

# bench_listed PATTERN,FLAGS,PACKAGE runs `go test -run ^$ -bench PATTERN
# FLAGS PACKAGE` after check_listed.
define bench_listed
$(call check_listed,$(1),$(3))
	$(GO) test -run '^$$' -bench '$(1)' $(2) $(3)
endef

## check: the tier-1 gate — format, vet, build (also for a big-endian
## target), full test suite, the benchmark module's vet and short tests
## (benchmarks/ has its own go.mod, which nothing else compiles before a
## ledger run), the kernels with and without their assembly, race
## detector, the fault-injection matrix, the observability suite, and the
## perf regression gate.
check:
	$(MAKE) fmt
	$(MAKE) vet
	$(GO) build ./...
	$(MAKE) bigendian
	$(GO) test ./...
	$(GO) vet -C benchmarks ./...
	$(GO) test -C benchmarks -short ./...
	$(MAKE) kernels
	$(MAKE) race
	$(MAKE) faults
	$(MAKE) obs
	$(MAKE) net
	$(MAKE) perfgate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## fmt: every Go file is gofmt-clean.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

## bigendian: cross-build for a big-endian target, where internal/wire's
## bulk array codec takes its byte-swapping fallback (DESIGN.md §12) —
## this host never compiles that side of the choice into a test.
bigendian:
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/wire/

## kernels: the compiled kernels on both dispatch sides — the assembly
## (vet's asmdecl checks every TEXT against its Go declaration, the list
## classification's openFar8AVX2 and the Born tile sweep's bornFarShared4
## included) and, under -tags purego, the portable Go kernels this host
## would otherwise never run: there the identity tests
## (TestOpenFar8MatchesScalar, TestTileCompileMatchesOracle,
## TestBornTileListsMatchOracle and every list digest) hold the portable
## lanes to the same bytes, and TestBornTileKernelMatchesRows the portable
## tile sweep to the per-row sweep's bits (DESIGN.md §6, §11).
kernels:
	$(call check_listed,TestOpenFar8MatchesScalar|TestTileCompileMatchesOracle|TestBornTileListsMatchOracle|TestBornTileKernelMatchesRows,./internal/core/)
	$(GO) vet -asmdecl ./internal/core/
	$(GO) test ./internal/core/ ./internal/mathx/
	$(GO) vet -tags purego ./internal/core/ ./internal/mathx/
	$(GO) test -tags purego ./internal/core/ ./internal/mathx/

## race: the concurrency-heavy packages under the race detector.
race:
	$(GO) test -race -timeout 20m ./internal/core/ ./internal/sched/ ./internal/cluster/ ./internal/octree/ ./internal/wire/ ./internal/surface/

## faults: the fault matrix — {crash, drop, delay} x {Born, E_pol,
## collective boundary} — plus the full injection/recovery suite.
faults:
	$(call run_listed,,TestFaultMatrix|TestCrashAtEveryPhaseBoundary|TestChaosDeterministic|TestTwoCrashesStillRecover|TestDegradesToSharedRunner|TestPipelineParity,./internal/core/)
	$(call run_listed,,TestCrash|TestDrop|TestDelay|TestRecv|TestSend|TestBcastAndReduceDeadRoot|TestTypedSentinels|TestCollective|TestRetryWithDifferentCollective,./internal/cluster/)

## obs: the observability layer — registry + telemetry codec + flight
## recorder + health sampler + /events stream + anomaly watchdog under
## -race, the gbtrace CLI (report/diff hardening, top view), span
## nesting/ordering, timeline acceptance runs (including the merged
## 4-process net trace, the endpoint wired through NetOptions, and the
## watchdog straggler-localization run), zero-alloc kernels, and the
## <2% disabled-path overhead guard (DESIGN.md §8, §13, §14).
obs:
	$(GO) test -race ./internal/obs/... ./cmd/gbtrace/
	$(call run_listed,-v,TestSharedRunTrace|TestResilientTraceTimeline|TestKernelHotLoopZeroAllocs|TestDisabledObsOverhead|TestRepairSpans|TestCompileSpans|TestMemoryGauges|TestNetTelemetryMergedTrace|TestNetObsEndpoint,./internal/core/)
	$(call run_listed,-race -v,TestNetWatchdogAcceptance,./internal/core/)

## net: the real multi-process transport under the race detector — wire
## protocol, death/heal/rejoin, sentinel parity across transports, and
## the acceptance runs (5k-atom TCP parity, SIGKILL chaos with real
## worker processes, coordinator restart from checkpoint, cancellation,
## 500 back-to-back unobserved clean teardowns).
net:
	$(GO) test -race -count=1 ./internal/cluster/net/
	$(call run_listed,-race -count=1,TestNet|TestRunContext|TestElasticSpans,./internal/core/ ./internal/cluster/)

## loc: the non-test line counts the deletion rounds quote (EXPERIMENTS.md
## "Deletion round 1", "2" and "3"): the runner files — one pipeline
## and what constructs it — the list back-end and its checkpoint, all of
## internal/core, its assembly, internal/octree, and the facade.
loc:
	@echo "list files (internal/core/{ilist,ilist_tile,ilist_repair,snapshot}.go): $$(cat internal/core/ilist.go internal/core/ilist_tile.go internal/core/ilist_repair.go internal/core/snapshot.go | wc -l)"
	@echo "runner files (internal/core/{runner,elastic,dyndist,recover,netrun,pipeline}.go): $$(cat $(wildcard $(addprefix internal/core/,$(addsuffix .go,runner elastic dyndist recover netrun pipeline))) | wc -l)"
	@echo "internal/core non-test: $$(ls internal/core/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "internal/core/simd_amd64.s: $$(wc -l < internal/core/simd_amd64.s)"
	@echo "internal/octree non-test: $$(ls internal/octree/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "gbpolar.go: $$(wc -l < gbpolar.go)"
	@echo "cmd + examples non-test: $$(ls cmd/*/*.go examples/*/*.go | grep -v _test.go | xargs cat | wc -l)"

## perfgate: the performance regression gate (DESIGN.md §9). Compares
## the gate workload against results/baseline.json and fails on any
## stat regressing beyond its noise-aware tolerance; seeds the baseline
## on first run. Re-seed after an intentional perf change with:
##   go run ./cmd/gbbench -baseline results/baseline.json
perfgate:
	@if [ -f results/baseline.json ]; then \
		$(GO) run ./cmd/gbbench -compare results/baseline.json; \
	else \
		$(GO) run ./cmd/gbbench -baseline results/baseline.json; \
	fi

## bench-warm: the warm-engine pose-scan pair (EXPERIMENTS.md extD).
bench-warm:
	$(call bench_listed,BenchmarkComputeWarmCompiled|BenchmarkComputeWarmRecursive,-benchtime 3x -count 2,.)

## bench-lanes: the kernel ablation — the exact and the laned
## approximate-math precision tiers on the 40k-atom warm pose scan
## (EXPERIMENTS.md kernel ablation section). Honors GOAMD64 (see above).
bench-lanes:
	GOAMD64=$(GOAMD64) $(GO) run ./cmd/gbbench -exp lanes -reps 3

## bench-lists: the interaction-list back-end at the ledger's fixture
## (20 000 atoms, 2 workers): a compile — with the nodes its shared descents
## visit — one repaired local jiggle (the steady state of a trajectory) and
## one repaired jiggle of every atom (the repair's worst case: every node
## moved), with bytes and objects allocated and rows reclassified per call;
## then the classification's primitive, ns per opening test of eight lanes,
## assembly and portable (DESIGN.md §6, §10).
bench-lists:
	$(call bench_listed,BenchmarkCompileLists20k|BenchmarkRepairLists20k|BenchmarkRepairGlobal20k,-benchtime 5x -count 2 -benchmem,./internal/core/)
	$(call bench_listed,BenchmarkOpenFar8,-count 2,./internal/core/)

## bench-kernels: the E_pol stream kernels at the ledger's fixture (20 000
## atoms, one worker): a whole compiled sweep — gather included — per
## tier, the exact tier with and without its assembly, in ns per streamed
## term, and the gather alone (every row's near, Sym and far streams and
## outer operands, no kernel), vector and portable, in ns per list entry
## and per atom copied — the difference of the two rows is the kernels'
## share (EXPERIMENTS.md "Stream kernels", "The gather at copy speed");
## then the Born far sweep in ns per far term: row by row over each row's
## whole far set, and by tiles — each tile's shared run eight rows to a
## term, assembly and portable (EXPERIMENTS.md "Far nodes a whole tile
## takes").
bench-kernels:
	$(call bench_listed,BenchmarkEpolStream|BenchmarkEpolGatherAsm|BenchmarkEpolGatherPortable|BenchmarkBornSweepRows|BenchmarkBornSweepTile|BenchmarkBornSweepTilePortable,-benchtime 5x -count 2,./internal/core/)

## bench-snapshot: the checkpoint codec at the ledger's two fixtures
## (4 000 atoms = net_run's 10.1 MB snapshot, 20 000 atoms = 71 MB):
## encode to a buffer, save to a file, decode a buffer, load a file, in
## MB/s of snapshot with bytes and objects allocated per call
## (EXPERIMENTS.md "Checkpoint codec").
bench-snapshot:
	$(call bench_listed,BenchmarkSnapshotEncode|BenchmarkSnapshotSave|BenchmarkSnapshotDecode|BenchmarkSnapshotLoad,-benchtime 5x -count 2 -benchmem,./internal/core/)

## bench-cold: the cold path, PQR bytes to first E_pol — the five public
## calls at the ledger's fixture, per stage in wall ms and cores kept busy
## (CPU÷wall; 1.00 is a serial stage), the ray cast beside the exhaustive
## serial oracle it replaced, octree construction (recursive vs Morton at
## 1k/10k/100k points), and the coldstart experiment tables
## (EXPERIMENTS.md "Cold path" and cold-start sections).
bench-cold:
	$(call bench_listed,BenchmarkColdPath20k,-benchtime 10x -count 2 -cpu 2,.)
	$(call bench_listed,BenchmarkCastRadii20k,-benchtime 10x -count 2 -cpu 1$(comma)2,./internal/surface/)
	$(call bench_listed,BenchmarkBuild,-benchtime 3x -count 2,./internal/octree/)
	$(GO) run ./cmd/gbbench -exp coldstart
