GO ?= go

# GOAMD64 microarchitecture level for benchmark builds (bench-lanes).
# The hot kernels carry their own runtime-dispatched AVX2+FMA (and
# AVX-512F) assembly, so this only affects compiler-generated code; v3 (AVX2 ISA
# baseline) shaves a few percent off the scalar exact tier on modern
# hosts. Usage: make bench-lanes GOAMD64=v3
GOAMD64 ?=

.PHONY: check build test vet fmt bigendian race faults fuzz bench-warm bench-lanes bench-lists bench-kernels bench-snapshot bench-net obs net kernels loc

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

# fuzz_listed TARGET,PACKAGE fuzzes TARGET for 10 s after check_listed. A
# new interesting input is minimized in at most 100 runs: left at its
# default (60 s), minimizing one snapshot image takes the whole 10 s.
define fuzz_listed
$(call check_listed,$(1),$(2))
	$(GO) test -run '^$$' -fuzz '^$(1)$$' -fuzztime 10s -fuzzminimizetime 100x $(2)
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
## detector, the fault-injection matrix, ten seconds of each fuzz target,
## the observability suite and the real network transport. Performance is judged by the benchmark ledger
## (benchmarks/), not here.
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
	$(MAKE) fuzz
	$(MAKE) obs
	$(MAKE) net

build:
	$(GO) build ./...

## fuzz: each native fuzz target for 10 s past its seeds and its committed
## corpus (testdata/fuzz): the wire reader, the snapshot decoders (the full
## one and a TCP worker's) and the octree decoder, the TCP transport's frame
## decode, the telemetry batch a worker ships to the coordinator and the
## PQR/XYZQR parsers. A failing input is written to the package's
## testdata/fuzz, where `go test` replays it from then on.
fuzz:
	$(call fuzz_listed,FuzzReader,./internal/wire/)
	$(call fuzz_listed,FuzzDecodeSnapshot,./internal/core/)
	$(call fuzz_listed,FuzzDecodeTree,./internal/octree/)
	$(call fuzz_listed,FuzzFrame,./internal/cluster/net/)
	$(call fuzz_listed,FuzzDecodeTelemetry,./internal/obs/)
	$(call fuzz_listed,FuzzReadPQR,./internal/molecule/)

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
## classification's openFar8AVX2, the Born tile's masked far sweep
## bornFarMasked4, the Born near row kernel bornNearRow4, the lane streams'
## masked gather gatherMasked4 and the two tiers' AVX-512F
## stream kernels epolStreamExact8 and epolStreamLanes8 included;
## TestEpolStreamExact8MatchesExact4 and TestEpolStreamLanes8MatchesLanes4
## hold the last two to their AVX2 kernels' bits,
## TestBornNearRowKernelMatchesScalar the row kernel to the scalar loop's)
## and, under -tags purego, the
## portable Go kernels this host would otherwise never run: there the
## identity tests (TestOpenFar8MatchesScalar, TestTileCompileMatchesOracle,
## TestBornTileListsMatchOracle, TestEpolTileListsMatchOracle,
## TestRepairLaneWiseMatchesWholeTile — tiles repaired with 0 to 8 of their
## lanes given up — TestRetestMatchesKeeps — the re-test's lanes, open
## under partial masks, against the scalar re-test — and every list digest)
## hold the portable lanes to the same bytes,
## TestBornTileKernelMatchesRows the portable Born tile sweep to the per-row
## sweep's bits, TestBornFarMaskedMatchesRows the portable masked far sweep to
## the per-row loop's bits — short tiles, one- and seven-lane masks, a 0/0 in
## a dead lane — TestLaneGatherMatchesGather the portable lane gather to the
## one-stream gather element for element, and TestEpolTileKernelMatchesRows
## the portable E_pol tile sweep to the per-row sweep at 1e-13 (DESIGN.md
## §6, §11).
kernels:
	$(call check_listed,TestOpenFar8MatchesScalar|TestTileCompileMatchesOracle|TestBornTileListsMatchOracle|TestBornTileKernelMatchesRows|TestBornFarMaskedMatchesRows|TestLaneGatherMatchesGather|TestEpolTileListsMatchOracle|TestEpolTileKernelMatchesRows|TestRepairLaneWiseMatchesWholeTile|TestRepairFlipsMutualPairs|TestRetestMatchesKeeps|TestEpolStreamExact8MatchesExact4|TestEpolStreamLanes8MatchesLanes4|TestBornNearRowKernelMatchesScalar,./internal/core/)
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
## "Deletion round 1" to "4"): the runner files — one pipeline and what
## constructs it — the list back-end and its checkpoint, all of
## internal/core, its assembly, internal/octree, the packages beside them
## (baselines, gbmodels, nblist, bench), and the facade.
loc:
	@echo "list files (internal/core/{ilist,ilist_tile,ilist_repair,snapshot}.go): $$(cat internal/core/ilist.go internal/core/ilist_tile.go internal/core/ilist_repair.go internal/core/snapshot.go | wc -l)"
	@echo "runner files (internal/core/{runner,elastic,dyndist,recover,netrun,pipeline}.go): $$(cat $(wildcard $(addprefix internal/core/,$(addsuffix .go,runner elastic dyndist recover netrun pipeline))) | wc -l)"
	@echo "internal/core non-test: $$(ls internal/core/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "internal/core/simd_amd64.s: $$(wc -l < internal/core/simd_amd64.s)"
	@echo "internal/octree non-test: $$(ls internal/octree/*.go | grep -v _test.go | xargs cat | wc -l)"
	@for d in internal/baselines internal/gbmodels internal/nblist internal/bench; do \
		echo "$$d non-test: $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l)"; \
	done
	@echo "gbpolar.go: $$(wc -l < gbpolar.go)"
	@echo "cmd + examples non-test: $$(ls cmd/*/*.go examples/*/*.go | grep -v _test.go | xargs cat | wc -l)"

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
## term, the assembly of each tier on its avx2 and avx512 kernels, and the
## gather alone (every tile's shared streams and its rows' lane streams and
## outer operands, no kernel), vector and portable, in ns per list entry
## and per atom copied — the difference of the two rows is the kernels'
## share (EXPERIMENTS.md "Stream kernels", "The gather at copy speed");
## the whole E_pol sweep in ms per sweep on each tier, by rows over the
## lists merged back and by tiles — each tile's shared runs once against
## all of its rows (EXPERIMENTS.md "What a tile of sibling rows takes");
## then the Born far sweep in ns per far term: row by row over each row's
## whole far set, and by tiles — each tile's shared run and its own run,
## eight rows to a node by the own run's lane masks, assembly and portable
## (EXPERIMENTS.md "Far nodes a whole tile takes", "One entry per tile"); each tier's stream kernel alone in cache, avx2 and avx512,
## and the Born near sweep in ns per near term, scalar loop and row kernel
## (EXPERIMENTS.md "The exact tier at vector width", "The lanes tier at
## vector width"). BenchmarkEpolStreamExactAsm, BenchmarkEpolStreamLanes
## and BenchmarkEpolKernelInCache split into avx2 and avx512 (the
## latter skipped without AVX-512F).
bench-kernels:
	$(call bench_listed,BenchmarkEpolStream|BenchmarkEpolGatherAsm|BenchmarkEpolGatherPortable|BenchmarkEpolSweepRows|BenchmarkEpolSweepTile|BenchmarkBornSweepRows|BenchmarkBornSweepTile|BenchmarkBornSweepTilePortable|BenchmarkEpolKernelInCache|BenchmarkBornNearSweep,-benchtime 5x -count 2,./internal/core/)

## bench-snapshot: the checkpoint codec at the ledger's two fixtures
## (4 000 atoms = net_run's 3.6 MB snapshot, 20 000 atoms = 26.2 MB):
## encode to a buffer, save to a file, decode a buffer — the full decode
## and a TCP run worker's, which decodes only the E_pol side — and load a
## file, in MB/s of snapshot with bytes and objects allocated per call
## (EXPERIMENTS.md "Checkpoint codec", "Born beside the checkpoint").
bench-snapshot:
	$(call bench_listed,BenchmarkSnapshotEncode|BenchmarkSnapshotSave|BenchmarkSnapshotDecode|BenchmarkSnapshotLoad,-benchtime 5x -count 2 -benchmem,./internal/core/)

## bench-net: the net_run workload's op in process — a two-rank TCP run of
## the 4 000-atom molecule over loopback, the worker rank a goroutine running
## the real worker entry point, each op after a forced collection — with bytes
## and objects allocated and the collections that ran inside the ops per op
## (gc/op) (EXPERIMENTS.md "A TCP run without a garbage collection").
bench-net:
	$(call bench_listed,BenchmarkNetRun4k,-benchtime 100x -count 3 -benchmem,./internal/core/)

## bench-cold: the cold path, PQR bytes to first E_pol — the five public
## calls at the ledger's fixture, per stage in wall ms and cores kept busy
## (CPU÷wall; 1.00 is a serial stage), the ray cast beside the exhaustive
## serial oracle it replaced, and octree construction (recursive vs
## Morton at 1k/10k/100k points) (EXPERIMENTS.md "Cold path" and
## cold-start sections); bench-lists times the list repair.
bench-cold:
	$(call bench_listed,BenchmarkColdPath20k,-benchtime 10x -count 2 -cpu 2,.)
	$(call bench_listed,BenchmarkCastRadii20k,-benchtime 10x -count 2 -cpu 1$(comma)2,./internal/surface/)
	$(call bench_listed,BenchmarkBuild,-benchtime 3x -count 2,./internal/octree/)
