GO ?= go
FUZZTIME ?= 30s

.PHONY: check fmt vet lint build test benchmark-smoke test-vm test-bl bench bench-frontend bench-analysis bench-tree bench-vm oracle oracle-bl selfcheck dataflow-selfcheck serve-smoke cache-smoke fuzz-smoke bench-cache

# STATICCHECK_VERSION pins the analyzer CI installs; keep in sync with
# .github/workflows/ci.yml.
STATICCHECK_VERSION = 2025.1.1

# check is the tier-1 gate: formatting, vet, lint, build, race-enabled
# tests (the engine differential sweeps included), the benchmark's smoke
# test, plus the self-lint, oracle sweeps (both counter-placement
# strategies) and a fuzzing smoke pass.
check: fmt vet lint build test benchmark-smoke selfcheck dataflow-selfcheck serve-smoke cache-smoke oracle oracle-bl fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs staticcheck when it is installed; CI installs the pinned
# $(STATICCHECK_VERSION), local runs without it just skip (no network
# access assumed). A version-drifted local install gets a warning so the
# pinned CI verdict stays the source of truth.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		got=$$(staticcheck -version 2>/dev/null); \
		case "$$got" in *$(STATICCHECK_VERSION)*) ;; \
		*) echo "lint: warning: local $$got, CI pins $(STATICCHECK_VERSION)";; esac; \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping ($(STATICCHECK_VERSION) pinned in CI)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# benchmark-smoke runs the repository benchmark's own tests (bench/ is a
# separate module, so the root `go test ./...` does not reach it): a
# quick-mode run of every workload with its output checks, plus the
# statistics unit tests. A change that breaks the benchmark fails here.
benchmark-smoke:
	cd bench && $(GO) test -race .

# test-vm re-runs the tier-1 suite with the bytecode VM as the ambient
# execution engine (CI's extra bench-smoke leg). "vm-batch" names the same
# runner, so it needs no leg of its own.
test-vm:
	REPRO_ENGINE=vm $(GO) test -race ./...

# test-bl re-runs the tier-1 suite with Ball–Larus path profiling as the
# ambient counter-placement strategy.
test-bl:
	REPRO_PLAN=ball-larus $(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# bench-frontend times the front end alone (lang.Parse plus lower.Lower)
# on the first 20 cold-large programs, with MB/s and allocations per op.
bench-frontend:
	$(GO) test ./internal/lower -run '^$$' -bench FrontEnd -benchtime 2s -count 5

# bench-analysis times the middle end alone on a cold-large-sized program
# (progen size 240, depth 4), with one and with GOMAXPROCS workers, then
# its dataflow pass alone on the same program (time and allocations).
bench-analysis:
	$(GO) test ./internal/analysis -run '^$$' -bench AnalyzeProgram -benchtime 2s -count 5
	$(GO) test ./internal/dataflow -run '^$$' -bench Dataflow -benchtime 2s -count 5

# bench-tree times the tree-walker alone on the Table 1 programs (SIMPLE
# and LOOPS at a reduced size), with allocations per run.
bench-tree:
	$(GO) test . -run '^$$' -bench Interpreter -benchtime 2s -count 5

# bench-vm times the bytecode VM alone on the Table 1 programs at the
# table1-profile sizes (SIMPLE 100x100 for 10 cycles, LOOPS n = 100 x 128),
# one seed per run, with Mnode/s and allocations per run.
bench-vm:
	GOMAXPROCS=1 $(GO) test ./internal/vm -run '^$$' -bench Table1VM -benchtime 5x -count 5

# bench-cache times each artifact-cache section on LOOPS and SIMPLE:
# decoding it against re-deriving it. A section earns its place in the
# blob only while its decode is the faster of the two.
bench-cache:
	$(GO) test ./internal/artifact -run '^$$' -bench CacheSections -benchtime 2s -count 5

# selfcheck runs the in-tree static verifier over the shipped examples;
# any error-severity finding fails the build.
selfcheck:
	$(GO) run ./cmd/ptranlint examples/figure1.f
	$(GO) run ./cmd/ptranlint examples/loops.f

# dataflow-selfcheck runs the monotone dataflow passes (with fact
# reporting) over the shipped examples and replays every committed fuzz
# corpus input through the analyses; any crash or error-severity finding
# fails the build.
dataflow-selfcheck:
	@for f in examples/*.f; do \
		$(GO) run ./cmd/ptranlint -dataflow $$f || exit 1; \
	done
	$(GO) test ./internal/oracle -run TestFuzzCorpusDataflow -v

# oracle sweeps 200 generated programs through every registry invariant and
# fails on the first violation (JSON report on stdout).
oracle:
	$(GO) run ./cmd/oracle -seeds 200 -quiet

# oracle-bl repeats the sweep with Ball–Larus counter placement, so every
# invariant (plan-equiv included) also holds under path profiling.
oracle-bl:
	$(GO) run ./cmd/oracle -seeds 200 -plan ball-larus -quiet

# serve-smoke exercises the analysis daemon end to end over a loopback
# listener: health probe, cold analyze, warm cache-hit analyze, metrics
# scrape. Any failure (or a cache miss on the warm request) exits non-zero.
serve-smoke:
	$(GO) run ./cmd/ptrand -smoke

# cache-smoke proves the on-disk artifact cache is transparent end to end:
# a profiling run populates the cache, estimates are regenerated warm from
# it, and the result must be byte-identical to an uncached run. The short
# oracle sweep then re-checks load(save(x)) losslessness (bit-identical
# plans, profiles and TIME/VAR on all three engines) case by case.
cache-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && 	REPRO_CACHE_DIR=$$dir/cache $(GO) run ./cmd/profrun -src examples/loops.f -db $$dir/db.json -seeds 1,2,3 && 	REPRO_CACHE_DIR=$$dir/cache $(GO) run ./cmd/estimate -src examples/loops.f -db $$dir/db.json > $$dir/warm.txt && 	$(GO) run ./cmd/estimate -src examples/loops.f -db $$dir/db.json > $$dir/uncached.txt && 	cmp $$dir/uncached.txt $$dir/warm.txt && 	$(GO) run ./cmd/oracle -seeds 40 -invariants artifact-roundtrip -cache-dir $$dir/cache -quiet > /dev/null && 	echo "cache-smoke: warm estimates byte-identical to uncached; 40-case round-trip sweep clean"

# fuzz-smoke gives each native fuzz target a short budget; any panic or
# invariant violation found becomes a crasher in testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzLex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -run '^$$' -fuzz FuzzParsePipeline -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -run '^$$' -fuzz FuzzProgenOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pathprof/ -run '^$$' -fuzz FuzzPathNumbering -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -run '^$$' -fuzz FuzzFusePipeline -fuzztime $(FUZZTIME)
	$(GO) test ./internal/interp/ -run '^$$' -fuzz FuzzEvalConst -fuzztime $(FUZZTIME)
	$(GO) test ./internal/artifact/ -run '^$$' -fuzz FuzzArtifactDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzAnalyzeHandler -fuzztime $(FUZZTIME)
