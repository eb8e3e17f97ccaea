GO ?= go

.PHONY: all build test bench-check race vet fmt loc reach bench-smoke profile-round profile-serve profile-analysis profile-campaign fuzz-smoke chaos-smoke metrics-lint scenario-smoke scorecards campaign-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a nested module (the BENCHMARK.json workloads) that ./... never
# compiles: vet and test it against the parent module's current API.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Size report for simplicity PRs, so deltas are quoted the same way each
# time: non-test Go lines outside bench/, the field counts of the option and
# config structs (one field per declaration line), the flags each CLI
# defines (on the flag package or on a FlagSet named fs) with their total and
# the number of CLIs, and the bytes of the three docs every PR re-reads.
# $(call fields,FILE,TYPE) counts the fields of `type TYPE struct` in FILE.
fields = awk '/^type $(2) struct \{/{f=1;next} f&&/^\}/{exit} f&&!/^[ \t]*(\/\/|$$)/{n++} END{print n+0}' $(1)
loc:
	@printf 'non-test Go lines (excl. bench/): '; \
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@printf 'countrymon.Options fields: '; $(call fields,countrymon.go,Options)
	@printf 'countrymon.RunConfig fields: '; $(call fields,run.go,RunConfig)
	@printf 'scanner.Config fields: '; $(call fields,internal/scanner/scanner.go,Config)
	@printf 'fleet.Config fields: '; $(call fields,internal/fleet/fleet.go,Config)
	@printf 'fleet.CampaignConfig fields: '; $(call fields,internal/fleet/fleet.go,CampaignConfig)
	@total=0; for d in cmd/*/; do \
		n=$$(ls $$d*.go | grep -v '_test\.go$$' | xargs cat | grep -cE '\b(flag|fs)\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|[A-Za-z0-9]*Var)\('); \
		printf '%s flags: %s\n' "$$(basename $$d)" "$$n"; total=$$((total + n)); \
	done; echo "total flags: $$total"; echo "CLIs (cmd/ packages): $$(ls -d cmd/*/ | wc -l)"
	@wc -c README.md DESIGN.md CHANGES.md | awk '{printf "%s bytes: %s\n", $$2, $$1}'

# Linker reachability (ROADMAP item 15): every declared non-test func or
# method that no binary (the CLIs and bench/) links. Inlining is off, so a
# function inlined everywhere still shows as linked; generic functions, init
# and closures are skipped. `go tool nm` may warn once about the `linked`
# file itself; the warning is harmless.
reach:
	@d=$$(mktemp -d); \
	for c in cmd/*/; do $(GO) build -gcflags=all=-l -o "$$d/$$(basename "$$c")" "./$$c"; done; \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$d/bench" .); \
	for b in "$$d"/*; do \
	  $(GO) tool nm "$$b" | awk -v b="$$(basename "$$b")" '$$2 ~ /^[Tt]$$/ { s = $$3; if (s ~ /^main\./) s = b "/" s; print s }'; \
	done | sort -u > "$$d/linked"; \
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | while read -r f; do \
	  dir=$$(dirname "$${f#./}"); \
	  case $$dir in .) p=countrymon ;; cmd/*) p=$$(basename "$$dir")/main ;; *) p=countrymon/$$dir ;; esac; \
	  grep -E '^func ' "$$f" | grep -vE '^func (\([^)]*\) )?[A-Za-z0-9_]+\[|^func \([^)]*\[' | \
	    sed -nE "s#^func \(([A-Za-z0-9_]+ )?(\*?)([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+)\(.*#$$p.(\2\3).\4#p; s#^func ([A-Za-z0-9_]+)\(.*#$$p.\1#p" | \
	    sed -E 's#\.\(([A-Za-z0-9_]+)\)\.#.\1.#'; \
	done | grep -vE '\.init$$' | sort -u > "$$d/declared"; \
	comm -23 "$$d/declared" "$$d/linked"; \
	rm -r "$$d"

# One-iteration pass over every Go benchmark: catches bit-rot without paying
# for stable timings. The paper's reports run through cmd/experiments and
# every timing is the repo benchmark's (bench/), so the Go benchmarks are
# only the ones the profile-* targets drive, the two disabled-path pairs
# (BenchmarkScanRound vs BenchmarkScanRoundMetrics, obs' BenchmarkDisabledCounter
# vs BenchmarkEnabledCounter) and the two paths no bench/ metric isolates
# (netmodel's BenchmarkSpaceBlockIndex, faults' BenchmarkWriteBatchWrapped vs
# BenchmarkWriteBatchDirect).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./... > /dev/null

# Profile the scan hot loop: BenchmarkScanRound with CPU and heap profiles
# (and the test binary pprof needs) written to .bench_build/, then the CPU
# top 25 and the allocation sites ranked by object count, then by bytes (a
# site can be few objects and most of the bytes). -memprofilerate=1 records
# every allocation, so the counts are exact.
profile-round:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkScanRound$$' -benchmem -benchtime=0.5s \
		-o .bench_build/countrymon.test -memprofilerate=1 \
		-cpuprofile .bench_build/round.cpu.pprof -memprofile .bench_build/round.mem.pprof .
	$(GO) tool pprof -top -nodecount=25 \
		.bench_build/countrymon.test .bench_build/round.cpu.pprof
	$(GO) tool pprof -top -sample_index=alloc_objects -nodecount=25 \
		.bench_build/countrymon.test .bench_build/round.mem.pprof
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount=25 \
		.bench_build/countrymon.test .bench_build/round.mem.pprof

# Profile the read side: one re-detect at the paper's size, the outage
# fetches that follow a seal, and the series render at serve_mixed's cold
# shape (a pinned 84-row week of a series with runs, on the paper's timeline,
# half of it sealed) — the benchmarks behind serve_mixed's detection and
# render classes — plus a store's set-up mid-campaign (200 entities, half the
# paper's timeline sealed; its B/op is what the columns cost), with one CPU
# profile per package (a test binary holds one) into .bench_build/, top 25 of
# each.
profile-serve:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkDetect$$' -benchtime=0.5s \
		-o .bench_build/signals.test -cpuprofile .bench_build/detect.cpu.pprof ./internal/signals
	$(GO) test -run '^$$' -bench '^(BenchmarkServeOutagesAfterSeal|BenchmarkServeRenderSeries|BenchmarkServeRegisterHalfSealed)$$' -benchmem -benchtime=0.5s \
		-o .bench_build/serve.test -cpuprofile .bench_build/serve.cpu.pprof ./internal/serve
	$(GO) tool pprof -top -nodecount=25 .bench_build/signals.test .bench_build/detect.cpu.pprof
	$(GO) tool pprof -top -nodecount=25 .bench_build/serve.test .bench_build/serve.cpu.pprof

# Profile the analysis side: world construction, the fast generator and the
# Trinocular baseline's campaign (its probe reading the generated store, as
# Env.Trinocular's does) on the benchmark's analysis_batch world — what
# Env.Warm spends most of its time in — with one CPU profile per package
# into .bench_build/, top 25 of each.
profile-analysis:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^(BenchmarkBuild|BenchmarkGenerateStore)$$' -benchtime=0.5s \
		-o .bench_build/sim.test -cpuprofile .bench_build/sim.cpu.pprof ./internal/sim
	$(GO) test -run '^$$' -bench '^BenchmarkRunnerRun$$' -benchtime=0.5s \
		-o .bench_build/trinocular.test -cpuprofile .bench_build/trinocular.cpu.pprof ./internal/trinocular
	$(GO) tool pprof -top -nodecount=25 .bench_build/sim.test .bench_build/sim.cpu.pprof
	$(GO) tool pprof -top -nodecount=25 .bench_build/trinocular.test .bench_build/trinocular.cpu.pprof

# Profile a coordinated, faulted campaign: BenchmarkCampaignFaulted — two
# countries on three shared vantages with a blackout and a stall injected and
# a live registry and bus attached, the obs-on shape of the repo benchmark's
# campaign_chaos — with CPU and heap profiles
# into .bench_build/, then the CPU top 25 and the allocation sites ranked by
# object count and then by bytes (-memprofilerate=1: exact counts).
profile-campaign:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkCampaignFaulted$$' -benchmem -benchtime=0.5s \
		-o .bench_build/campaign.test -memprofilerate=1 \
		-cpuprofile .bench_build/campaign.cpu.pprof -memprofile .bench_build/campaign.mem.pprof ./internal/campaign
	$(GO) tool pprof -top -nodecount=25 \
		.bench_build/campaign.test .bench_build/campaign.cpu.pprof
	$(GO) tool pprof -top -sample_index=alloc_objects -nodecount=25 \
		.bench_build/campaign.test .bench_build/campaign.mem.pprof
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount=25 \
		.bench_build/campaign.test .bench_build/campaign.mem.pprof

# Seeded chaos soak: a three-vantage fleet campaign with scripted blackout,
# stall and flap windows against individual vantages, asserting zero false
# block-outage declarations against the sim ground truth plus determinism
# across worker counts and kill/resume.
chaos-smoke:
	$(GO) test -run '^TestChaos' -count=1 -v .

# Check that every metric registered in code appears in the README's
# catalogue table and vice versa (the test leg runs it too).
metrics-lint:
	$(GO) test -run '^TestMetricCatalogue$$' -count=1 -v .

# Short native-fuzz smoke over the packet parsers, the word-wise checksum,
# the columnar codecs, the streamed column coder against its staged oracle,
# a store column's extent against its round-at-a-time
# scan, the scenario parser, the fault-window span memo, the
# faults wrapper's batch path against its packet-at-a-time oracle, the
# simulated wire's reply records against its encode-at-write oracle, one-pass
# detection against its per-window oracle, compiled ground truth against its
# linear-scan oracle, a serve store's grown columns against the
# full-length layout under a random Register/Advance schedule, the raw-query
# reader against url.ParseQuery, the series render against its url.Values
# oracle, every series body (the time column a store formats as it seals, the
# repeated float cells copied) against per-cell AppendFloat and per-row Unix()
# on random timelines, columns, schedules and windows, a block's geolocation
# shares against the per-country-map oracle and a lookup's containment-chain
# walk against the backward scan, both on random snapshots, the Energy Map
# parser against its split-string oracle and
# IODA's word-at-a-time routed counts against the per-bit walk on random stores,
# and the MRT RIB-dump reader, the one parser of outside routing bytes, against
# its own write-back (a dump it accepts reads back as the same routes):
# a few seconds each is enough to exercise the mutator beyond the seed corpus
# in CI.
fuzz-smoke:
	$(GO) test ./internal/icmp -fuzz '^FuzzParseIPv4$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/icmp -fuzz '^FuzzParseICMP$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/icmp -fuzz '^FuzzChecksum$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/dataset -fuzz '^FuzzRLE$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/dataset -fuzz '^FuzzColumnV4$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/dataset -fuzz '^FuzzV4Column$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/dataset -fuzz '^FuzzExtent$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/scenario -fuzz '^FuzzScenarioParse$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/faults -fuzz '^FuzzWindowAt$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/faults -fuzz '^FuzzWriteBatchMatchesPacketLoop$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/simnet -fuzz '^FuzzNetworkMatchesRef$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/simnet -fuzz '^FuzzReplyQueueMatchesHeap$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/signals -fuzz '^FuzzDetectMatchesOracle$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/signals -fuzz '^FuzzDetectResumeMatchesWhole$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/sim -fuzz '^FuzzStateAtMatchesOracle$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/sim -fuzz '^FuzzGenerateStoreMatchesOracle$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/serve -fuzz '^FuzzServeSchedule$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/query -fuzz '^FuzzGetMatchesParseQuery$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/serve -fuzz '^FuzzRenderSeriesMatchesRef$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/serve -fuzz '^FuzzSeriesBodyMatchesOracle$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/geodb -fuzz '^FuzzBlockSharesMatchesRef$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/geodb -fuzz '^FuzzLookupMatchesRef$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/power -fuzz '^FuzzParseReportMatchesRef$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/ioda -fuzz '^FuzzRegionSeriesMatchesRef$$' -fuzztime 5s -run '^$$'
	$(GO) test ./internal/bgp -fuzz '^FuzzReadMRT$$' -fuzztime 5s -run '^$$'

# Run the labeled scenario library through the full detection stack and fail
# on any divergence from the committed golden scorecards.
scenario-smoke:
	$(GO) test -run '^TestScorecardsMatchGoldens$$' -count=1 -v ./internal/scenario

# Multi-country coordinator smoke: the two-country campaign must produce
# per-country stores byte-identical to solo runs and to itself at
# COUNTRYMON_WORKERS=1/8, and the legacy /v1/* routes must be byte-for-byte
# (body and ETag) aliases of /v1/countries/{default}/*.
campaign-smoke:
	$(GO) test -run '^TestCampaign' -count=1 -v ./internal/campaign/

# Regenerate the golden scorecards after an intended engine change. Refuses
# to run on a dirty tree so a regeneration can never silently absorb
# unrelated edits — commit (or stash) first, then regenerate and review the
# scorecard diff on its own.
scorecards:
	@if ! git diff --quiet || ! git diff --cached --quiet; then \
		echo "scorecards: working tree is dirty; commit or stash first"; exit 1; \
	fi
	$(GO) test -run '^TestScorecardsMatchGoldens$$' -count=1 ./internal/scenario -update

# The full gate: formatting, static analysis, tests (the metric-catalogue
# check and the golden scorecards among them), the nested bench module's
# check (all four BENCHMARK.json workloads, both passes, zero failed
# operations), the race detector, the benchmark smoke run and the fuzz smoke.
# Every leg is fatal. Performance is not gated here: a timing means something
# only against the parent commit on the same host, which is what paired
# `bash bench/run.sh` runs measure (README, "Performance"). chaos-smoke,
# campaign-smoke, metrics-lint and scenario-smoke re-run tests that `test`
# and `race` already ran, so they are not legs.
ci: fmt vet test bench-check race bench-smoke fuzz-smoke
