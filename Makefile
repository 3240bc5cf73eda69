GO ?= go

.PHONY: all build test race vet lint check no-large-files loc bench bench-record bench-smoke fuzz-smoke artifacts chaos-smoke chaos-sweep trace-smoke goldens goldens-update traffic

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs vet plus staticcheck when it is installed; staticcheck is
# optional so the target works on a bare toolchain.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi

# race runs the whole suite under the race detector. A simulation runs on one
# goroutine; what is concurrent is cells — the internal/exper runner behind
# dexbench and dexchaos -parallel, and the application-input memo they share
# (internal/apps) — and they must stay clean here.
race:
	$(GO) test -race ./...

# check is the gate CI runs: build, vet, plain tests, the race run, and no
# tracked file over 1 MB (a built binary once rode in with a commit).
check: build vet test race no-large-files

no-large-files:
	@big=$$(git ls-files -z | xargs -0 ls -l 2>/dev/null | awk '$$5 > 1048576 { print $$5, $$NF }'); \
	if [ -n "$$big" ]; then echo "tracked files over 1 MB:"; echo "$$big"; exit 1; fi

# loc prints the sizes every PR reports: lines of non-test Go outside
# benchmark/ as wc -l counts them, and those that are neither blank nor only
# a // comment; then the same two for internal/dsm and internal/core alone,
# which the ROADMAP and the PRs state their bars for, and the number of places there that ask the directory
# which placement it has (`laneOwned`).
loc:
	@for d in . internal/dsm internal/core; do \
		find $$d -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | \
		awk -v d=$$d '{ n++ } !/^[[:space:]]*(\/\/.*)?$$/ { code++ } END { if (d == ".") d = "outside benchmark/"; \
			printf "non-test Go %s: %d lines (wc -l), %d without blank and comment lines\n", d, n, code }'; \
	done
	@printf "layout tests in non-test internal/dsm: %d\n" \
		$$(grep -h 'if .*dir\.laneOwned' $$(ls internal/dsm/*.go | grep -v _test.go) | wc -l)

# bench runs the Go benchmarks, then the repository benchmark (six
# workloads end to end plus the per-layer probes; benchmark/README.md).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
	$(GO) run ./benchmark

# bench-record runs the repository benchmark (about six minutes) and appends
# one line to BENCH_e2e.json, the checked-in trajectory: the commit ("+dirty"
# when the tree has uncommitted changes), NOTE if given (make bench-record
# NOTE="PR 16"), the host, and from the benchmark's summary the six end-to-end
# metrics of the six workloads and their stats_fingerprints. Compare a new
# line with the one before it from the same host; needs jq.
bench-record:
	$(GO) run ./benchmark > bench-record.out
	tail -n 1 bench-record.out | jq -c \
		--arg commit "$$(git rev-parse --short HEAD)$$(git diff --quiet HEAD || echo +dirty)" --arg note "$(NOTE)" \
		'{commit: $$commit, note: $$note, source: "make bench-record", host, seed, seconds, correct, workloads: (.workloads | map_values({wall_s, cpu_s, host_allocs, host_alloc_mb, host_peak_mb, setup_s})), stats_fingerprint}' \
		>> BENCH_e2e.json
	rm -f bench-record.out

# bench-smoke runs every Go benchmark once, so CI notices one that broke.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# fuzz-smoke gives each native fuzz target ten seconds beyond its checked-in
# corpus (which go test already runs). Not part of check: what it finds
# depends on the host's speed.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLanePick -fuzztime=10s ./internal/sim
	$(GO) test -fuzz=FuzzRMAT -fuzztime=10s ./internal/graph
	$(GO) test -fuzz=FuzzPlan -fuzztime=10s ./internal/chaos
	$(GO) test -fuzz=FuzzDedupState -fuzztime=10s ./internal/dsm
	$(GO) test -fuzz=FuzzKMNNearest -fuzztime=10s ./internal/apps
	$(GO) test -fuzz=FuzzResolve -fuzztime=10s ./internal/cli
	$(GO) test -fuzz=FuzzSchedule -fuzztime=10s ./internal/load
	$(GO) test -fuzz=FuzzTraceLoad -fuzztime=10s ./cmd/dextrace

# artifacts regenerates the paper tables at full scale (EXPERIMENTS.md data).
artifacts:
	$(GO) run ./cmd/dexbench -size full

# chaos-smoke gates a crash campaign with drops on 100% survival with
# checkpoint/restart enabled, under each protocol. (That a campaign reproduces
# byte for byte is what the four dexchaos golden tests state.)
CHAOS := $(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4
chaos-smoke:
	$(CHAOS) -drops 0,0.1 -crash 3ms -restart -fail-under 1 > /dev/null
	$(CHAOS) -drops 0,0.1 -crash 3ms -restart -fail-under 1 -protocol home > /dev/null
	$(CHAOS) -drops 0,0.1 -crash 3ms -restart -fail-under 1 -protocol dist > /dev/null

# chaos-sweep serves under serve_chaos's fault plan — 1 % drops, 5 %
# duplicates, node 7 crashing at 30 ms, shards restartable — on 8 nodes and 8
# tenants, plan seed = -seed, over seeds 1-120 under wi, home and dist, and fails if
# any seed fails: a livelock ends at the event limit, a lost request fails the
# exactly-once check. It prints one line per failed seed.
chaos-sweep:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && $(GO) build -o "$$dir/dexserve" ./cmd/dexserve && fail=0 && \
	for p in wi home dist; do for s in $$(seq 1 120); do \
		printf '{"seed":%d,"drop":[{"src":-1,"dst":-1,"prob":0.01}],"dup":[{"src":-1,"dst":-1,"prob":0.05}],"crashes":[{"node":7,"at":"30ms"}]}' $$s > "$$dir/plan.json"; \
		"$$dir/dexserve" -nodes 8 -tenants 8 -seed $$s -protocol $$p -restart -chaos "$$dir/plan.json" > /dev/null 2> "$$dir/err" || \
			{ echo "chaos-sweep: $$p seed $$s: $$(tail -n 1 "$$dir/err")"; fail=1; }; \
	done; done; exit $$fail

# trace-smoke structurally validates a recorded trace with dextrace. (That the
# trace bytes reproduce is what the manifest's pinned SHA-256 rows state.)
trace-smoke:
	$(GO) run ./cmd/dexrun -app bfs -nodes 4 -seed 7 -trace trace1.json -metrics > /dev/null
	$(GO) run ./cmd/dextrace -validate trace1.json
	rm -f trace1.json

# goldens compares every pinned output once: the golden tests (dexbench —
# also from a -trimpath build run away from the checkout — the four dexchaos
# campaigns, dexserve) and the SHA-256 manifest of the outputs no golden file
# pins (testdata/behaviour.sha256: traces, dexserve crash+restart under each
# protocol and one dist run that loses a directory shard with pages anchored
# there, dexprof, five examples). It starts with the host-independent cost
# gates — objects per fabric message (none: flights are recycled), per new
# network (a constant) and per untraced span, objects per remote write, read
# and bounced fault (a PTE, and where homes move a directory entry: the
# transaction records and chain hints are recycled), per remote write fault
# under an injector (the same) and per lease tick (none: its tasks' records
# are recycled), and the sizes of those records, task switches per coalesced
# fault follower and per wake-up that takes a sleep (one each), objects per
# restart of a finished task (none) and per load schedule (one stream a tenant),
# heap bytes per chaos write fault (less than a page: re-send copies are pooled),
# words per event, bytes per task, events per golden dexserve run, pages a
# crash+restart serving run's checkpoints copy, objects per kmn chunk search
# and per bp snapshot replicate, heap bytes of the full-size R-MAT build (three
# edge-sized arrays) and of an 8-node bp run (one belief snapshot a node, not
# one a worker), frames per replicated page, objects per
# follower join and per radix Set on an existing path, and distinct cells of
# the whole evaluation at test size — so that they fail CI by name. TESTARGS
# (set by traffic) is passed to every test binary.
goldens:
	$(GO) test -run 'AllocsPerRun|NewNetworkAllocs|Sizeof|EventBudget|CopyBudget|CellBudget|SwitchBudget' ./internal/sim ./internal/fabric ./internal/core ./internal/apps ./internal/graph ./internal/dsm ./internal/radix ./internal/exper ./internal/load ./cmd/dexserve $(TESTARGS)
	$(GO) test -count=1 -run 'GoldenBytes|WithoutSourceTree' ./cmd/dexbench ./cmd/dexchaos ./cmd/dexserve $(TESTARGS)
	@$(MAKE) --no-print-directory behaviour | cmp - testdata/behaviour.sha256

# traffic prints the functions outside benchmark/ that no pinned run reaches:
# under one GOCOVERDIR, with every binary and test built -cover
# -coverpkg=dex/..., it runs the goldens (their tests, then the behaviour
# commands, which include the five examples), the chaos-smoke campaigns and
# benchmark -quick, then lists each non-test function that ran 0 %. Not part
# of check: the list is the evidence a deletion starts from, not a gate.
traffic:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && mkdir "$$dir/cov" && \
	export GOCOVERDIR="$$dir/cov" GOFLAGS='-cover -coverpkg=dex/... -count=1' && \
	$(MAKE) --no-print-directory goldens TESTARGS="-args -test.gocoverdir=$$dir/cov" > /dev/null && \
	$(MAKE) --no-print-directory chaos-smoke > /dev/null && \
	$(GO) run ./benchmark -quick -out "$$dir/out" > /dev/null && \
	$(GO) tool covdata func -i="$$dir/cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /^dex\/benchmark\// { n++; print } END { printf "traffic: %d functions outside benchmark/ ran 0 %%\n", n }'

# goldens-update rewrites the manifest (the golden files themselves are
# regenerated by hand, with every changed cell explained).
goldens-update:
	@$(MAKE) --no-print-directory behaviour > testdata/behaviour.sha256

# behaviour prints the manifest: for each protocol, the SHA-256 of the trace
# bytes of a traced bfs run and of the stdout of a dexserve crash+restart run;
# then the stdout of an 8-node dist dexserve run whose crashed shard anchors
# pages (their new anchor learns where they are), of the page-fault profiler
# on kmn and bfs and of the examples: two that print a profile, then the three
# that drive Spawn, Migrate, Join and the futexes through the public API.
.PHONY: behaviour
behaviour:
	@set -e; for p in wi home dist; do \
		$(GO) run ./cmd/dexrun -app bfs -nodes 4 -seed 7 -protocol $$p -trace behaviour-trace.json > /dev/null; \
		echo "$$(sha256sum < behaviour-trace.json | cut -d' ' -f1)  dexrun -app bfs -nodes 4 -seed 7 -protocol $$p -trace"; \
		rm -f behaviour-trace.json; \
		echo "$$($(GO) run ./cmd/dexserve -nodes 3 -crash 10ms -restart -protocol $$p 2>/dev/null | sha256sum | cut -d' ' -f1)  dexserve -nodes 3 -crash 10ms -restart -protocol $$p"; \
	done; \
	echo "$$($(GO) run ./cmd/dexserve -nodes 8 -tenants 8 -seed 56 -protocol dist -crash 30ms -restart 2>/dev/null | sha256sum | cut -d' ' -f1)  dexserve -nodes 8 -tenants 8 -seed 56 -protocol dist -crash 30ms -restart"; \
	for a in kmn bfs; do \
		echo "$$($(GO) run ./cmd/dexprof -app $$a -nodes 4 -affinity -timeline | sha256sum | cut -d' ' -f1)  dexprof -app $$a -nodes 4 -affinity -timeline"; \
	done; \
	for e in profiler affinity quickstart kmeans graphbfs; do \
		echo "$$($(GO) run ./examples/$$e | sha256sum | cut -d' ' -f1)  go run ./examples/$$e"; \
	done
