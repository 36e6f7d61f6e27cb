# Threshold Load Balancing with Weighted Tasks — build/test/bench targets.

GO ?= go

.PHONY: build test race fuzz bench bench-quick bench-check results-serve fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Parallel-sensitive packages under the race detector (mirrors the CI
# race job: the exchange and evacuation tests run real multi-worker
# phases, so the detector sees the concurrent paths).
race:
	$(GO) test -race ./internal/core ./internal/dynamic ./internal/faults ./internal/obs ./internal/par ./internal/recovery ./internal/serve ./internal/sim ./internal/snapshot ./internal/stack ./internal/task ./internal/trace

# Coverage-guided fuzz of the shared line reader against the loops it
# replaced, the trace/speed-profile/churn-event/topology/fault-plan
# parsers, the JSONL event-sink reader, the round-log codec against
# encoding/json and its weight parser and formatter against strconv,
# the graph builder and the move-batch sort against their references,
# RandomRegular's open-addressing edge set against a map, the diffusion
# kernels against their plain reference gather, the delivery exchange
# against the sequential delivery it replaced, and the integer
# migration coin against the float coin it replaced (mirrors the CI
# smoke job; go accepts one -fuzz target per invocation).
fuzz:
	for target in FuzzJSONL FuzzCSV; do \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s ./internal/lineio || exit 1; \
	done
	for target in FuzzReadTraceCSV FuzzReadTraceJSONL FuzzReadSpeedsCSV FuzzReadSpeedsJSONL FuzzReadEventsCSV FuzzReadEventsJSONL; do \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s ./internal/dynamic || exit 1; \
	done
	for target in FuzzReadTopologyCSV FuzzReadTopologyJSONL; do \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s ./internal/recovery || exit 1; \
	done
	for target in FuzzReadPlanCSV FuzzReadPlanJSONL; do \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s ./internal/faults || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzReadEventsJSONL$$' -fuzztime 30s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecords$$' -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 30s ./internal/snapshot
	for target in FuzzRoundLog FuzzRoundLogCodec FuzzParseFloat FuzzAppendFloat; do \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s ./internal/serve || exit 1; \
	done
	for target in FuzzBuild FuzzEdgeSet; do \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s ./internal/graph || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzEvolve$$' -fuzztime 30s ./internal/walk
	$(GO) test -run '^$$' -fuzz '^FuzzSortMigrations$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzExchange$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzAppendTrials$$' -fuzztime 30s ./internal/rng

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Record the dynamic-round perf trajectory into BENCH_dynamic.json and
# compare against the committed baseline (fails on allocs/op
# regressions; speed ratios are informational across machines).
bench:
	$(GO) run ./cmd/benchrec -benchtime 1s

# The fast CI variant: same gates, shorter measurement.
bench-quick:
	$(GO) run ./cmd/benchrec -benchtime 200ms -out ""

# Rewrite RESULTS_serve.txt from one lbserve HTTP load run (wall-clock
# numbers, so plain go test only logs the table).
results-serve:
	$(GO) test ./cmd/lbserve -run '^TestServeLoadE2E$$' -count 1 -update

# Same-machine certification of the acceptance speedup: every recorded
# benchmark must beat the committed baseline by ≥ 3×.
bench-check:
	$(GO) run ./cmd/benchrec -benchtime 2s -min-speedup 3
