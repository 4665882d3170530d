GO ?= go
FUZZTIME ?= 30s

.PHONY: all check fmt vet build test bench-go examples fuzz

all: check

# check is the tier-1 gate: formatting, vet, build, tests.
check: fmt vet build test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is a module of its own, so the root ./... does not reach it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-go compiles and runs every go-test benchmark once and no tests
# (the paper-table regeneration benchmarks; CI smoke). The benchmark
# that gates performance is bench/ (bench/README.md).
bench-go:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# fuzz runs the differential fuzzer for a short budget: generated
# programs must match the interpreter oracle at every optimization
# level clean, and under injected faults at one level drawn from the
# seed.
fuzz:
	$(GO) test -fuzz=FuzzDifferential -fuzztime=$(FUZZTIME) -run '^$$' ./internal/difftest

examples:
	@for d in examples/*/; do \
		echo "== $$d =="; $(GO) run ./$$d || exit 1; \
	done
