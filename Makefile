# Convenience targets mirroring the CI pipeline; see .github/workflows/ci.yml
# for the authoritative step list.

GO ?= go

.PHONY: all build test race lint lint-json vet cover bench bench-quick bench-compare

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive subset CI runs on every push.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Coverage gate CI enforces: internal/obs and internal/server floors
# plus the module-wide ratchet against scripts/coverage_baseline.txt.
cover:
	./scripts/covergate.sh

# Run the segdifflint analyzer suite over the whole module. Contributors
# should run this before pushing; CI enforces a clean run.
lint:
	$(GO) run ./cmd/segdifflint ./...

# Same findings as machine-readable JSON (file, line, analyzer, message,
# ignore-directive status), for editors and CI annotation tooling.
lint-json:
	$(GO) run ./cmd/segdifflint -json ./...

# The repo's one benchmark (benchmark/README.md): four served workloads,
# end to end and per layer, with every output checked. bench-quick is the
# ~5 s tier CI runs; bench-compare judges two result sets written by
# `go run ./benchmark -runs N -out F` and fails on a regression:
#   make bench-compare OLD=parent.json NEW=change.json
bench:
	$(GO) run ./benchmark

bench-quick:
	$(GO) run ./benchmark -quick

bench-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)
