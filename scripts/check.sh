#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
#
#   fmt        gofmt -l must be clean
#   lint       static checks: go vet plus afvet, the project's own
#              multichecker (determinism, lockorder, poolsafe, errcheck,
#              logpath, hotalloc — see DESIGN.md §9)
#   build      every package compiles
#   test       full suite — unit, integration, recovery/chaos, determinism
#              (shuffled, to catch test-order dependence)
#   race       data-race detector: light infrastructure packages at full
#              scale, the heavy engine packages (osd, core, cluster, qa,
#              figures, scenario) in -short mode — their suites are deterministic by
#              construction but too slow under -race at full scale
#   fuzz       10s bounded fuzz of the scenario tokenizer and tag-driven
#              decoder (FuzzScenarioParse: no panic, marshal fixed point)
#   bench      one-iteration smoke over every benchmark (compile + run,
#              no timing gate; scripts/bench.sh owns the regression gate)
#
# Usage: check.sh [race|lint]
#   (no arg)   run the full gate
#   race       run only the race-detector passes (the Makefile's `race`
#              target delegates here so the package lists live in exactly
#              one place)
#   lint       run only the static checks (go vet + afvet)
set -eu
cd "$(dirname "$0")/.."

run_lint() {
    echo "== go vet ./..."
    go vet ./...

    echo "== afvet ./..."
    go run ./cmd/afvet ./...

    echo "== afvet -audit-allows ./..."
    go run ./cmd/afvet -audit-allows ./...
}

run_race() {
    echo "== go test -race (light packages)"
    go test -race ./internal/sim/ ./internal/rng/ ./internal/stats/ \
        ./internal/crush/ ./internal/fault/ ./internal/netsim/ \
        ./internal/oslog/ ./internal/journal/ ./internal/kvstore/ \
        ./internal/trace/ ./internal/metrics/ ./internal/store/ \
        ./internal/redundancy/

    echo "== go test -race -short (engine packages)"
    go test -race -short ./internal/osd/ ./internal/core/ \
        ./internal/cluster/ ./internal/qa/ ./internal/figures/ \
        ./internal/scenario/
}

case "${1:-all}" in
race)
    run_race
    exit 0
    ;;
lint)
    run_lint
    exit 0
    ;;
all) ;;
*)
    echo "usage: check.sh [race|lint]" >&2
    exit 2
    ;;
esac

echo "== gofmt -l"
UNFMT="$(gofmt -l .)"
if [ -n "$UNFMT" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFMT" >&2
    exit 1
fi

run_lint

echo "== go build ./..."
go build ./...

echo "== go test -shuffle=on ./..."
go test -shuffle=on ./...

run_race

echo "== go test -fuzz FuzzScenarioParse -fuzztime 10s"
go test -run '^$' -fuzz FuzzScenarioParse -fuzztime 10s ./internal/scenario/

echo "== go test -bench=. -benchtime=1x (smoke)"
go test -run '^$' -bench=. -benchtime=1x ./... >/dev/null

echo "tier-1 gate: OK"
