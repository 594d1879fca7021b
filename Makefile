# Convenience targets; `make verify` is the pre-merge gate.

.PHONY: all build test bench perf chaos chaos-smoke jobs-smoke chaos-live-smoke cluster-smoke saturation-smoke service-smoke lint lint-report verify clean

all: build

build:
	dune build

test:
	dune runtest --force

# Full benchmark sweep (~minutes); `perf` alone is the quick wall-clock check.
bench:
	dune exec bench/main.exe

perf:
	dune exec bench/main.exe -- perf quick

# Full chaos sweep: 100 seeds x every stack x every fault plan (~a minute
# single-threaded; cells run jobs-wide on OCaml 5 domains, bit-identical
# to --jobs 1 by construction).
chaos:
	dune exec bin/ics_cli.exe -- chaos --seeds 100 --jobs $$(nproc)

# Quick sweep for the pre-merge gate (a few seconds).  --replay-check reruns
# one seed per cell and fails on any fingerprint divergence, so the replay
# commands the sweep prints stay trustworthy.
chaos-smoke:
	dune exec bin/ics_cli.exe -- chaos --seeds 5 --replay-check

# Parallel-sweep determinism fence: a tiny sweep run at --jobs 1 and
# --jobs 2, every trace fingerprint compared — any divergence means
# domain-shared state leaked into a cell and fails the gate.
jobs-smoke:
	dune exec bin/ics_cli.exe -- chaos --seeds 2 --plans drop,blackout --jobs 2 --jobs-check

# Follows a live command: its exit 2 means this sandbox has no loopback
# sockets, a skip (print $(1)) rather than a failure; any other non-zero
# exit fails the target.
define skip_without_sockets
rc=$$?; if [ $$rc -eq 2 ]; then echo "$(1)"; elif [ $$rc -ne 0 ]; then exit $$rc; fi
endef

# Chaos cells as forked loopback-TCP clusters: the seeded plans compiled
# onto real sockets through the same interposer.  Includes the blackout
# cell, so the S2.2 ct-on-ids counterexample must reproduce on the live
# backend too (exit 2 = sandbox has no sockets = skip, not failure).
chaos-live-smoke:
	dune exec bin/ics_cli.exe -- chaos --live --seeds 1 --stacks ct-indirect,ct-on-ids --plans drop,blackout; \
	$(call skip_without_sockets,chaos-live-smoke: skipped (no loopback sockets))

# Live 3-node loopback cluster, checker-verified (exit 2 = sandbox has no
# sockets, which is a skip, not a failure).
cluster-smoke:
	dune exec bin/ics_cli.exe -- cluster -n 3 --algo ct --broadcast flood --count 10 --timeout 20; \
	$(call skip_without_sockets,cluster-smoke: skipped (no loopback sockets))

# Saturation knee smoke: a tiny offered-load sweep of the batched/
# pipelined/ring stack, replay-checked for sim determinism with every
# point gated by the full checker battery, then one live point (exit 2 =
# sandbox has no sockets = skip, not failure).
saturation-smoke:
	dune exec bin/ics_cli.exe -- bench --offered-load 200,400 --duration 0.5 --batch 8 --pipeline 2 --flush 1 --dissemination ring --n 5 --replay-check
	dune exec bin/ics_cli.exe -- bench --live --offered-load 500 --duration 0.5 --batch 8 --pipeline 2 --flush 1 --dissemination ring --n 5; \
	$(call skip_without_sockets,saturation-smoke: live skipped (no loopback sockets))

# Closed-loop service smoke: a few hundred KV/ledger client sessions
# through the full stack, replay-checked for sim determinism and gated by
# the abcast + application checker batteries; the live point must land on
# the simulator's final state hash bit-for-bit (exit 2 = sandbox has no
# sockets = the live half is skipped, not failed).
service-smoke:
	dune exec bin/ics_cli.exe -- service --clients 200 --requests 3 --replay-check
	dune exec bin/ics_cli.exe -- service --clients 200 --requests 3 --live; \
	$(call skip_without_sockets,service-smoke: live skipped (no loopback sockets))

# Determinism & protocol-safety linter over lib/, bin/ and examples/
# (exit 0 clean, 1 findings, 2 internal error).
lint:
	dune exec bin/ics_lint.exe -- --root .

# Same run, SARIF 2.1.0 to _build/lint.sarif for CI annotation.  The
# report is written even when findings exist; the exit code still gates.
lint-report:
	@mkdir -p _build
	dune exec bin/ics_lint.exe -- --root . --format sarif > _build/lint.sarif; \
	rc=$$?; echo "lint-report: _build/lint.sarif"; exit $$rc

verify: build test lint lint-report perf chaos-smoke jobs-smoke chaos-live-smoke cluster-smoke saturation-smoke service-smoke

clean:
	dune clean
