PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

FUZZ_MINUTES ?= 5
FAULT_SEEDS ?= 0:64

.PHONY: test test-fast test-degrade test-superblock test-smp test-uring test-uring-async test-cluster test-chaos faults fuzz bench bench-sim bench-selftest perf trace examples

test:
	$(PYTHON) -m pytest -x

test-fast:
	$(PYTHON) -m pytest -x -m "not faults"

# Graceful-degradation tier: hostile mmap_min_addr, injected setup/rewrite
# faults, %gs-stack exhaustion and EINTR-during-interposition coverage.
test-degrade:
	$(PYTHON) -m pytest -x -m degrade

# Superblock tier: Hypothesis lockstep equivalence (tiering on vs off must
# be bit-identical in registers, memory, traces and simulated cycles) plus
# the invalidation and cycle-identity matrices.
test-superblock:
	$(PYTHON) -m pytest -x -m superblock

# SMP tier: multi-core determinism, cross-core coherence (shootdowns),
# the scaling curve and the SMP property checks.
test-smp:
	$(PYTHON) -m pytest -x -m smp

# Syscall-aggregation tier: ring drain semantics, signal-interrupted drains,
# and the batched-vs-unbatched identity matrix across tools and cores.
test-uring:
	$(PYTHON) -m pytest -x -m uring

# Asynchronous ring-drain tier: kernel-side parked entries, out-of-order
# completion posting, ring_wait, the sync/async/direct equivalence
# properties, and the event-loop webserver + session-coupled cluster legs.
test-uring-async:
	$(PYTHON) -m pytest -x -m uring_async

# Fleet-scale serving tier: balancer policies, multi-process shard fan-out,
# cross-process determinism and the shards=1 byte-identity contract.
test-cluster:
	$(PYTHON) -m pytest -x -m cluster

# Fleet fault-tolerance tier: shard chaos injection (crash/hang/degraded/
# hostile), health-checked failover balancing, circuit breakers, deadline/
# retry machinery and the chaos-off byte-identity contract.
test-chaos:
	$(PYTHON) -m pytest -x -m chaos

faults:
	$(PYTHON) -m repro.faults --seeds $(FAULT_SEEDS)

fuzz:
	$(PYTHON) -m repro.faults --minutes $(FUZZ_MINUTES)

bench:
	$(PYTHON) -m repro.bench

# Simulated-results guard: run every end-to-end benchmark workload briefly
# (one host second each) and fail unless its simulated cycles per op and
# p50/p99 latency equal the committed seed-0 results, exactly.
bench-sim:
	$(PYTHON) benchmarks/check_sim.py

# Self-test of the end-to-end benchmark harness (benchmarks/e2e) at tiny
# sizes: manifest names, traced-vs-untraced identity, host-speed scaling
# and compare verdicts, in a few seconds.
bench-selftest:
	$(PYTHON) -m pytest -x benchmarks/e2e/test_e2e.py

# Observability smoke: run a small workload matrix (microbench, ls, webserver
# x lazypoline, zpoline) under the machine-wide tracer and sanity-check the
# event streams.
trace:
	$(PYTHON) -m repro.obs smoke

# Run every script in examples/ (~7 s) and fail on the first non-zero exit.
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script > /dev/null; \
	done

# Perf baselines: snapshot the previous BENCH_*.json files, remeasure, then
# fail on a >15% regression on any workload (guest MIPS for the interpreter
# trajectory, simulated cycles-per-syscall for the uring trajectory,
# aggregate cluster rps for the fleet trajectory) or on any same-run floor
# embedded in the result files.
perf:
	@if [ -f BENCH_interp.json ]; then cp BENCH_interp.json BENCH_interp.prev.json; fi
	@if [ -f BENCH_uring.json ]; then cp BENCH_uring.json BENCH_uring.prev.json; fi
	@if [ -f BENCH_cluster.json ]; then cp BENCH_cluster.json BENCH_cluster.prev.json; fi
	$(PYTHON) -m pytest benchmarks/test_perf_interpreter.py benchmarks/test_perf_uring.py benchmarks/test_perf_cluster.py -m perf
	$(PYTHON) benchmarks/check_regression.py
	$(PYTHON) benchmarks/check_regression.py BENCH_uring.prev.json BENCH_uring.json
	$(PYTHON) benchmarks/check_regression.py BENCH_cluster.prev.json BENCH_cluster.json
