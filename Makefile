PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test check perf bench-kernel fuzz trace trace-test suite suite-check workloads workload-test scale fluid-test capacity capacity-check capacity-test gate gate-test geo geo-check geo-test read read-check read-test

## tier-1 verification: the full unit/property/bench-harness suite
## (includes the seeded fault-injection smoke, marker: faults)
test:
	$(PYTHON) -m pytest -x -q

## tier-1 tests followed by the benchmark regression gate's smoke
## subset, with the gate verdict recorded into BENCH_capacity.json
## metadata — the one-command pre-merge check
check:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m repro.bench gate --record

## seeded crash-consistency fuzz across all three systems; failing
## schedules are dumped as replayable JSON under tests/data/
fuzz:
	$(PYTHON) -m repro.faults.fuzz --seed $(or $(SEED),42) --steps $(or $(STEPS),200)

## wall-clock kernel regression smoke (generous budgets, CI-friendly)
perf:
	$(PYTHON) benchmarks/bench_kernel.py --check

## full kernel microbenchmark; writes BENCH_kernel.json
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py

## capture a Chrome/Perfetto trace of one traced workload
## (override: SYSTEM=kafka TRACE_OUT=trace.json RATE=2000 DURATION=1.0)
trace:
	$(PYTHON) -m repro.bench --system $(or $(SYSTEM),pravega) \
		--rate $(or $(RATE),2000) --duration $(or $(DURATION),1.0) \
		--trace $(or $(TRACE_OUT),trace_$(or $(SYSTEM),pravega).json)

## tracing subsystem tests only (golden trace, properties, fault windows)
trace-test:
	$(PYTHON) -m pytest -q -m trace

## full figure suite across worker processes; writes BENCH_suite.json
## (override: JOBS=8 ONLY=fig05a,fig08a; JOBS defaults to the machine's
## core count — a hard-coded number oversubscribes small containers and
## undersubscribes big ones)
suite:
	$(PYTHON) -m repro.bench suite --jobs $(or $(JOBS),$(shell nproc)) \
		$(if $(ONLY),--only $(ONLY)) --json BENCH_suite.json

## fast smoke of the suite runner: serial vs parallel determinism
## (includes the workload smoke scenario and its claim asserts)
suite-check:
	$(PYTHON) -m repro.bench suite --check --jobs $(or $(JOBS),$(shell nproc))

## the repro.workload experiments (diurnal/flash-crowd auto-scaling,
## multi-tenant SLO); prefix selection expands to all workload_* scenarios;
## writes BENCH_workload.json
workloads:
	$(PYTHON) -m repro.bench suite --only workload --jobs $(or $(JOBS),$(shell nproc)) \
		--json BENCH_workload.json

## fast workload-marked tier-1 tests only (arrival stats, SLO math,
## auto-scaling driver smoke)
workload-test:
	$(PYTHON) -m pytest -q -m workload

## scale-benchmark smoke: trimmed macroscope + fluid cross-validation
## scenarios under generous wall-clock budgets (full run writes
## BENCH_scale.json: PYTHONPATH=src python benchmarks/bench_scale.py)
scale:
	$(PYTHON) benchmarks/bench_scale.py --check

## fluid-marked tier-1 tests only (golden byte-identity guard, model
## units, headline cross-validation)
fluid-test:
	$(PYTHON) -m pytest -q -m fluid

## full capacity map: max sustainable throughput per (system, config,
## tenant mix), fluid-bracketed + discrete-confirmed; writes
## BENCH_capacity.json (override: ONLY=pravega:mixed SEED=0)
capacity:
	$(PYTHON) benchmarks/bench_capacity.py --seed $(or $(SEED),0) \
		$(if $(ONLY),--only $(ONLY))

## capacity-planner smoke: one cheap point under a generous wall budget
capacity-check:
	$(PYTHON) benchmarks/bench_capacity.py --check

## capacity-marked tier-1 tests only (search property tests, golden
## 3-point fixture, fluid-vs-discrete probe agreement)
capacity-test:
	$(PYTHON) -m pytest -q -m capacity

## benchmark regression gate: committed BENCH_*.json vs fresh smoke
## re-runs, structured diff on drift
## (override: SMOKE=none or SMOKE=suite:fig05c,capacity:kafka/mixed)
gate:
	$(PYTHON) -m repro.bench gate $(if $(SMOKE),--smoke $(SMOKE))

## gate-marked tier-1 tests only (self-tests: committed files pass,
## perturbed copies fail with the right structured diff)
gate-test:
	$(PYTHON) -m pytest -q -m gate

## full geo-replication benchmark: async vs global-strong across three
## WAN RTT tiers through a scripted region loss; writes BENCH_geo.json
geo:
	$(PYTHON) benchmarks/bench_geo.py

## geo smoke: one cheap point per mode, claim asserts only, no JSON
geo-check:
	$(PYTHON) benchmarks/bench_geo.py --check

## geo-marked tier-1 tests only (bounded staleness, failover ordering,
## RPO/RTO oracle, election convergence, golden failover timeline)
geo-test:
	$(PYTHON) -m pytest -q -m geo

## full read-path serving benchmark: tail fan-out vs reader count, mass
## replay with coalescing off/on, cache policy matrix, reader-heavy
## best-of-5 walls; writes BENCH_read.json
read:
	$(PYTHON) benchmarks/bench_read.py

## read smoke: cheap fan-out/replay/policy points, claim asserts only
read-check:
	$(PYTHON) benchmarks/bench_read.py --check

## read-marked tier-1 tests only (tail read-your-writes, eviction
## byte-identity, coalesced failure fan-out, waiter lifecycle, golden
## default-path guard)
read-test:
	$(PYTHON) -m pytest -q -m read
