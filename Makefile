PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

## the report benches `python -m repro.bench run <name>` drives; the
## claims about each BENCH_<name>.json are rows of repro.bench.claims
BENCHES := kernel capacity read
## the pytest domain markers with a `make <marker>-test` selection
MARKERS := trace workload capacity gate read

.PHONY: test check perf fuzz trace suite suite-check workloads gate \
	$(BENCHES:%=bench-%) $(BENCHES:%=%-check) $(MARKERS:%=%-test)

## tier-1 verification: the full unit/property/bench-harness suite
## (includes the seeded fault-injection smoke, marker: faults)
test:
	$(PYTHON) -m pytest -x -q

## the one-command pre-merge check: tier-1 tests, the benchmark
## regression gate's smoke subset (reads the committed files, writes
## none), then the yardstick's event-neutrality check (every simulated
## statistic of its four workloads at smoke size vs reference.json)
check: test gate
	$(PYTHON) benchmarks/layered/run.py --check --smoke

## full run of one report bench; writes BENCH_<name>.json
## (override: ONLY=pravega/mixed REPEATS=5 — a scenario subset, timed repeats)
$(BENCHES:%=bench-%): bench-%:
	$(PYTHON) -m repro.bench run $* $(if $(ONLY),--scenario $(ONLY)) \
		$(if $(REPEATS),--repeats $(REPEATS))

## smoke of one report bench: trimmed scenarios, claims and generous
## wall budgets, no JSON (`make perf` is the kernel one)
$(BENCHES:%=%-check): %-check:
	$(PYTHON) -m repro.bench run $* --check

perf: kernel-check

## tier-1 tests of one domain marker only (pyproject lists what each covers)
$(MARKERS:%=%-test): %-test:
	$(PYTHON) -m pytest -q -m $*

## seeded crash-consistency fuzz across all three systems; failing
## schedules are dumped as replayable JSON under tests/data/
fuzz:
	$(PYTHON) -m repro.faults.fuzz --seed $(or $(SEED),42) --steps $(or $(STEPS),200)

## capture a Chrome/Perfetto trace of one traced workload
## (override: SYSTEM=kafka TRACE_OUT=trace.json RATE=2000 DURATION=1.0)
trace:
	$(PYTHON) -m repro.bench trace --system $(or $(SYSTEM),pravega) \
		--rate $(or $(RATE),2000) --duration $(or $(DURATION),1.0) \
		--trace $(or $(TRACE_OUT),trace_$(or $(SYSTEM),pravega).json)

## full figure suite across worker processes; writes BENCH_suite.json.
## Each scenario returns metrics; its rows of repro.bench.claims are
## evaluated here, on the fresh run, and recorded as `claims` (a failing
## row = `ok: false` + non-zero exit).  JOBS=1 also prints every table.
## (override: JOBS=8 ONLY=fig05a,fig08a; JOBS defaults to the machine's
## core count — a hard-coded number oversubscribes small containers and
## undersubscribes big ones)
suite:
	$(PYTHON) -m repro.bench suite --jobs $(or $(JOBS),$(shell nproc)) \
		$(if $(ONLY),--only $(ONLY)) --json BENCH_suite.json

## fast smoke of the suite runner: serial vs parallel determinism over
## the five smoke scenarios (they carry no claim rows; the figure claims
## are evaluated by `suite`/`workloads` fresh and by `gate` as committed)
suite-check:
	$(PYTHON) -m repro.bench suite --check --jobs $(or $(JOBS),$(shell nproc))

## the repro.workload experiments (diurnal/flash-crowd auto-scaling,
## multi-tenant SLO); prefix selection expands to all workload_* scenarios;
## writes BENCH_workload.json, claims evaluated as in `suite`
workloads:
	$(PYTHON) -m repro.bench suite --only workload --jobs $(or $(JOBS),$(shell nproc)) \
		--json BENCH_workload.json

## benchmark regression gate: committed BENCH_*.json vs fresh smoke
## re-runs, structured diff on drift; re-evaluates every claim row over
## every committed file
## (override: SMOKE=none or SMOKE=suite:fig05c,capacity:kafka/mixed)
gate:
	$(PYTHON) -m repro.bench gate $(if $(SMOKE),--smoke $(SMOKE))
