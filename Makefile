PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

## the benches `python -m repro.bench run <name>` drives, each
## benchmarks/bench_<name>.py; the claims about each BENCH_<name>.json
## are rows of repro.bench.claims
BENCHES := kernel read suite
## the pytest domain markers with a `make <marker>-test` selection
MARKERS := trace workload capacity gate read

.PHONY: test check perf fuzz trace gate \
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

## full run of one bench; writes BENCH_<name>.json (bench-suite: the
## figures of §5, ~12 min at JOBS=1; each row's claims are evaluated on
## the fresh run and recorded, a failing row = non-zero exit)
## (override: JOBS=2 REPEATS=5 — worker processes, default 1, and timed
## repeats; ONLY=fig05,table1 runs names or prefixes and writes nothing)
$(BENCHES:%=bench-%): bench-%:
	$(PYTHON) -m repro.bench run $* $(if $(ONLY),--scenario $(ONLY)) \
		$(if $(REPEATS),--repeats $(REPEATS)) $(if $(JOBS),--jobs $(JOBS))

## smoke of one bench: its smoke scenarios, claims and generous wall
## budgets, no JSON (`make perf` is the kernel one)
$(BENCHES:%=%-check): %-check:
	$(PYTHON) -m repro.bench run $* --check $(if $(JOBS),--jobs $(JOBS))

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

## benchmark regression gate: committed BENCH_*.json vs fresh smoke
## re-runs, structured diff on drift; re-evaluates every claim row over
## every committed file
## (override: SMOKE=none or SMOKE=suite:fig05c+workload_slo,kernel:ping_pong)
gate:
	$(PYTHON) -m repro.bench gate $(if $(SMOKE),--smoke $(SMOKE))
