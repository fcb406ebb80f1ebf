"""Meta-audit: no silently dead fixtures, no silently dead markers.

Two ways a test suite rots without ever going red:

* a fixture JSON under ``tests/data/`` loses its last consumer in a
  refactor — it stays committed, nothing loads it, and the regression
  it guarded is unguarded.  The audit walks every test module's AST and
  collects string literals *and* f-string shapes (an f-string like
  ``f"golden_trace_{system}.json"`` counts as the fnmatch pattern
  ``golden_trace_*.json``), then asserts every committed fixture matches
  at least one of them.
* a registered domain marker (pyproject ``[tool.pytest.ini_options]``)
  stops being applied anywhere — ``make <domain>-test`` then selects
  zero tests and exits green.  The audit asserts every registered
  marker name appears as a ``pytest.mark.<name>`` use in some test or
  benchmark module.
"""

from __future__ import annotations

import ast
import fnmatch
import importlib.util
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
THIS = Path(__file__).name


def _iter_test_modules():
    for pattern in ("test_*.py", "golden_*.py", "conftest.py", "helpers.py"):
        yield from TESTS.glob(pattern)
    yield from (REPO / "benchmarks").glob("bench_*.py")


def _string_patterns(path: Path) -> set[str]:
    """All literal strings in the module, with f-strings as fnmatch shapes."""
    patterns: set[str] = set()
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            patterns.add(node.value)
        elif isinstance(node, ast.JoinedStr):
            shape = "".join(
                part.value if isinstance(part, ast.Constant) else "*"
                for part in node.values
            )
            patterns.add(shape)
    # an f-string that is all placeholders collapses to "*" and would
    # vacuously consume every fixture — only shapes that commit to the
    # .json suffix count as fixture references
    return {p for p in patterns if ".json" in p}


def test_every_committed_fixture_has_a_consumer():
    consumers: dict[str, set[str]] = {}
    for module in _iter_test_modules():
        if module.name == THIS:
            continue  # the audit itself must not count as a consumer
        for pattern in _string_patterns(module):
            consumers.setdefault(pattern, set()).add(module.name)

    orphans = []
    for fixture in sorted((TESTS / "data").glob("*.json")):
        hits = {
            module
            for pattern, modules in consumers.items()
            if fixture.name in pattern or fnmatch.fnmatch(fixture.name, pattern)
            for module in modules
        }
        if not hits:
            orphans.append(fixture.name)
    assert not orphans, (
        f"fixtures under tests/data/ with no consuming test: {orphans} — "
        "delete them or add a test that loads them"
    )


def _registered_markers() -> list[str]:
    # tolerate the stdlib-only floor: parse the markers list textually
    text = (REPO / "pyproject.toml").read_text()
    names = []
    in_markers = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("markers"):
            in_markers = True
            continue
        if in_markers:
            if stripped.startswith("]"):
                break
            if stripped.startswith('"'):
                names.append(stripped.split(":", 1)[0].lstrip('"'))
    return names


def test_every_registered_marker_is_applied_somewhere():
    markers = _registered_markers()
    assert markers, "no markers registered in pyproject.toml"

    used: set[str] = set()
    for module in _iter_test_modules():
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                if (
                    node.value.attr == "mark"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "pytest"
                ):
                    used.add(node.attr)

    dead = [name for name in markers if name not in used]
    assert not dead, (
        f"registered markers never applied to any test: {dead} — "
        "`-m <marker>` would select nothing and exit green"
    )


def test_domain_marker_registry_matches_conftest():
    from conftest import DOMAIN_MARKERS

    # both directions: a marker removed from one list but not the other
    # is either audited-but-unselectable or selectable-but-unaudited
    assert sorted(DOMAIN_MARKERS) == sorted(_registered_markers())


def _selected_markers(makefile_text):
    """Every marker name in any ``-m`` argument (bare or quoted, anywhere
    on the line) that follows ``pytest``."""
    names = set()
    for rest in re.findall(r"pytest\b(.*)$", makefile_text, flags=re.M):
        for quoted, alt, bare in re.findall(
            r"""(?<!\S)-m[ =]*(?:"([^"]*)"|'([^']*)'|(\S+))""", rest
        ):
            names.update(re.findall(r"[A-Za-z_]\w*", quoted or alt or bare))
    return names - {"and", "or", "not"}


def test_selected_markers_reads_quoted_expressions_and_trailing_flags():
    line = "\t$(PYTHON) -m pytest -q -m \"perf and not trace\" -x -m read\n"
    assert _selected_markers(line) == {"perf", "trace", "read"}
    assert _selected_markers("\t$(PYTHON) -m repro.bench gate\n") == set()


def _makefile():
    """The Makefile with continuation lines joined and ``$(LIST:%=pat)``
    references expanded, plus its ``NAME := words`` lists."""
    text = (REPO / "Makefile").read_text().replace("\\\n", " ")
    lists = {
        name: words.split()
        for name, words in re.findall(r"^(\w+) := (.*)$", text, flags=re.M)
    }

    def expand(match):
        name, pattern = match.groups()
        return " ".join(pattern.replace("%", word) for word in lists[name])

    return re.sub(r"\$\((\w+):%=([\w%-]+)\)", expand, text), lists


def test_makefile_has_no_dangling_targets_markers_or_scripts():
    text, lists = _makefile()
    rules = {
        target
        for targets in re.findall(r"^([A-Za-z][\w -]*):(?!=)", text, flags=re.M)
        for target in targets.split()
    }
    phony = set(re.search(r"^\.PHONY:(.*)$", text, flags=re.M).group(1).split())
    assert phony <= rules, f".PHONY names without a rule: {sorted(phony - rules)}"

    # `make <marker>-test` is one pattern rule over the MARKERS list
    assert "$(PYTHON) -m pytest -q -m $*" in text
    selected = _selected_markers(text) | set(lists["MARKERS"])
    unknown = selected - set(_registered_markers())
    assert not unknown, f"`-m` selects unregistered markers: {sorted(unknown)}"

    scripts = set(re.findall(r"\$\(PYTHON\) ([\w/]+\.py)", text))
    modules = set(re.findall(r"\$\(PYTHON\) -m (repro[\w.]*)", text))
    missing = sorted(s for s in scripts if not (REPO / s).exists())
    missing += sorted(m for m in modules if importlib.util.find_spec(m) is None)
    assert selected and modules, "Makefile parse found nothing to audit"
    assert not missing, f"rules invoke missing scripts or modules: {missing}"


# ----------------------------------------------------------------------
# One bench harness: the driver owns the CLI, the benches own the claims
# ----------------------------------------------------------------------
BENCH_SCRIPTS = sorted((REPO / "benchmarks").glob("*.py"))


def test_bench_scripts_carry_no_cli_of_their_own():
    assert BENCH_SCRIPTS
    for script in BENCH_SCRIPTS:
        source = script.read_text()
        assert "argparse.ArgumentParser(" not in source, script.name
        if script.name.startswith("bench_"):
            for banned in ("def _best_of", "def main"):
                assert banned not in source, f"{script.name}: {banned}"
    # `python -m repro.bench` is the one parser, its commands subparsers
    parsers = {
        path.name: path.read_text().count("argparse.ArgumentParser(")
        for path in (REPO / "src" / "repro" / "bench").glob("*.py")
    }
    assert {name: n for name, n in parsers.items() if n} == {"__main__.py": 1}


def test_every_committed_bench_file_has_one_owner_and_one_make_rule():
    # the Makefile's pattern rules run exactly the driver's benches
    from repro.bench import harness

    _, lists = _makefile()
    assert sorted(lists["BENCHES"]) == sorted(harness.BENCHES)


# ----------------------------------------------------------------------
# Figure claims as data: the scripts measure, one table claims
# ----------------------------------------------------------------------
def test_figure_scripts_state_no_claims_and_take_no_fixture():
    from repro.bench import harness

    modules = {module for _, module in harness.load("suite").FIGURES} | {"common"}
    for module in sorted(modules):
        script = REPO / "benchmarks" / f"{module}.py"
        tree = ast.parse(script.read_text(), filename=str(script))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), f"{script.name}:{node.lineno}: assert"
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.args + node.args.kwonlyargs]
                assert "benchmark" not in params, f"{script.name}: {node.name}(benchmark)"
        assert "paper_claim" not in script.read_text(), script.name


def test_every_figure_scenario_is_claimed_over_recorded_metrics():
    import json

    from repro.bench import harness
    from repro.bench.claims import CLAIMS, records, view

    ids = [row.id for row in CLAIMS]
    assert len(ids) == len(set(ids)), "duplicate claim ids"
    # every committed file's scenarios, by the bench defining them: a
    # name is one scenario of one bench
    defined = {f"BENCH_{name}.json": harness.scenario_names(name) for name in harness.BENCHES}
    owner = {}
    for fname, names in defined.items():
        for name in names:
            assert owner.setdefault(name, fname) == fname, f"{name} is a scenario of two benches"
    assert {row.scenario for row in CLAIMS} == set(owner), (
        "every scenario carries at least one row, every row a scenario"
    )
    # an operand that is not in the committed record is a claim the
    # committed artefact cannot answer for
    for fname, names in defined.items():
        committed = records(json.loads((REPO / fname).read_text()))
        assert set(committed) == set(names), fname
        for row in CLAIMS:
            if row.scenario in committed:
                record = committed[row.scenario]
                try:
                    row.predicate(view(record["metrics"]))
                except KeyError as exc:
                    raise AssertionError(f"{fname}: {row.id} reads the unrecorded {exc}") from None
                assert row.id in [v["id"] for v in record["claims"]]


# ----------------------------------------------------------------------
# Knob census: every scenario/mode knob has one row in DESIGN.md §15
# ----------------------------------------------------------------------
def _audited_classes():
    from repro.bench.runner import WorkloadSpec
    from repro.pravega.container.container import ServingConfig
    from repro.workload.slo import SloSpec
    from repro.workload.tenants import TenantSpec

    return (WorkloadSpec, TenantSpec, SloSpec, ServingConfig)


def _is_environ(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def _env_reads() -> set[str]:
    """Environment variables read under src/ or benchmarks/*.py:
    ``os.environ.get/pop/setdefault("X")``, ``os.getenv("X")``,
    ``os.environ["X"]`` and ``"X" in os.environ``."""
    names: set[str] = set()
    paths = [*(REPO / "src").rglob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            key = None
            if isinstance(node, ast.Call) and node.args:
                func = node.func
                if isinstance(func, ast.Attribute) and (
                    func.attr == "getenv"
                    or (func.attr in ("get", "pop", "setdefault") and _is_environ(func.value))
                ):
                    key = node.args[0]
            elif isinstance(node, ast.Subscript) and _is_environ(node.value):
                key = node.slice
            elif isinstance(node, ast.Compare) and any(map(_is_environ, node.comparators)):
                key = node.left
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
    return names


def _design_table(number: int, first: str) -> dict[str, dict[str, str]]:
    """Rows of the DESIGN.md §``number`` table whose first column is
    ``first`` (§15: the knob table or the per-class census headed
    ``class``; §16: the package census or its ``deleted`` table)."""
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index(f"\n## {number}. ") :]
    section = section.split("\n## ", 2)[1]
    rows: dict[str, dict[str, str]] = {}
    header = None
    for line in section.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif header[0] == first and not set(cells[0]) <= set("-"):
            name = cells[0].strip("`")
            assert name not in rows, f"two rows for {name}"
            rows[name] = dict(zip(header, cells))
    return rows


def test_every_knob_has_one_table_row():
    import dataclasses

    defaults: dict[str, str | None] = {}
    for cls in _audited_classes():
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                default = f"`{f.default!r}`"
            elif f.default_factory is not dataclasses.MISSING:
                default = f"`{f.default_factory.__name__}()`"
            else:
                default = "required"
            defaults[f"{cls.__name__}.{f.name}"] = default
    for name in _env_reads():
        defaults[name] = None  # an unset variable has no repr to check
    rows = _design_table(15, "knob")
    assert not defaults.keys() - rows.keys(), (
        f"knobs without a DESIGN.md §15 row: {sorted(defaults.keys() - rows.keys())}"
    )
    assert not rows.keys() - defaults.keys(), (
        f"§15 rows for knobs that are gone: {sorted(rows.keys() - defaults.keys())}"
    )
    for name, default in defaults.items():
        row = rows[name]
        if default is not None:
            assert row["default"] == default, f"{name}: table says {row['default']}"
        assert row["verdict"], f"{name}: no verdict"
    # the census's per-class "after" counts are the live knob counts
    census = _design_table(15, "class")
    owners = [name.split(".")[0] if "." in name else "environment" for name in defaults]
    for owner in set(owners):
        assert census[owner]["after"] == str(owners.count(owner)), owner
    assert census["**total**"]["after"] == f"**{len(defaults)}**"


# ----------------------------------------------------------------------
# Package census: every src/repro package has one row in DESIGN.md §16
# ----------------------------------------------------------------------
def _live(module: str) -> bool:
    path = REPO / "src" / Path(*module.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def test_every_package_has_one_census_row():
    rows = _design_table(16, "package")
    packages = {f"repro.{init.parent.name}" for init in (REPO / "src" / "repro").glob("*/__init__.py")}
    assert not packages - rows.keys(), (
        f"packages without a DESIGN.md §16 row: {sorted(packages - rows.keys())}"
    )
    dead = sorted(name for name in rows if not _live(name))
    assert not dead, f"§16 rows for modules that are gone: {dead}"
    for name, row in rows.items():
        assert row["verdict"], f"{name}: no verdict"
    # what the census deleted stays deleted until its row is revisited
    deleted = _design_table(16, "deleted")
    assert deleted and not [name for name in deleted if _live(name)]


# ----------------------------------------------------------------------
# No dead code: every definition under src/ is named somewhere else
# ----------------------------------------------------------------------
def _names_outside_definitions() -> set[str]:
    """Every word of src/, benchmarks/ and tests/ Python, leaving out
    ``def``/``class`` headers, ``__all__`` lists and a package
    ``__init__``'s re-exports — a name those alone mention is dead."""
    words: set[str] = set()
    for path in (p for d in ("src", "benchmarks", "tests") for p in (REPO / d).rglob("*.py")):
        text = path.read_text()
        skipped: set[int] = set()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            exported = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            reexported = path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
            if exported or reexported:
                skipped.update(range(node.lineno, node.end_lineno + 1))
        kept = (line for number, line in enumerate(text.splitlines(), 1) if number not in skipped)
        words.update(re.findall(r"\w+", re.sub(r"\b(?:def|class)\s+\w+", " ", "\n".join(kept))))
    return words


def test_every_src_definition_is_named_somewhere():
    words = _names_outside_definitions()
    dead = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in words:
                    dead.append(f"{path.relative_to(REPO)}:{node.lineno} {node.name}")
    assert not dead, f"definitions nothing names: {dead}"


# ----------------------------------------------------------------------
# No polling: waiting is a completion, not `while <cond>: yield <number>`
# ----------------------------------------------------------------------
#: qualified name of the enclosing function -> why its poll is the model
POLL_ALLOWLIST = {
    "PulsarBroker._offload_read": (
        "the 1 ms retry is the modelled per-broker serialization of "
        "offloaded-ledger reads behind Fig. 12; replacing it moves simulated "
        "results"
    ),
}


def _scoped(tree: ast.AST, match) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every node ``match`` accepts."""
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if match(child):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def _is_poll(node: ast.AST) -> bool:
    """A ``while`` loop whose body is a lone ``yield <numeric literal>``."""
    if not (isinstance(node, ast.While) and len(node.body) == 1):
        return False
    stmt = node.body[0]
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Yield)
        and isinstance(stmt.value.value, ast.Constant)
        and type(stmt.value.value.value) in (int, float)
    )


def _allowlisted(scope: str, allowlist: dict[str, str]) -> str | None:
    return next(
        (name for name in allowlist if scope == name or scope.startswith(name + ".")),
        None,
    )


def _audit_scopes(match, allowlist: dict[str, str]) -> tuple[list[str], set[str]]:
    """Every match under ``src/repro`` outside ``allowlist`` as
    ``path:line in scope``, and the allowlist entries that matched."""
    hits = [
        (f"{path.relative_to(REPO)}:{line} in {scope}", _allowlisted(scope, allowlist))
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for scope, line in _scoped(ast.parse(path.read_text(), filename=str(path)), match)
    ]
    flagged = [where for where, allowed in hits if allowed is None]
    return flagged, {allowed for _, allowed in hits if allowed is not None}


def test_no_client_or_server_polls_on_a_timer():
    flagged, seen = _audit_scopes(_is_poll, POLL_ALLOWLIST)
    assert not flagged, f"wait on a future instead of polling: {flagged}"
    assert seen == POLL_ALLOWLIST.keys(), (
        f"allowlisted polls that are gone: {sorted(POLL_ALLOWLIST.keys() - seen)}"
    )


# ----------------------------------------------------------------------
# Devices answer with a time: a process that waits only for a network
# message or a FIFO device yields `Network.delay` / `FifoServer.delay`
# ----------------------------------------------------------------------
_PACED_LTS = (
    "ThrottledTransferModel.transfer is a paced multi-step process "
    "(op latency, 4 MB slices, per-stream pacing), not one delay"
)
#: qualified name of the enclosing function -> why it still yields a future
DEVICE_FUTURE_ALLOWLIST = {
    "LongTermStorage.write_chunk": _PACED_LTS,
    "LongTermStorage.read_chunk": _PACED_LTS,
}


def _is_device_future_yield(node: ast.AST) -> bool:
    """``yield <x>.transfer(...)`` or ``yield <x>.submit(...)``."""
    return (
        isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in ("transfer", "submit")
    )


def test_no_process_yields_a_device_future():
    flagged, seen = _audit_scopes(_is_device_future_yield, DEVICE_FUTURE_ALLOWLIST)
    assert not flagged, f"yield Network.delay / FifoServer.delay instead: {flagged}"
    assert seen == DEVICE_FUTURE_ALLOWLIST.keys(), (
        f"allowlisted device futures that are gone: "
        f"{sorted(DEVICE_FUTURE_ALLOWLIST.keys() - seen)}"
    )
