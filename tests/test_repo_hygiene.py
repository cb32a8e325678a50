"""Repository-level hygiene checks.

Cheap guards that keep the public surface coherent: every documented
experiment id exists, every public module imports cleanly, the version is
consistent, and the examples reference only real APIs (they are executed in
their own right by CI scripts; here we just import-compile them).

The docs-lint half (``TestDocsLint``) keeps the documentation from
drifting: every public package has an API.md section, every CLI flag is
documented, every documented ``cosched`` subcommand exists, and every
python code fence in the docs parses and imports only names that exist.
``TestEnvVars`` holds the ``COSCHED_*`` environment variables the code
reads and the ones the docs name to the same set.  CI runs this file as
its own job.
"""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.runtime import REGISTRY, get_info
from repro.runtime.registry import _COMPOSITE_PARAMS

REPO = pathlib.Path(repro.__file__).resolve().parent.parent.parent
SRC = REPO / "src" / "repro"
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def all_modules():
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent)
        mod = ".".join(rel.with_suffix("").parts)
        if mod.endswith(".__init__"):
            mod = mod[: -len(".__init__")]
        out.append(mod)
    return out


class TestImports:
    @pytest.mark.parametrize("module", all_modules())
    def test_every_module_imports(self, module):
        importlib.import_module(module)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_solve_and_serve_paths_load_neither_scipy_nor_networkx(self):
        # SciPy and NetworkX are imported where they are used (the IP
        # backends and the graph export), so a fresh interpreter that only
        # imports the package and runs the search heuristics loads neither.
        script = textwrap.dedent(
            """
            import json, sys
            import repro, repro.runtime, repro.cli, repro.service
            from repro.runtime import run_solve
            from repro.workloads import random_serial_instance

            p = random_serial_instance(8, cluster="dual", seed=3)
            objs = {s: run_solve(p, s).objective
                    for s in ("hastar", "oastar", "osvp", "pg", "hill")}
            loaded = [m for m in ("scipy", "networkx") if m in sys.modules]
            for s in ("ip", "bb"):
                objs[s] = run_solve(p, s).objective
            print(json.dumps({"loaded": loaded, "objs": objs}))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=REPO,
            capture_output=True, text=True, check=True, timeout=300,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["loaded"] == []
        objs = report["objs"]
        for s in ("ip", "bb"):
            assert objs[s] == pytest.approx(objs["oastar"], rel=1e-9), s


class TestDocsConsistency:
    def test_design_lists_every_experiment(self):
        text = (REPO / "DESIGN.md").read_text()
        from repro.experiments import REGISTRY

        for exp_id in REGISTRY:
            assert exp_id in text.lower() or exp_id.replace("table", "t") in (
                text.lower()
            ), f"{exp_id} missing from DESIGN.md"

    def test_experiments_doc_covers_all_artifacts(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table I", "Table II", "Table III", "Table IV",
                         "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9",
                         "Fig. 10", "Fig. 12", "Fig. 13"):
            assert artifact in text, f"{artifact} missing from EXPERIMENTS.md"

    def test_readme_mentions_every_example(self):
        readme = (REPO / "README.md").read_text()
        for example in sorted((REPO / "examples").glob("*.py")):
            assert example.name in readme, (
                f"examples/{example.name} not documented in README"
            )


def cli_flags():
    """Every ``--flag`` declared by an ``add_argument`` call in cli.py."""
    tree = ast.parse((SRC / "cli.py").read_text())
    flags = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    flags.append(arg.value)
    assert flags, "no CLI flags found — did cli.py move?"
    return sorted(set(flags))


def cli_subcommands():
    """Every subcommand name declared by an ``add_parser`` call in cli.py."""
    tree = ast.parse((SRC / "cli.py").read_text())
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names.append(node.args[0].value)
    assert names, "no CLI subcommands found — did cli.py move?"
    return set(names)


def python_fences():
    """(path, index, source) for every ```python fence in README/docs."""
    fence = re.compile(r"```python\n(.*?)```", re.DOTALL)
    out = []
    for path in DOC_FILES:
        for i, match in enumerate(fence.finditer(path.read_text())):
            out.append((path.name, i, match.group(1)))
    return out


class TestDocsLint:
    """The documentation must track the code: lint it like code."""

    def test_core_docs_exist(self):
        for name in ("API.md", "ARCHITECTURE.md", "OBSERVABILITY.md"):
            assert (REPO / "docs" / name).is_file(), f"docs/{name} missing"

    def test_readme_links_architecture_and_api(self):
        readme = (REPO / "README.md").read_text()
        for doc in ("docs/ARCHITECTURE.md", "docs/OBSERVABILITY.md",
                    "docs/API.md"):
            assert doc in readme, f"README does not link {doc}"

    def test_api_md_links_architecture(self):
        assert "ARCHITECTURE.md" in (REPO / "docs" / "API.md").read_text()

    def test_every_public_package_has_api_section(self):
        api = (REPO / "docs" / "API.md").read_text()
        packages = sorted(
            p.name for p in SRC.iterdir()
            if p.is_dir() and (p / "__init__.py").is_file()
        )
        assert packages, "no packages found under src/repro"
        for pkg in packages:
            assert f"`repro.{pkg}`" in api, (
                f"docs/API.md has no section for repro.{pkg}"
            )

    @pytest.mark.parametrize("flag", cli_flags())
    def test_every_cli_flag_documented(self, flag):
        for path in DOC_FILES:
            if f"`{flag}" in path.read_text() or f"{flag} " in path.read_text():
                return
        pytest.fail(f"CLI flag {flag} appears in no doc (README or docs/)")

    def test_every_documented_subcommand_exists(self):
        """The reverse of the flag check: a ``cosched <word>`` named in
        README, docs/ or examples/ must be a subcommand cli.py declares."""
        known = cli_subcommands()
        sources = DOC_FILES + sorted((REPO / "examples").glob("*"))
        stale = {
            f"{path.name}: cosched {word}"
            for path in sources if path.is_file()
            for word in re.findall(r"\bcosched ([a-z][a-z-]*)",
                                   path.read_text())
            if word not in known
        }
        assert not stale, "unknown subcommands documented:\n" + "\n".join(
            sorted(stale))

    @pytest.mark.parametrize(
        "doc,idx,source", python_fences(),
        ids=[f"{d}[{i}]" for d, i, _ in python_fences()],
    )
    def test_doc_code_fences_import_check(self, doc, idx, source):
        """Python fences must parse, and every ``from repro...`` import must
        name something that actually exists."""
        tree = ast.parse(source)  # SyntaxError -> test failure
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), (
                        f"{doc} fence {idx}: {node.module} has no "
                        f"{alias.name!r}"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        importlib.import_module(alias.name)

    def test_observability_documents_every_event_type(self):
        text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        from repro.perf import EVENT_TYPES

        for ev in EVENT_TYPES:
            assert f"`{ev}`" in text, (
                f"docs/OBSERVABILITY.md does not document event {ev!r}"
            )

    def test_ci_has_docs_lint_job(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "docs-lint" in ci
        assert "test_repo_hygiene" in ci

    def test_cross_doc_markdown_links_resolve(self):
        """Every relative markdown link in README/docs points at a file
        that exists, and every ``#anchor`` names a real heading there."""
        link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

        def slugify(heading: str) -> str:
            # GitHub's anchor algorithm, near enough: lowercase, drop
            # everything but word chars / spaces / hyphens, spaces->hyphens.
            text = re.sub(r"[`*]", "", heading.strip())
            text = re.sub(r"[^\w\- ]", "", text.lower())
            return text.replace(" ", "-")

        def headings(path: pathlib.Path) -> set:
            out = set()
            in_fence = False
            for line in path.read_text().splitlines():
                if line.startswith("```"):
                    in_fence = not in_fence
                elif not in_fence and line.startswith("#"):
                    out.add(slugify(line.lstrip("#")))
            return out

        broken = []
        for doc in DOC_FILES:
            for target in link.findall(doc.read_text()):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                target_path, _, anchor = target.partition("#")
                resolved = (
                    (doc.parent / target_path).resolve() if target_path
                    else doc
                )
                if not resolved.exists():
                    broken.append(f"{doc.name}: {target} (missing file)")
                    continue
                if anchor and resolved.suffix == ".md":
                    if slugify(anchor) not in headings(resolved):
                        broken.append(
                            f"{doc.name}: {target} (no such heading)")
        assert not broken, "broken doc links:\n" + "\n".join(broken)


def runtime_solver_rows():
    """``{name: [aliases, kind, currencies, scenarios]}`` from the solver
    table in docs/RUNTIME.md, plus the list of names in row order."""
    text = (REPO / "docs" / "RUNTIME.md").read_text()
    header = "| name | aliases | kind | budget currencies | scenarios |"
    assert header in text, "docs/RUNTIME.md lost its solver table"
    rows, names = {}, []
    for line in text.split(header, 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        assert len(cells) == 5, f"malformed solver row: {line}"
        name = cells[0].strip("`")
        names.append(name)
        rows[name] = cells[1:]
    return rows, names


class TestRuntimeSolverTable:
    """docs/RUNTIME.md's registry table is pinned to ``REGISTRY``."""

    def test_one_row_per_registered_solver(self):
        _, names = runtime_solver_rows()
        assert sorted(names) == sorted(REGISTRY)
        assert len(names) == len(set(names)), "duplicate solver rows"

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_row_matches_solver_info(self, name):
        rows, _ = runtime_solver_rows()
        assert name in rows, f"docs/RUNTIME.md has no row for {name!r}"
        aliases, kind, currencies, scenarios = rows[name]
        info = get_info(name)
        assert re.findall(r"`([^`]+)`", aliases) == list(info.aliases)
        assert kind.split()[0] == ("exact" if info.exact else "heuristic")
        listed = [] if currencies.startswith("—") else [
            c.strip() for c in currencies.split(",")]
        assert listed == list(info.budget_currencies)
        full = frozenset({"heterogeneous", "constraints"})
        expected = {
            frozenset(): "no",
            full: ("members' intersection" if name in _COMPOSITE_PARAMS
                   else "yes"),
        }[info.scenario_flags()]
        assert scenarios == expected


def solver_class_names():
    """Every concrete Solver subclass the package exports — the classes
    only the runtime layer may build."""
    import repro.solvers as solvers
    from repro.solvers.base import Solver

    return {
        name for name in solvers.__all__
        if isinstance(getattr(solvers, name), type)
        and issubclass(getattr(solvers, name), Solver)
    }


class TestSolverConstructionBoundary:
    """Only ``repro.runtime`` and ``repro.solvers`` may instantiate solver
    classes.  Everything else goes through the registry (spec strings via
    ``run_solve``/``create_solver``), so capabilities, tracing and budgets
    stay uniform across surfaces.  AST-based: catches ``OAStar(...)`` and
    ``solvers.OAStar(...)`` alike, without false positives on docs or
    comments."""

    ALLOWED = ("runtime", "solvers")

    def test_no_direct_solver_construction_outside_runtime(self):
        banned = solver_class_names()
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC)
            if rel.parts[0] in self.ALLOWED:
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in banned:
                    offenders.append(f"{rel}:{node.lineno} calls {name}()")
        assert not offenders, (
            "solver classes constructed outside repro.runtime/repro.solvers "
            "(route through repro.runtime.run_solve or create_solver):\n"
            + "\n".join(offenders)
        )


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "path", sorted((REPO / "examples").glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_example_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert "main" in names
        # Docstring present (examples are documentation).
        assert ast.get_docstring(tree)


class TestBenchmarkCoverage:
    def test_one_bench_per_artifact(self):
        bench_dir = REPO / "benchmarks"
        names = {p.name for p in bench_dir.glob("test_*.py")}
        for artifact in ("table1", "table2", "table3", "table4", "fig5",
                         "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                         "fig12", "fig13"):
            assert any(artifact in n for n in names), (
                f"no benchmark covers {artifact}"
            )


class TestEnvVars:
    """Every ``COSCHED_*`` variable the package reads is documented, and
    every one the docs name is still read by the package or the bench."""

    READ = re.compile(r"environ(?:\.get)?[(\[]\s*[\"'](COSCHED_\w+)")
    NAMED = re.compile(r"\bCOSCHED_[A-Z0-9_]+")

    def read_in(self, paths, pattern):
        return {
            name for path in paths
            for name in pattern.findall(path.read_text())
        }

    def test_every_variable_read_is_documented(self):
        read = self.read_in(SRC.rglob("*.py"), self.READ)
        assert "COSCHED_NATIVE" in read
        documented = self.read_in(sorted((REPO / "docs").glob("*.md")),
                                  self.NAMED)
        missing = sorted(read - documented)
        assert not missing, f"read under src/repro, named in no doc: {missing}"

    def test_every_documented_variable_is_read(self):
        used = self.read_in(SRC.rglob("*.py"), self.READ) | self.read_in(
            (REPO / "bench").glob("*.py"),
            re.compile(r"[\"'](COSCHED_\w+)[\"']"))
        stale = sorted(self.read_in(DOC_FILES, self.NAMED) - used)
        assert not stale, f"documented but read nowhere: {stale}"
