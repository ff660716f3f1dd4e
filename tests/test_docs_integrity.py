"""Documentation integrity: the docs describe the repo that exists."""

import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestReadmeQuickstart:
    def test_quickstart_snippet_executes(self, capsys):
        """The README's first code block must run verbatim."""
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its quickstart snippet"
        exec(compile(blocks[0], "README.md", "exec"), {})
        assert "peak" not in capsys.readouterr().err

    def test_cli_commands_mentioned_exist(self):
        """Every ``python -m repro <subcommand>`` the docs show parses,
        and no doc, CI step or recipe names a module entry point."""
        from repro.cli import build_parser

        commands = []
        for path in [ROOT / "README.md", *sorted(ROOT.glob("docs/*.md"))]:
            commands += [(path.name, cmd) for cmd in doc_commands(
                path.read_text())]
        assert len(commands) > 20
        for name, cmd in commands:
            argv = shlex.split(cmd, comments=True)
            if argv[-1:] == ["&"]:
                argv.pop()
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: `python -m repro {cmd}` does not parse")

        for path in [ROOT / "README.md", *ROOT.glob("docs/*.md"),
                     ROOT / ".github/workflows/ci.yml",
                     ROOT / ".claude/skills/verify/SKILL.md"]:
            stale = re.findall(r"python -m repro\.[a-z_.]+",
                               path.read_text())
            assert not stale, f"{path.name} names {stale}: use `repro`"


def doc_commands(text: str) -> list[str]:
    """The arguments of each ``python -m repro`` command in a markdown
    text: a line of a fenced block (backslash continuations joined), or
    an inline code span (which may wrap)."""
    commands = []
    parts = re.split(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)
    for i, part in enumerate(parts):
        if i % 2:
            for line in part.replace("\\\n", " ").splitlines():
                commands += re.findall(r"python -m repro (.*)", line)
        else:
            commands += [" ".join(span.split()) for span in
                         re.findall(r"`python -m repro ([^`]*)`", part)]
    return commands


class TestDesignInventory:
    def test_every_named_module_imports(self):
        """Each `repro.x.y` dotted path named in DESIGN.md, README.md or
        docs/*.md must exist, and so must each `x.y` whose `x` is a
        repro subpackage (a registered metric name such as
        `sched.rounds` is no module)."""
        from repro.obs.registry import METRICS

        packages = {path.parent.name
                    for path in (ROOT / "src/repro").glob("*/__init__.py")}
        docs = [ROOT / "DESIGN.md", ROOT / "README.md",
                *sorted((ROOT / "docs").glob("*.md"))]
        named = set()
        for doc in docs:
            text = doc.read_text()
            modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
            modules |= {f"repro.{name}" for name in re.findall(
                r"`([a-z_0-9]+(?:\.[a-z_0-9]+)+)`", text)
                if name.split(".")[0] in packages and name not in METRICS}
            named |= {(doc.name, dotted) for dotted in modules}
        assert {doc for doc, _ in named} >= {"DESIGN.md", "README.md"}
        for doc, dotted in sorted(named):
            # The longest importable prefix must hold the rest as
            # attributes: a stale name under a live package fails too.
            parts = dotted.split(".")
            for depth in range(len(parts), 1, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:depth]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                pytest.fail(f"{doc} names missing module {dotted}")
            for attr in parts[depth:]:
                assert hasattr(obj, attr), \
                    f"{doc} names {dotted}: {attr!r} does not resolve"
                obj = getattr(obj, attr)

    def test_every_named_bench_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        benches = re.findall(r"`?(bench_[a-z0-9_]+\.py)`?", text)
        assert benches
        for name in benches:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_experiment_index_covers_every_figure(self):
        text = (ROOT / "DESIGN.md").read_text()
        for fig in ("Fig. 1", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
                    "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14"):
            assert fig in text, f"{fig} missing from DESIGN.md"


def api_call_rows():
    """``(modules, name, argument list)`` for every call-form span
    (`` `name(args)` ``) in the symbol cell of a docs/api.md row.
    ``modules`` are where a bare name is looked up: the modules its
    cell names, then the section's packages (``## Title (`repro.x`)``)."""
    rows, section = [], ["repro"]
    for line in (ROOT / "docs" / "api.md").read_text().splitlines():
        if line.startswith("## "):
            section = re.findall(r"`(repro(?:\.\w+)*)`", line) + ["repro"]
            continue
        if not line.startswith("| `"):
            continue
        cell = line.split(" | ")[0]
        named = [prefix for path in re.findall(r"`(repro(?:\.\w+)+)", cell)
                 for prefix in dotted_prefixes(path)]
        for span in re.findall(r"`([^`]*)`", cell):
            match = re.fullmatch(
                r"((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)\(([^()]*)\)", span)
            if match:
                rows.append((named + section, *match.groups()))
    return rows


def dotted_prefixes(dotted):
    """``a.b.c``, ``a.b``, ``a``: longest first."""
    parts = dotted.split(".")
    return [".".join(parts[:depth]) for depth in range(len(parts), 0, -1)]


def resolve_api_name(dotted, modules):
    """The callable ``dotted`` names - a full ``repro.`` path, or a
    name in one of ``modules`` or in one of their modules - or
    ``None``."""
    import pkgutil

    parts = dotted.split(".")
    if parts[0] == "repro":
        roots = [(prefix, parts[prefix.count(".") + 1:])
                 for prefix in dotted_prefixes(dotted)]
    else:
        roots = []
        for name in modules:
            roots.append((name, parts))
            try:
                path = getattr(importlib.import_module(name), "__path__", [])
            except ModuleNotFoundError:
                continue
            roots += [(f"{name}.{info.name}", parts)
                      for info in pkgutil.iter_modules(path)
                      if not info.ispkg and info.name != "__main__"]
    for module, attrs in roots:
        try:
            obj = importlib.import_module(module)
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ModuleNotFoundError, AttributeError):
            continue
        if callable(obj):
            return obj
    return None


class TestApiReference:
    def test_keyword_rows_name_only_real_parameters(self):
        """A docs/api.md row `name(kw=, ...)` that resolves to a repro
        callable names no keyword its signature lacks (a dropped
        parameter leaves no stale row behind)."""
        import inspect

        resolved = 0
        for modules, name, args in api_call_rows():
            obj = resolve_api_name(name, modules)
            if obj is None:
                continue
            resolved += 1
            params = inspect.signature(obj).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            keywords = re.findall(r"(?:^|,)\s*(\w+)=", args)
            stale = [kw for kw in keywords if kw not in params]
            assert not stale, f"api.md: `{name}(...)` names {stale}"
        assert resolved >= 50, f"only {resolved} api.md rows resolve"


class TestObservabilityDocs:
    def test_observability_example_executes(self, capsys):
        """The first code block of docs/observability.md runs verbatim."""
        doc = (ROOT / "docs" / "observability.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", doc, re.DOTALL)
        assert blocks, "observability.md lost its runnable example"
        exec(compile(blocks[0], "docs/observability.md", "exec"), {})
        out = capsys.readouterr().out
        assert "core.map.records" in out
        assert "trace events" in out

    def parse_reference_rows(self):
        text = (ROOT / "docs" / "metrics-reference.md").read_text()
        rows = {}
        for match in re.finditer(
                r"^\| `([a-z0-9_.]+)` \| (\w+) \| ([\w/]+) \| "
                r"`([a-z0-9_.]+)` \|", text, re.MULTILINE):
            name, kind, unit, module = match.groups()
            rows[name] = (kind, unit, module)
        return rows

    def test_every_registered_metric_is_documented(self):
        from repro.obs.registry import METRICS

        rows = self.parse_reference_rows()
        missing = sorted(set(METRICS) - set(rows))
        assert not missing, (
            f"metrics missing from docs/metrics-reference.md: {missing}")
        for name, spec in METRICS.items():
            assert rows[name] == (spec.kind, spec.unit, spec.module), (
                f"stale row for {name}: doc says {rows[name]}, registry "
                f"says {(spec.kind, spec.unit, spec.module)}")

    def test_no_stale_documented_metrics(self):
        from repro.obs.registry import METRICS

        stale = sorted(set(self.parse_reference_rows()) - set(METRICS))
        assert not stale, (
            f"docs/metrics-reference.md documents unregistered "
            f"metrics: {stale}")

    def test_docs_links_and_anchors_resolve(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "check_docs_links", ROOT / "scripts" / "check_docs_links.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main() == 0, capsys.readouterr().out


class TestStorageDocs:
    def test_storage_example_executes(self, capsys):
        """The first code block of docs/storage.md runs verbatim."""
        doc = (ROOT / "docs" / "storage.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", doc, re.DOTALL)
        assert blocks, "storage.md lost its runnable example"
        exec(compile(blocks[0], "docs/storage.md", "exec"), {})
        out = capsys.readouterr().out
        for backend in ("pfs", "kv", "extsort"):
            assert backend in out, f"backend {backend} missing from output"
        assert "bit-identical across backends: True" in out

    def test_backend_matrix_names_every_backend(self):
        """The operator's guide documents every selectable backend."""
        from repro.storage import BACKENDS, ENV_VAR

        doc = (ROOT / "docs" / "storage.md").read_text()
        for name in BACKENDS:
            assert f"`{name}`" in doc, f"backend {name} undocumented"
        assert ENV_VAR in doc

    def test_knob_defaults_match_code(self):
        """Documented knob defaults track the constants they describe."""
        from repro.storage import KV_SPEEDUP, LOCAL_SPEEDUP

        doc = (ROOT / "docs" / "storage.md").read_text()
        assert f"`{KV_SPEEDUP}`" in doc
        assert f"`{LOCAL_SPEEDUP}`" in doc

    def test_backend_cost_row_matches_code(self):
        """The matrix's cost formulas price one access on ``COMET``
        exactly as ``make_backend(..., platform=COMET)`` does, reads and
        writes, with the quoted 64 KiB write costs."""
        from repro.mpi import COMET
        from repro.storage import make_backend

        class Clock:
            rank, time = 0, 0.0

            def advance(self, seconds):
                self.time += seconds

        doc = (ROOT / "docs" / "storage.md").read_text()
        m, n = COMET.pfs, 64 * 1024

        def pfs(write):     # sharers = 1
            bandwidth = m.bandwidth / (m.write_penalty if write else 1)
            return m.latency + n * m.io_ratio / bandwidth

        rows = [
            ("`latency + bytes * io_ratio * sharers / bandwidth`",
             "pfs", "out/f", pfs, "0.672 s"),
            ("`latency/8 + bytes / (8 * bandwidth)`", "kv", "out/f",
             lambda write: m.latency / 8 + n / (8 * m.bandwidth),
             "0.0071 s"),
            ("shared paths as `pfs` with `sharers = 1`", "extsort",
             "out/f", pfs, "0.672 s"),
            ("`latency/4 + bytes * io_ratio / (4 * bandwidth)`", "extsort",
             "spill/f",
             lambda write: m.latency / 4 + n * m.io_ratio / (4 * m.bandwidth),
             "0.0142 s"),
        ]
        for formula, spec, path, cost, quoted in rows:
            assert formula in doc and quoted in doc, formula
            backend = make_backend(spec, platform=COMET)
            for write in (True, False):
                clock = Clock()
                if write:
                    backend.write(clock, path, bytes(n))
                else:
                    backend.read(clock, path)
                assert clock.time == pytest.approx(cost(write)), \
                    (spec, path, write)
            assert float(quoted.split()[0]) == \
                pytest.approx(cost(True), rel=5e-3)


class TestStreamingDocs:
    def test_streaming_example_executes(self, capsys):
        """The first code block of docs/streaming.md runs verbatim."""
        doc = (ROOT / "docs" / "streaming.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", doc, re.DOTALL)
        assert blocks, "streaming.md lost its runnable example"
        exec(compile(blocks[0], "docs/streaming.md", "exec"), {})
        out = capsys.readouterr().out
        assert "windows closed: 3" in out
        assert "warm pass executed fewer stages: True" in out
        assert "bit-identical: True" in out

    def test_demo_scenarios_named_in_doc_exist(self):
        from repro.stream.demo import DEMOS

        doc = (ROOT / "docs" / "streaming.md").read_text()
        for name in DEMOS:
            assert f"`{name}`" in doc, f"scenario {name} undocumented"


class TestExperimentsDoc:
    def test_every_figure_has_a_section(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in ("Figure 1", "Figure 7", "Figure 8", "Figure 9",
                        "Figure 10", "Figures 11/12", "Figure 13",
                        "Figure 14", "Ablations"):
            assert heading in text, heading

    def test_bench_files_cover_every_figure(self):
        names = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for fig in ("fig01", "fig07", "fig08", "fig09", "fig10", "fig11",
                    "fig12", "fig13", "fig14"):
            assert any(fig in name for name in names), fig
