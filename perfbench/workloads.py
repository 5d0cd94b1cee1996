"""The benchmark workloads: their inputs, items, checks and probes.

Each workload is one sequential caller in a closed loop: it waits for
every result before it starts the next call. Building a workload object
is its set-up (inputs generated from the seed, reference digests
loaded); ``items`` gives one timed pass; ``probes`` makes the traced
run's extra calls; ``layer_metrics`` turns spans into per-layer numbers.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from composites import Spec, blocks, composite, describe
from speed import MIX_NOMINAL_S, Speedometer, TimerSpeedometer, mixed_reference
from tracing import Item, median, quantile

from sturm import (
    SturmPermutation,
    analyze_record,
    build_model,
    connection_graph,
    dot_graph,
    enumerate_sturm,
    format_permutation,
    is_sturm,
    minimax_report,
    parse_permutation,
    property_harness,
    render_svg,
    suspend,
    to_json,
    verify_suspension,
    z_matrix,
    z_pair_nsl,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

# The fixtures of the package's own acceptance suite.
PERM7 = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
PERM15 = SturmPermutation((1, 14, 13, 6, 5, 4, 7, 12, 11, 8, 9, 10, 3, 2, 15))
WINDOW_ORDER = "12 11 4 3 2 5 10 9 6 7 8 1"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Pins:
    """SHA-256 digests of outputs, keyed by kind and input.

    With ``record`` set, ``matches`` stores the digest instead of
    comparing it; ``record.py`` fills ``digests.json`` that way.
    """

    def __init__(self, record: bool = False) -> None:
        self.record = record
        self.table: dict[str, str] = {} if record else json.loads(DIGESTS.read_text())

    def matches(self, kind: str, key: str, output: str) -> bool:
        slot = digest(f"{kind}\n{key}")[:16]
        if self.record:
            self.table[slot] = digest(output)
            return True
        return self.table.get(slot) == digest(output)


def analyze_pipeline(call, text: str):
    """The in-process CLI ``analyze`` path; returns the JSON and the model."""
    p = call("perm.parse_permutation", parse_permutation, text)
    model = call("attractor.build_model", build_model, p)
    record = call("report.analyze_record", analyze_record, model)
    return call("report.to_json", to_json, record), model


def dot_pipeline(call, text: str):
    """The CLI ``render --format dot`` path, plus ``connection_graph``."""
    p = call("perm.parse_permutation", parse_permutation, text)
    model = call("attractor.build_model", build_model, p)
    dot = call("report.dot_graph", dot_graph, model)
    return dot, model, call("attractor.connection_graph", connection_graph, model)


def graph_matches(model, graph) -> bool:
    return list(graph.nodes(data="morse")) == list(enumerate(model.morse, start=1)) and list(
        graph.edges
    ) == sorted(model.connections)


def suspension_chain(sizes) -> dict[int, SturmPermutation]:
    """Members of the suspension chain of the 7-crossing fixture."""
    out, p = {}, PERM7
    while p.n < max(sizes):
        p = suspend(p).suspended
        if p.n in sizes:
            out[p.n] = p
    return out


def count_model(tally: Counter, model) -> None:
    tally["attractor.connections"] += len(model.connections)
    tally["attractor.unstable"] += sum(1 for _ in model.unstable())


def _ms(seconds: float) -> float:
    return seconds * 1e3


class Workload:
    name = ""
    key_kind = ""  # item kind, or ``kind:item`` key, behind ``key_op_ms``

    def __init__(self, seed: int, smoke: bool, pins: Pins) -> None:
        self.seed, self.smoke, self.pins = seed, smoke, pins
        self.rng = random.Random(seed)
        self.perms: dict[str, SturmPermutation] = {}
        self.edges: dict[str, int] = {}
        self.levels = 0  # signed levels the minimax probes covered

    def key_times(self, times, kind_times) -> list[float]:
        """The key operation's samples among item times by key and by kind."""
        if ":" in self.key_kind:
            return times[self.key_kind]
        return kind_times[self.key_kind]

    def speedometer(self) -> Speedometer:
        """Reads the machine's speed for this workload's kind of work."""
        return TimerSpeedometer(mixed_reference(), MIX_NOMINAL_S)

    def startup_checks(self, runner) -> None:
        """Checks on the generated inputs themselves, made once per run."""

    def probes(self, runner) -> None:
        """Traced extra calls on the same inputs, outside every item."""

    def layer_metrics(self, spans, runner) -> dict[str, float]:
        return {}

    def table_metrics(self, runner) -> dict[str, tuple[float, str, int]]:
        """Headline metrics for the printed table: name -> (value, unit, samples)."""
        return {}

    def inputs(self) -> dict[str, dict]:
        """Properties of the seeded composites the timings depend on."""
        return {
            name: describe(p, self.edges.get(name, 0))
            for name, p in self.perms.items()
            if name.startswith("c")
        }


def spans_named(spans, name: str, item: str | None = None, probe: bool = False):
    return [
        s.seconds
        for s in spans
        if s.name == name and s.probe == probe and (item is None or s.item == item)
    ]


def probe_minimax(runner, item: str, model) -> int:
    """Probe ``minimax_report`` at every unstable equilibrium of ``model``;
    returns the number of signed levels (twice the Morse number) probed."""
    levels = 0
    for j in model.unstable():
        runner.probe(item, "attractor.minimax_report", minimax_report, model, j)
        levels += 2 * model.morse[j - 1]
    return levels


def analyze_layers(spans, item: str | None, levels: int) -> dict[str, float]:
    """Layers of the analyze pipeline on ``item`` (every item when ``None``),
    and the minimax probes."""
    minimax = spans_named(spans, "attractor.minimax_report", probe=True)
    return {
        "attractor.build_model_ms": _ms(median(spans_named(spans, "attractor.build_model", item))),
        "attractor.minimax_report_ms_p50": _ms(median(minimax)),
        "attractor.minimax_report_ms_max": _ms(max(minimax, default=0.0)),
        "attractor.minimax_us_per_level": sum(minimax) * 1e6 / max(1, levels),
        "report.analyze_record_ms": _ms(median(spans_named(spans, "report.analyze_record", item))),
        "report.to_json_ms": _ms(median(spans_named(spans, "report.to_json", item))),
    }


# --------------------------------------------------------------------------
# cli_cold


CLI_COMMANDS = (
    ("validate", ["validate", str(PERM7)]),
    ("analyze", ["analyze", str(PERM15)]),
    ("minimax", ["minimax", "--eq", "3", str(PERM15)]),
    ("suspend", ["suspend", "--times", "2", str(PERM7)]),
    ("window", ["window", "--anchor-morse", "2", "--order", WINDOW_ORDER]),
    ("enumerate", ["enumerate", "--n", "11", "--count-only"]),
    ("render_svg", ["render", "--format", "svg", str(PERM15)]),
    ("render_dot", ["render", "--format", "dot", str(PERM15)]),
)

PY_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """A fresh interpreter with the checkout's ``src`` on its path."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=PY_ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def interpreter_start() -> float:
    """Seconds a bare interpreter takes to start and exit."""
    t0 = perf_counter()
    python("-c", "pass")
    return perf_counter() - t0


# Nominal time of ``interpreter_start``, about what it takes on a 2-vCPU
# Xeon guest under CPython 3.11.
INTERPRETER_NOMINAL_S = 0.05


class CliCold(Workload):
    name = "cli_cold"
    key_kind = "cli"

    def __init__(self, seed: int, smoke: bool, pins: Pins) -> None:
        super().__init__(seed, smoke, pins)
        self.importtime: list[dict[str, float]] = []

    def speedometer(self) -> Speedometer:
        # Cold processes spend their time in exec, page faults and
        # imports; an in-process loop tracks their slow-downs poorly.
        return Speedometer(interpreter_start, INTERPRETER_NOMINAL_S)

    def items(self) -> list[Item]:
        order = list(CLI_COMMANDS)
        self.rng.shuffle(order)
        return [self._item(sub, argv) for sub, argv in order]

    def _item(self, sub: str, argv: list[str]) -> Item:
        def run(call):
            return call(f"cli.{sub}", python, "-m", "sturm", *argv)

        def check(proc, tally):
            text = f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
            return proc.returncode == 0 and self.pins.matches("cli", " ".join(argv), text)

        return Item(f"cli:{sub}", "cli", run, check)

    def probes(self, runner) -> None:
        for _ in range(3 if self.smoke else 5):
            runner.probe("interp", "cli.interp", python, "-c", "pass")
            runner.probe("import", "cli.import", python, "-c", "import sturm")
            proc = runner.probe(
                "importtime", "cli.importtime", python, "-X", "importtime", "-c", "import sturm"
            )
            if proc is not None:
                self.importtime.append(_cumulative_import_us(proc.stderr))

    def layer_metrics(self, spans, runner) -> dict[str, float]:
        interp = median(spans_named(spans, "cli.interp", probe=True))
        out = {
            "cli.interp_ms": _ms(interp),
            "cli.import_ms": _ms(median(spans_named(spans, "cli.import", probe=True)) - interp),
        }
        for mod in ("numpy", "networkx"):
            out[f"cli.import_{mod}_ms"] = median([t.get(mod, 0.0) for t in self.importtime]) / 1e3
        for sub, _ in CLI_COMMANDS:
            out[f"cli.{sub}_ms"] = _ms(median(spans_named(spans, f"cli.{sub}")))
        return out

    def table_metrics(self, runner):
        times = runner.kind_times["cli"]
        return {"cli_ms_p50": (_ms(median(times)), "ms", len(times))}


def _cumulative_import_us(stderr: str) -> dict[str, float]:
    # Lines read "import time: self [us] | cumulative | imported package".
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name in ("numpy", "networkx"):
                out[name] = float(parts[1])
    return out


# --------------------------------------------------------------------------
# analyze_ladder


LADDER_SPECS = (
    Spec("c101d", 101, "deep", 22),
    Spec("c101s", 101, "shallow", 3),
)
LADDER_SMOKE_SPECS = (
    Spec("c31d", 31, "deep", 6),
    Spec("c31s", 31, "shallow", 2),
)


class AnalyzeLadder(Workload):
    name = "analyze_ladder"

    def __init__(self, seed: int, smoke: bool, pins: Pins) -> None:
        super().__init__(seed, smoke, pins)
        self.sizes = (15, 31) if smoke else (15, 31, 61, 101)
        chain = suspension_chain(self.sizes)
        specs = LADDER_SMOKE_SPECS if smoke else LADDER_SPECS
        pool = blocks()
        self.perms = {f"n{n}": chain[n] for n in self.sizes}
        self.perms.update({s.name: composite(s, seed, pool) for s in specs})
        self.texts = {name: format_permutation(p) for name, p in self.perms.items()}
        self.verify_name = f"n{self.sizes[-2]}"
        self.routes_name = specs[0].name
        self.key_kind = f"analyze:n{self.sizes[-1]}"

    def items(self) -> list[Item]:
        items = [self._analyze(name) for name in self.perms]
        items += [self._svg(name) for name in self.perms]
        items += [self._dot(name) for name in self.perms if name.startswith("c")]
        items.append(self._suspend_chain())
        items.append(self._verify(self.verify_name))
        # The key operation once more, mid-pass: twice the samples of it
        # per run, a few seconds apart.
        items.append(self._analyze(f"n{self.sizes[-1]}"))
        items.append(self._routes(self.routes_name))
        return items

    def _analyze(self, name: str) -> Item:
        text = self.texts[name]

        def check(out, tally):
            doc, model = out
            count_model(tally, model)
            tally["report.json_bytes"] += len(doc)
            self.edges[name] = len(model.connections)
            return self.pins.matches("analyze", text, doc)

        return Item(f"analyze:{name}", "analyze", lambda call: analyze_pipeline(call, text), check)

    def _svg(self, name: str) -> Item:
        p, text = self.perms[name], self.texts[name]
        return Item(
            f"svg:{name}",
            "svg",
            lambda call: call("render.render_svg", render_svg, p),
            lambda svg, tally: self.pins.matches("svg", text, svg),
        )

    def _dot(self, name: str) -> Item:
        text = self.texts[name]

        def check(out, tally):
            dot, model, graph = out
            return self.pins.matches("dot", text, dot) and graph_matches(model, graph)

        return Item(f"dot:{name}", "dot", lambda call: dot_pipeline(call, text), check)

    def _suspend_chain(self) -> Item:
        top = self.perms[f"n{self.sizes[-1]}"]

        def run(call):
            p = PERM7
            while p.n < top.n:
                p = call("suspension.suspend", suspend, p).suspended
            return p

        return Item("suspend:chain", "suspend", run, lambda p, tally: p == top)

    def _verify(self, name: str) -> Item:
        p = self.perms[name]
        return Item(
            f"verify_suspension:{name}",
            "verify_suspension",
            lambda call: call("suspension.verify_suspension", verify_suspension, p),
            lambda report, tally: report.passed and len(report.items) == 7,
        )

    def _routes(self, name: str) -> Item:
        p = self.perms[name]
        n = p.n

        def run(call):
            zm = call("zeros.z_matrix", z_matrix, p)
            pairs = [
                (j, k, call("zeros.z_pair_nsl", z_pair_nsl, p, j, k))
                for j in range(1, n + 1)
                for k in range(j + 1, n + 1)
            ]
            return zm, pairs

        def check(out, tally):
            zm, pairs = out
            tally["zeros.pairs"] += len(pairs)
            return len(pairs) == n * (n - 1) // 2 and all(zm.pair(j, k) == z for j, k, z in pairs)

        return Item(f"z_routes:{name}", "z_routes", run, check)

    def probes(self, runner) -> None:
        top = f"n{self.sizes[-1]}"
        p = self.perms[top]
        for _ in range(20):
            runner.probe(top, "meander.is_sturm", is_sturm, p)
        for name in self.perms:
            if name.startswith("n"):
                for _ in range(3):
                    runner.probe(name, "zeros.z_matrix", z_matrix, self.perms[name])
        self.levels = probe_minimax(runner, top, build_model(p))

    def layer_metrics(self, spans, runner) -> dict[str, float]:
        top = f"n{self.sizes[-1]}"
        dot_key = f"dot:{self.routes_name}"
        pair_s = sum(spans_named(spans, "zeros.z_pair_nsl")) / max(1, runner.tracer.pass_no)
        is_sturm_s = median(spans_named(spans, "meander.is_sturm", top, True))
        out = analyze_layers(spans, self.key_kind, self.levels)
        out |= {
            "meander.is_sturm_us_n101": is_sturm_s * 1e6,
            "zeros.z_pair_nsl_pairs_per_s": runner.tally["zeros.pairs"] / pair_s if pair_s else 0.0,
            "suspension.suspend_us": median(spans_named(spans, "suspension.suspend")) * 1e6,
            "suspension.verify_suspension_ms": _ms(
                median(spans_named(spans, "suspension.verify_suspension"))
            ),
            "attractor.connection_graph_ms": _ms(
                median(spans_named(spans, "attractor.connection_graph", dot_key))
            ),
            "report.dot_graph_ms": _ms(median(spans_named(spans, "report.dot_graph", dot_key))),
        }
        for name, p in self.perms.items():
            if name.startswith("n"):
                out[f"zeros.z_matrix_ms_n{p.n}"] = _ms(
                    median(spans_named(spans, "zeros.z_matrix", name, True))
                )
        return out

    def table_metrics(self, runner):
        top = runner.times[self.key_kind]
        comp = runner.times[f"analyze:{self.routes_name}"]
        return {
            "analyze_ms_n101": (_ms(median(top)), "ms", len(top)),
            "analyze_ms_c101": (_ms(median(comp)), "ms", len(comp)),
        }


# --------------------------------------------------------------------------
# survey

# Pinned sizes of the Sturm families.
FAMILY_COUNTS = {9: 32, 11: 175, 13: 1083, 15: 7342}


class Survey(Workload):
    name = "survey"
    key_kind = "family"

    def __init__(self, seed: int, smoke: bool, pins: Pins) -> None:
        super().__init__(seed, smoke, pins)
        self.enum_n, self.family_n, self.harness_n = (11, 9, 5) if smoke else (15, 13, 9)
        family = enumerate_sturm(self.family_n, bound=self.family_n)
        self.family = [format_permutation(p) for p in family]

    def startup_checks(self, runner) -> None:
        n = self.family_n
        runner.verify(f"family:n{n}", len(self.family) == FAMILY_COUNTS[n], "family count")

    def items(self) -> list[Item]:
        order = list(range(len(self.family)))
        self.rng.shuffle(order)
        return [self._enumerate()] + [self._member(i) for i in order] + [self._harness()]

    def _enumerate(self) -> Item:
        n = self.enum_n

        def run(call):
            return call(
                "enumeration.enumerate_sturm",
                lambda: [p.map for p in enumerate_sturm(n, engine="backtrack", bound=n)],
            )

        def check(maps, tally):
            tally["enumeration.perms"] += len(maps)
            text = "\n".join(" ".join(map(str, m)) for m in maps)
            return len(maps) == FAMILY_COUNTS[n] and self.pins.matches("enumerate", str(n), text)

        return Item(f"enumerate:n{n}", "enumerate", run, check)

    def _member(self, i: int) -> Item:
        text = self.family[i]

        def check(out, tally):
            doc, model = out
            count_model(tally, model)
            tally["report.json_bytes"] += len(doc)
            return self.pins.matches("analyze", text, doc)

        return Item(f"family:{i}", "family", lambda call: analyze_pipeline(call, text), check)

    def _harness(self) -> Item:
        n = self.harness_n

        def check(report, tally):
            checks = sum(r.checked for r in report.properties.values())
            tally["enumeration.harness_checks"] += checks
            summary = f"passed {report.passed} permutations {report.permutations} checks {checks}"
            return report.passed and self.pins.matches("harness", str(n), summary)

        return Item(
            f"harness:n{n}",
            "harness",
            lambda call: call("enumeration.property_harness", property_harness, n),
            check,
        )

    def probes(self, runner) -> None:
        self.levels = 0
        for i, text in enumerate(self.family):
            p = parse_permutation(text)
            runner.probe(f"family:{i}", "meander.is_sturm", is_sturm, p)
            runner.probe(f"family:{i}", "zeros.z_matrix", z_matrix, p)
            if i % 8 == 0:
                self.levels += probe_minimax(runner, f"family:{i}", build_model(p))

    def layer_metrics(self, spans, runner) -> dict[str, float]:
        n = self.family_n
        passes = max(1, runner.tracer.pass_no)
        is_sturm_s = median(spans_named(spans, "meander.is_sturm", probe=True))
        return analyze_layers(spans, None, self.levels) | {
            f"meander.is_sturm_us_n{n}": is_sturm_s * 1e6,
            f"zeros.z_matrix_ms_n{n}": _ms(median(spans_named(spans, "zeros.z_matrix", probe=True))),
            f"enumeration.backtrack_s_n{self.enum_n}": sum(
                spans_named(spans, "enumeration.enumerate_sturm")
            ) / passes,
            "enumeration.property_harness_s": sum(
                spans_named(spans, "enumeration.property_harness")
            ) / passes,
        }

    def table_metrics(self, runner):
        fam = runner.kind_times["family"]
        enum = runner.kind_times["enumerate"]
        harness = runner.kind_times["harness"]
        per_pass = len(self.family)
        walls = [sum(fam[i : i + per_pass]) for i in range(0, len(fam), per_pass)]
        enum_s = median(enum)
        return {
            "family_items_per_s": (per_pass / median(walls) if walls else 0.0, "1/s", len(walls)),
            "family_ms_p50": (_ms(median(fam)), "ms", len(fam)),
            "family_ms_p90": (_ms(quantile(fam, 9)), "ms", len(fam)),
            "enumerate_perms_per_s": (
                FAMILY_COUNTS[self.enum_n] / enum_s if enum_s else 0.0,
                "1/s",
                len(enum),
            ),
            "harness_s": (median(harness), "s", len(harness)),
        }


WORKLOADS = {w.name: w for w in (CliCold, AnalyzeLadder, Survey)}
