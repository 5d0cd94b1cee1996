"""Spans and the runner that times, traces and checks benchmark items.

A span records ``<module>.<function>`` for one call the benchmark makes
into ``sturm``, its start and end, its parent span and the item it
belongs to. Spans stay in memory until the run ends. Probe spans are
extra calls made only in the traced run, outside any item.
"""
from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

from speed import Speedometer, TimerSpeedometer

MODULES = (
    "cli",
    "perm",
    "meander",
    "zeros",
    "attractor",
    "report",
    "render",
    "suspension",
    "enumeration",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: str
    probe: bool
    pass_no: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; ``self_seconds`` subtracts child spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_no = 0

    def open(self, name: str, item: str, probe: bool = False) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, item, probe, self.pass_no))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, sid: int) -> None:
        self.spans[sid].end = perf_counter()
        self._open.pop()

    def self_seconds(self) -> list[float]:
        # Calls are sequential, so children never overlap one another.
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "item": s.item,
                            "probe": s.probe,
                            "pass": s.pass_no,
                        }
                    )
                    + "\n"
                )


class CallFailed(Exception):
    """A call into ``sturm`` raised; the item it belongs to fails."""


@dataclass
class Item:
    """One unit of timed work: ``run(call)`` does it, ``check(out, tally)``
    verifies its output and adds exact counts to ``tally``."""

    key: str
    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any, Counter], bool]


class Runner:
    """Runs items, times them, counts failed checks and raised calls.

    It reads the machine's speed (``speed``), so that ``normalized`` can
    give the untraced times at nominal speed; an item's time excludes
    the readings taken while it ran.
    """

    def __init__(self, traced: bool, speed: Optional[Speedometer] = None) -> None:
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self.speed = speed or TimerSpeedometer()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.kind_times: dict[str, list[float]] = defaultdict(list)
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        # (key, kind, pass, start, seconds) of every untraced item
        self.records: list[tuple[str, str, int, float, float]] = []
        self.errors: Counter = Counter()
        self.tally: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._item = ""
        self._tracing = False
        self._probing = False

    def _open(self, name: str, probe: bool = False) -> Optional[int]:
        return self.tracer.open(name, self._item, probe) if self._tracing else None

    def _close(self, sid: Optional[int]) -> None:
        if sid is not None:
            self.tracer.close(sid)

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        sid = self._open(name, self._probing)
        try:
            return fn(*args)
        except Exception as exc:
            # A raising call fails its item and is counted against its
            # layer; the run itself goes on.
            self.errors[name.split(".")[0]] += 1
            raise CallFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        finally:
            self._close(sid)

    def probe(self, item: str, name: str, fn: Callable, *args: Any) -> Any:
        """A traced extra call outside every item; ``None`` when it raises."""
        self._item, self._tracing, self._probing = item, True, True
        try:
            return self.call(name, fn, *args)
        except CallFailed as exc:
            self.verify(item, False, str(exc))
            return None
        finally:
            self._tracing = self._probing = False

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")

    def verify(self, key: str, ok: bool, why: str = "output check failed") -> None:
        """Count one checked item outside the timed passes."""
        self.attempted += 1
        if not ok:
            self.fail(key, why)

    def run_pass(self, items: list[Item], traced: bool) -> None:
        """Run one pass; a traced one leaves its exact counts in ``tally``.

        Item times and the pass wall time exclude the output checks.
        """
        self._tracing = traced
        if traced:
            self.tracer.pass_no += 1
        tally: Counter = Counter()
        wall = 0.0
        pass_no = len(self.pass_walls[traced])
        for item in items:
            self._item = item.key
            self.speed.sample()
            spent = self.speed.spent
            t0 = perf_counter()
            root = self._open("bench." + item.kind)
            try:
                out, why = item.run(self.call), None
            except CallFailed as exc:
                out, why = None, str(exc)
            finally:
                self._close(root)
            seconds = perf_counter() - t0 - (self.speed.spent - spent)
            wall += seconds
            if not traced:
                self.times[item.key].append(seconds)
                self.kind_times[item.kind].append(seconds)
                self.records.append((item.key, item.kind, pass_no, t0, seconds))
            self.attempted += 1
            if why is None:
                try:
                    if not item.check(out, tally):
                        why = "output check failed"
                except Exception as exc:  # a malformed output fails its item
                    why = f"check raised {type(exc).__name__}: {exc}"
            if why is not None:
                self.fail(item.key, why)
        self._tracing = False
        self.speed.sample(force=True)
        self.pass_walls[traced].append(wall)
        if traced:
            self.tally = tally

    def normalized(self) -> tuple[dict[str, list[float]], dict[str, list[float]], list[float]]:
        """Item times by key and by kind, and untraced pass walls, each
        item's time taken at nominal machine speed."""
        times: dict[str, list[float]] = defaultdict(list)
        kind_times: dict[str, list[float]] = defaultdict(list)
        walls: dict[int, float] = defaultdict(float)
        for key, kind, pass_no, start, seconds in self.records:
            at_nominal = self.speed.normalize(start, seconds)
            times[key].append(at_nominal)
            kind_times[kind].append(at_nominal)
            walls[pass_no] += at_nominal
        return times, kind_times, list(walls.values())


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: int, n: int = 10) -> float:
    """The q-th of n quantiles, as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=n)[q - 1]
