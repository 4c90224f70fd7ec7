"""Performance attribution: span call-trees, flamegraphs, run diffs.

The missing answer after PRs 1/2/6 was *where the time went*: spans
record durations, the registry records runs, the stream shows progress
— but "which span got slower between run A and run B, and by how much
of the total" required manual spelunking. This module closes the loop
(the host-side analogue of ``FpgaPipeline.stage_breakdown()``, whose
per-stage cycles sum exactly to ``total_cycles``):

:func:`build_profile_tree`
    Folds a tracer's span events into an aggregated call-tree keyed by
    span *path* (``mc.point → mc.frame → sd.detect``), with call
    counts, **total time** (span wall) and **self time** (total minus
    the time covered by child spans). Self-times sum to the
    span-covered wall time by construction, so a ranked self-time
    table is an exact attribution, not a correlation.
:class:`SpanProfiler`
    Scopes :mod:`cProfile` capture to tracer spans via the tracer's
    span hooks: at any instant exactly one per-span-name profile is
    enabled (the innermost open span's), so function-level hotspots —
    GEMM time vs pool bookkeeping vs heap ops — are attributed to the
    span they actually ran under.
:func:`collapsed_stack_lines` / :func:`speedscope_document`
    Flamegraph exports: the classic Brendan-Gregg collapsed-stack text
    (``a;b;c <usec>``, one line per tree node with self time) and a
    speedscope JSON document (https://www.speedscope.app) built from
    the same self-time weights.
:func:`diff_profiles`
    Run-to-run attribution: a ranked table of per-span Δself-time
    (absolute and as a share of the base run's wall time), so a perf
    regression names its culprit span instead of just a number.
:func:`load_profile`
    Loads a recorded run's tree — from ``profile.json`` when the run
    recorded one, else rebuilt from its Chrome ``trace.json``.

Tree-building semantics
-----------------------
Spans are grouped per ``(pid, tid)`` lane and nested by interval
containment: a span is a child of the innermost span that fully
contains it. A span that *overlaps* an open span without being
contained (hand-built traces; cross-thread absorb artifacts) is
treated as a sibling at the closest enclosing scope rather than a
child, so totals never double-count. Nodes aggregate by path — two
``sd.detect`` calls under the same ``mc.frame`` become one node with
``count == 2`` — and recursive spans (a name nested under itself)
stay distinct per depth in the tree while :func:`self_by_name` sums
their self-times exactly once.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs.tracer import PHASE_SPAN, TraceEvent, Tracer

#: On-disk ``profile.json`` schema version.
PROFILE_SCHEMA = 1

#: Containment slack (seconds) when nesting spans: a child may end up
#: to this much after its parent (clock rounding in JSONL round trips).
_EPS = 1e-9

#: Path separator in collapsed-stack lines and flattened tables.
PATH_SEP = ";"


@dataclass
class ProfileNode:
    """One aggregated call-tree node (a span name at one tree path)."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    children: dict[str, "ProfileNode"] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ProfileNode":
        node = cls(
            name=str(doc["name"]),
            count=int(doc.get("count", 0)),
            total_s=float(doc.get("total_s", 0.0)),
            self_s=float(doc.get("self_s", 0.0)),
        )
        for child in doc.get("children", []):
            parsed = cls.from_dict(child)
            node.children[parsed.name] = parsed
        return node


@dataclass
class ProfileTree:
    """An aggregated span call-tree plus optional function hotspots.

    ``roots`` maps top-level span names to nodes; ``wall_s`` is the
    span-covered wall time (the sum of root totals — the denominator
    of every percentage this module prints). ``functions`` carries the
    per-span function tables a :class:`SpanProfiler` captured:
    ``{span name: [{function, calls, tottime_s, cumtime_s}, ...]}``.
    """

    roots: dict[str, ProfileNode] = field(default_factory=dict)
    wall_s: float = 0.0
    functions: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    def walk(self) -> Iterator[tuple[tuple[str, ...], ProfileNode]]:
        """Yield ``(path, node)`` pairs, depth-first, parents first."""

        def _walk(node: ProfileNode, path: tuple[str, ...]):
            yield path, node
            for child in node.children.values():
                yield from _walk(child, path + (child.name,))

        for root in self.roots.values():
            yield from _walk(root, (root.name,))

    @property
    def self_total_s(self) -> float:
        """Sum of every node's self time (== ``wall_s`` up to clamping)."""
        return sum(node.self_s for _path, node in self.walk())

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "wall_s": self.wall_s,
            "tree": [r.to_dict() for r in self.roots.values()],
            "functions": self.functions,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ProfileTree":
        tree = cls(wall_s=float(doc.get("wall_s", 0.0)))
        for row in doc.get("tree", []):
            node = ProfileNode.from_dict(row)
            tree.roots[node.name] = node
        tree.functions = {
            str(name): [dict(fn) for fn in rows]
            for name, rows in (doc.get("functions") or {}).items()
        }
        return tree


def _label(value: Any) -> str:
    """A compact arg-value label (floats lose their trailing ``.0``)."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def build_profile_tree(
    events: Iterable[TraceEvent], *, label_args: tuple[str, ...] = ()
) -> ProfileTree:
    """Fold span events into one aggregated self/total-time call-tree.

    See the module docstring for the nesting semantics. Non-span
    events are ignored, so the whole ``tracer.events`` list (or a
    replayed JSONL / Chrome trace) can be passed directly.

    ``label_args`` splits the aggregation by span argument: a span
    carrying any of the named args gets the value folded into its node
    name (``mc.point[snr_db=8]``), so per-SNR / per-level breakdowns
    fall out of the same tree — ``bfs.level[level=3]`` nodes stay
    distinct instead of merging, and descendants aggregate under the
    labelled subtree they actually ran in.
    """
    lanes: dict[tuple[int, int], list[TraceEvent]] = {}
    for event in events:
        if event.phase == PHASE_SPAN and event.dur >= 0.0:
            lanes.setdefault((event.pid, event.tid), []).append(event)

    def _node_name(event: TraceEvent) -> str:
        if not label_args or not event.args:
            return event.name
        parts = [
            f"{key}={_label(event.args[key])}"
            for key in label_args
            if key in event.args
        ]
        if not parts:
            return event.name
        return f"{event.name}[{','.join(parts)}]"
    virtual_root = ProfileNode(name="")
    for lane in lanes.values():
        # Parents first: earlier start, and for equal starts the longer
        # (enclosing) span. Span events are recorded at *exit*, so the
        # raw buffer order is children-first — the sort undoes that.
        lane.sort(key=lambda e: (e.ts, -(e.ts + e.dur)))
        stack: list[tuple[float, ProfileNode]] = []
        for event in lane:
            end = event.ts + event.dur
            while stack and (
                event.ts >= stack[-1][0] - _EPS  # starts after top ended
                or end > stack[-1][0] + _EPS  # overlaps, not contained
            ):
                stack.pop()
            parent = stack[-1][1] if stack else virtual_root
            name = _node_name(event)
            node = parent.children.get(name)
            if node is None:
                node = ProfileNode(name=name)
                parent.children[name] = node
            node.count += 1
            node.total_s += event.dur
            stack.append((end, node))

    def _finalize(node: ProfileNode) -> None:
        covered = 0.0
        for child in node.children.values():
            _finalize(child)
            covered += child.total_s
        node.self_s = max(node.total_s - covered, 0.0)

    for root in virtual_root.children.values():
        _finalize(root)
    tree = ProfileTree(roots=virtual_root.children)
    tree.wall_s = sum(r.total_s for r in tree.roots.values())
    return tree


def self_by_name(tree: ProfileTree) -> dict[str, dict[str, float]]:
    """Per-span-name aggregation across all tree paths.

    Self-times add exactly (every node's self time is counted once);
    ``total_s`` sums all occurrences, so a recursive span's total can
    exceed its wall share — rank and diff on ``self_s``.
    """
    flat: dict[str, dict[str, float]] = {}
    for _path, node in tree.walk():
        row = flat.setdefault(
            node.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += node.count
        row["total_s"] += node.total_s
        row["self_s"] += node.self_s
    return flat


# ---------------------------------------------------------------------------
# Flamegraph exports
# ---------------------------------------------------------------------------


def collapsed_stack_lines(tree: ProfileTree) -> list[str]:
    """Brendan-Gregg collapsed-stack lines, one per node with self time.

    ``root;child;leaf <microseconds>`` — the input format of
    ``flamegraph.pl`` and of speedscope's "import". Nodes whose self
    time rounds below one microsecond are omitted (zero-weight rows are
    meaningless to every consumer).
    """
    lines = []
    for path, node in tree.walk():
        usec = round(node.self_s * 1e6)
        if usec >= 1:
            lines.append(f"{PATH_SEP.join(path)} {usec}")
    return lines


def parse_collapsed(lines: Iterable[str]) -> dict[str, int]:
    """Parse collapsed-stack lines back to ``{path: microseconds}``.

    The round-trip half used by the tests; raises :class:`ValueError`
    on a malformed line.
    """
    out: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        stack, _sep, value = line.rpartition(" ")
        if not stack or not value.lstrip("-").isdigit():
            raise ValueError(f"malformed collapsed-stack line {lineno}: {line!r}")
        out[stack] = out.get(stack, 0) + int(value)
    return out


def write_collapsed(tree: ProfileTree, path: str | Path) -> Path:
    """Write the collapsed-stack flamegraph input to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = collapsed_stack_lines(tree)
    path.write_text("\n".join(lines) + "\n" if lines else "")
    return path


#: The JSON schema URL stamped into every speedscope export.
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def speedscope_document(tree: ProfileTree, *, name: str = "repro-sd") -> dict:
    """The tree as a speedscope *sampled* profile document.

    Each tree node with self time becomes one weighted sample whose
    stack is the node's path; weights are microseconds of self time,
    so the rendered flame widths are the exact attribution (not clock
    samples). Loads directly at https://www.speedscope.app.
    """
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[float] = []
    for path, node in tree.walk():
        usec = node.self_s * 1e6
        if usec <= 0.0:
            continue
        stack = []
        for frame_name in path:
            idx = frame_index.get(frame_name)
            if idx is None:
                idx = frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            stack.append(idx)
        samples.append(stack)
        weights.append(usec)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.obs.profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "microseconds",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def write_speedscope(
    tree: ProfileTree, path: str | Path, *, name: str = "repro-sd"
) -> Path:
    """Serialise :func:`speedscope_document` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(speedscope_document(tree, name=name)))
    return path


# ---------------------------------------------------------------------------
# Span-scoped cProfile capture
# ---------------------------------------------------------------------------


class SpanProfiler:
    """Attributes cProfile function stats to the innermost open span.

    Attach to a tracer's span hooks (:meth:`attach`); on every span
    enter the currently-enabled profile (if any) is suspended and the
    entered span *name*'s accumulating profile enabled, and on exit the
    parent's resumed — so at any instant exactly one profile runs and
    each function call lands in the profile of the span it executed
    under. CPython allows a single active profiler, which is exactly
    what the switch discipline guarantees.

    This is a *profiling-mode* tool: the per-span enable/disable costs
    real time, so it lives behind ``repro-sd profile run``, never on the
    default telemetry path.
    """

    def __init__(self) -> None:
        self.profiles: dict[str, cProfile.Profile] = {}
        self._stack: list[cProfile.Profile] = []

    # -- tracer hooks ---------------------------------------------------

    def _enter(self, name: str) -> None:
        if self._stack:
            self._stack[-1].disable()
        profile = self.profiles.get(name)
        if profile is None:
            profile = self.profiles[name] = cProfile.Profile()
        self._stack.append(profile)
        profile.enable()

    def _exit(self, name: str) -> None:
        if not self._stack:  # pragma: no cover - unbalanced hooks
            return
        self._stack.pop().disable()
        if self._stack:
            self._stack[-1].enable()

    def attach(self, tracer: Tracer) -> "_ProfilerAttachment":
        """Context manager installing this profiler on ``tracer``'s
        span hooks (restores the previous hooks on exit)."""
        return _ProfilerAttachment(self, tracer)

    # -- results --------------------------------------------------------

    def function_tables(self, *, top: int = 15) -> dict[str, list[dict]]:
        """Per-span top functions by internal time.

        Rows carry ``function`` (``file:line(name)``, bare name for
        builtins), ``calls``, ``tottime_s`` and ``cumtime_s`` — the
        JSON-friendly cut of ``pstats`` that lands in ``profile.json``.
        """
        tables: dict[str, list[dict]] = {}
        for span, profile in self.profiles.items():
            try:
                stats = pstats.Stats(profile)
            except (TypeError, ValueError):  # never enabled
                continue
            rows = []
            for (filename, line, fn), (
                _cc,
                ncalls,
                tottime,
                cumtime,
                _callers,
            ) in stats.stats.items():  # type: ignore[attr-defined]
                label = (
                    fn
                    if filename == "~"
                    else f"{Path(filename).name}:{line}({fn})"
                )
                rows.append(
                    {
                        "function": label,
                        "calls": ncalls,
                        "tottime_s": tottime,
                        "cumtime_s": cumtime,
                    }
                )
            rows.sort(key=lambda r: r["tottime_s"], reverse=True)
            tables[span] = rows[:top]
        return tables

    def combined_stats(self) -> pstats.Stats:
        """All per-span profiles merged into one :class:`pstats.Stats`.

        The whole-run view, loadable with ``pstats`` or ``snakeviz``;
        code that ran outside any span is not covered (by construction
        nothing was being profiled there).
        """
        profiles = [p for p in self.profiles.values() if p.getstats()]
        if not profiles:
            empty = cProfile.Profile()
            empty.enable()
            empty.disable()
            return pstats.Stats(empty)
        stats = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            stats.add(profile)
        return stats


class _ProfilerAttachment:
    """RAII installer for :meth:`SpanProfiler.attach`."""

    def __init__(self, profiler: SpanProfiler, tracer: Tracer) -> None:
        self._profiler = profiler
        self._tracer = tracer
        self._previous: tuple[Any, Any] | None = None

    def __enter__(self) -> SpanProfiler:
        tracer = self._tracer
        self._previous = (tracer.on_span_enter, tracer.on_span_exit)
        tracer.on_span_enter = self._profiler._enter
        tracer.on_span_exit = self._profiler._exit
        return self._profiler

    def __exit__(self, *exc: object) -> None:
        assert self._previous is not None
        self._tracer.on_span_enter, self._tracer.on_span_exit = self._previous
        # Unwind anything left enabled by an exception mid-span.
        stack = self._profiler._stack
        while stack:
            stack.pop().disable()


# ---------------------------------------------------------------------------
# Profiled experiment runs
# ---------------------------------------------------------------------------


@dataclass
class ProfileResult:
    """Everything one profiled run produced."""

    experiment: str
    tree: ProfileTree
    tracer: Tracer
    profiler: SpanProfiler
    series: Any = None


def profile_callable(
    fn: Callable[[], Any],
    *,
    experiment: str = "callable",
    functions_top: int = 15,
    label_args: tuple[str, ...] = (),
) -> ProfileResult:
    """Run ``fn`` under an enabled tracer + :class:`SpanProfiler`.

    Returns the built :class:`ProfileTree` (with per-span function
    tables filled in), the tracer and the profiler. The ambient-tracer
    pattern means ``fn`` needs no profiling awareness — any code
    instrumented against ``current_tracer()`` is attributed.
    """
    from repro.obs.tracer import use_tracer

    tracer = Tracer()
    profiler = SpanProfiler()
    with profiler.attach(tracer), use_tracer(tracer):
        value = fn()
    tree = build_profile_tree(tracer.events, label_args=label_args)
    tree.functions = profiler.function_tables(top=functions_top)
    return ProfileResult(
        experiment=experiment,
        tree=tree,
        tracer=tracer,
        profiler=profiler,
        series=value,
    )


def profile_experiment(
    name: str,
    *,
    channels: int | None = None,
    frames_per_channel: int | None = None,
    seed: int = 2023,
    functions_top: int = 15,
    label_args: tuple[str, ...] = (),
) -> ProfileResult:
    """Profile one registered experiment (see ``repro-sd list``).

    Raises :class:`KeyError` for an unknown experiment id — the CLI
    maps that to its exit-2 contract.
    """
    from repro.bench.experiments import EXPERIMENTS

    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; run `repro-sd list`")
    fn, _description = EXPERIMENTS[name]
    kwargs: dict[str, Any] = {}
    if name != "table1":
        kwargs["seed"] = seed
        if channels is not None:
            kwargs["channels"] = channels
        if frames_per_channel is not None:
            kwargs["frames_per_channel"] = frames_per_channel
    result = profile_callable(
        lambda: fn(**kwargs),
        experiment=name,
        functions_top=functions_top,
        label_args=label_args,
    )
    result.experiment = name
    return result


# ---------------------------------------------------------------------------
# Loading recorded runs
# ---------------------------------------------------------------------------


def load_profile(run_dir: str | Path) -> ProfileTree:
    """A recorded run's profile tree.

    Prefers the run's ``profile.json`` (exact, includes function
    tables); falls back to rebuilding the tree from its Chrome
    ``trace.json`` for runs recorded before profiles existed. Raises
    :class:`KeyError` when the run holds neither.
    """
    from repro.obs.export import events_from_chrome
    from repro.obs.registry import PROFILE_FILE, TRACE_FILE

    run_dir = Path(run_dir)
    profile_path = run_dir / PROFILE_FILE
    if profile_path.is_file():
        return ProfileTree.from_dict(json.loads(profile_path.read_text()))
    trace_path = run_dir / TRACE_FILE
    if trace_path.is_file():
        return build_profile_tree(
            events_from_chrome(json.loads(trace_path.read_text()))
        )
    raise KeyError(
        f"{run_dir} recorded neither {PROFILE_FILE} nor {TRACE_FILE}; "
        "re-record with `repro-sd profile run --record` or "
        "`experiment --record`"
    )


# ---------------------------------------------------------------------------
# Run-to-run diffing
# ---------------------------------------------------------------------------


@dataclass
class ProfileDiffRow:
    """One span name's self-time movement between two runs."""

    span: str
    count_a: int
    count_b: int
    self_a_s: float
    self_b_s: float

    @property
    def delta_s(self) -> float:
        return self.self_b_s - self.self_a_s


@dataclass
class ProfileDiff:
    """Ranked per-span Δself-time between a base and a compared run.

    Rows are sorted by Δself-time descending — regressions first, the
    biggest first — and carry both absolute seconds and the share of
    the *base* run's span-covered wall time, so "span X accounts for
    80 % of the slowdown" reads straight off the table.
    """

    wall_a_s: float
    wall_b_s: float
    rows: list[ProfileDiffRow] = field(default_factory=list)

    @property
    def wall_delta_s(self) -> float:
        return self.wall_b_s - self.wall_a_s

    def pct_of_wall(self, row: ProfileDiffRow) -> float | None:
        """``row``'s Δself as a percentage of the base run's wall."""
        if not self.wall_a_s:
            return None
        return 100.0 * row.delta_s / self.wall_a_s

    def regressions(
        self, *, min_delta_s: float = 0.0, min_pct: float = 0.0
    ) -> list[ProfileDiffRow]:
        """Rows whose self-time grew beyond both thresholds."""
        out = []
        for row in self.rows:
            if row.delta_s <= min_delta_s:
                continue
            pct = self.pct_of_wall(row)
            if pct is not None and pct < min_pct:
                continue
            out.append(row)
        return out


def diff_profiles(a: ProfileTree, b: ProfileTree) -> ProfileDiff:
    """Compare two trees' per-span self-times (``a`` is the base)."""
    flat_a, flat_b = self_by_name(a), self_by_name(b)
    diff = ProfileDiff(wall_a_s=a.wall_s, wall_b_s=b.wall_s)
    for span in {**flat_a, **flat_b}:
        ra = flat_a.get(span, {"count": 0, "self_s": 0.0})
        rb = flat_b.get(span, {"count": 0, "self_s": 0.0})
        diff.rows.append(
            ProfileDiffRow(
                span=span,
                count_a=int(ra["count"]),
                count_b=int(rb["count"]),
                self_a_s=float(ra["self_s"]),
                self_b_s=float(rb["self_s"]),
            )
        )
    diff.rows.sort(key=lambda r: (-r.delta_s, r.span))
    return diff


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return lines


def format_profile(
    tree: ProfileTree, *, title: str = "profile", functions_top: int = 0
) -> str:
    """Render the call-tree (total vs self) as an indented table.

    ``functions_top > 0`` appends each span's top functions by internal
    time when the tree carries :class:`SpanProfiler` tables.
    """
    lines = [f"== {title}: {tree.wall_s * 1e3:.3f} ms span-covered wall =="]
    rows = []
    wall = tree.wall_s or 1.0
    for path, node in tree.walk():
        indent = "  " * (len(path) - 1)
        rows.append(
            (
                f"{indent}{node.name}",
                str(node.count),
                f"{node.total_s * 1e3:.3f}",
                f"{node.self_s * 1e3:.3f}",
                f"{100.0 * node.self_s / wall:.1f}",
            )
        )
    if not rows:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    lines += _table(("span", "count", "total_ms", "self_ms", "self_%"), rows)
    if functions_top > 0 and tree.functions:
        for span, fns in tree.functions.items():
            shown = fns[:functions_top]
            if not shown:
                continue
            lines.append("")
            lines.append(f"-- {span}: top functions by internal time --")
            lines += _table(
                ("function", "calls", "tottime_ms", "cumtime_ms"),
                [
                    (
                        fn["function"],
                        str(fn["calls"]),
                        f"{fn['tottime_s'] * 1e3:.3f}",
                        f"{fn['cumtime_s'] * 1e3:.3f}",
                    )
                    for fn in shown
                ],
            )
    return "\n".join(lines)


def format_profile_diff(
    diff: ProfileDiff, *, top: int | None = None, title: str = "profile diff"
) -> str:
    """Render a :class:`ProfileDiff` as a ranked aligned-text table."""
    lines = [
        f"== {title}: wall {diff.wall_a_s * 1e3:.3f} -> "
        f"{diff.wall_b_s * 1e3:.3f} ms "
        f"({diff.wall_delta_s * 1e3:+.3f} ms) =="
    ]
    rows = diff.rows if top is None else diff.rows[:top]
    if not rows:
        lines.append("(no spans in either run)")
        return "\n".join(lines)
    body = []
    for row in rows:
        pct = diff.pct_of_wall(row)
        body.append(
            (
                row.span,
                f"{row.count_a}->{row.count_b}",
                f"{row.self_a_s * 1e3:.3f}",
                f"{row.self_b_s * 1e3:.3f}",
                f"{row.delta_s * 1e3:+.3f}",
                "-" if pct is None else f"{pct:+.2f}",
            )
        )
    lines += _table(
        ("span", "count", "self_a_ms", "self_b_ms", "delta_ms", "%of_wall_a"),
        body,
    )
    regressed = diff.regressions()
    lines.append("")
    lines.append(
        f"{len(regressed)} span(s) regressed, "
        f"{sum(1 for r in diff.rows if r.delta_s < 0)} improved"
    )
    return "\n".join(lines)
