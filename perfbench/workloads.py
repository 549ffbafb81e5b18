"""The two workloads.  Each is a closed loop in one process: the next
call starts only when the previous one has returned.

* ``corpus``: 200 small even-b words, every word through the library
  path for f2 and f3 at all three granularities.
* ``ladder``: a few large words, the library path for f2 and f3 at
  crossing granularity.

The library path is parse -> assemble -> certify -> export -> import ->
render; only public functions are called, and only from outside.
Every output is checked against ``oracle``.  A wrong answer or an
exception is a failed operation, listed by input on stderr, and any
failed operation clears ``correct``.

A traced ``corpus`` run also goes through ``twobridge.cli.run_cli``: a
build batch at ``--jobs 1`` and ``--jobs nproc``, the even-b search of
``normalize``, and the non-finite ``--volume`` probes of the known
defect.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import gen
import oracle
from hostspeed import HostSpeed, at_scale
from tracer import NullTracer, Tracer, layer_summary

VARIANTS = ("f2", "f3")
GRANULARITIES = ("crossing", "region", "fine")

# The stages assemble_stable_map needs to build a model.  morse.redundancy
# divides the assembly time by their sum, so assembly work beyond them
# (validate_model's second trace, census and slice checks) reads above 1.
ASSEMBLY_STAGES = (
    "conway.fraction",
    "curves.plat",
    "curves.smoothing",
    "curves.bigon",
    "curves.strips",
    "morse.blocks",
    "morse.trace",
    "morse.census",
)
LAYERS = (
    "conway.parse",
    "conway.fraction",
    "conway.normalize",
    "curves.plat",
    "curves.smoothing",
    "curves.bigon",
    "curves.strips",
    "morse.blocks",
    "morse.trace",
    "morse.census",
    "morse.validate",
    "morse.assemble",
    "complexity.certify",
    "complexity.ingest",
    "serialize.export",
    "serialize.import",
    "render.svg",
    "cli.item_overhead",
)
COUNTS = (
    "curves.columns",
    "curves.strips",
    "morse.blocks",
    "morse.slices",
    "serialize.doc_bytes",
    "render.svg_bytes",
    "complexity.table_rows",
    "cli.exit_0",
    "cli.exit_1",
    "cli.exit_2",
    "cli.known_defects",
)


class Incomplete(Exception):
    """A path has no timed sample (it raised on every pass), so the
    workload's rates are undefined."""


@dataclass
class Outcomes:
    """Operations attempted and failed.  Any failure clears ``correct``."""

    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append((label, problem))

    def raised(self, label: str, error: BaseException) -> None:
        self.record(label, f"{type(error).__name__}: {error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Run:
    """What one workload measured, times at the reference host speed.
    ``raw`` holds the unscaled times and rates; ``extras`` are printed as
    ``# workload-metric`` lines and carry no bound."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    raw: dict[str, tuple[float, str]] = field(default_factory=dict)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class Context:
    """The library under test and the run's state."""

    def __init__(self, tb, run_cli, seed: int, workdir: str, seconds: float, tracer, host: HostSpeed):
        self.tb = tb
        self.host = host
        self.run_cli = run_cli
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.tracer = tracer
        self.outcomes = Outcomes()
        self.counts: Counter = Counter()
        self.known_defects: list[str] = []
        self.nproc = len(os.sched_getaffinity(0))

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """run_cli in process with stdout and stderr captured: (status, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.run_cli(argv)
        return status, out.getvalue()


# -- library path ----------------------------------------------------------


def library_path(tb, tracer, word: gen.Word, variant: str, granularity: str):
    parsed = tracer.call("conway.parse", tb.parse_conway, word.text)
    model = tracer.call("morse.assemble", tb.assemble_stable_map, parsed, variant, granularity)
    cert = tracer.call("complexity.certify", tb.certify_smc, parsed, word.volume)
    doc = tracer.call("serialize.export", tb.export_json, model)
    back = tracer.call("serialize.import", tb.import_json, doc)
    svg = tracer.call("render.svg", tb.render_svg, model)
    return parsed, model, cert, doc, back, svg


def check_path(tb, word: gen.Word, variant, granularity, cert, doc, back, svg) -> str | None:
    problem = oracle.check_document(doc, word.entries, variant, granularity)
    if problem:
        return problem
    status = oracle.certificate_status(word.entries, word.volume)
    smc = 2 * oracle.m_of(word.entries) if status == "certified" else None
    if (cert.status, cert.smc_value, cert.lower_bound) != (status, smc, oracle.lower_bound(word.volume)):
        return f"certificate {cert.status}/{cert.smc_value}/{cert.lower_bound}, expected {status}/{smc}"
    if tb.export_json(back) != doc:
        return "import_json(export_json(model)) does not export to the same document"
    if tb.render_svg(back) != svg:
        return "two renders of the same model differ"
    return None


def _build_blocks(tb, strips, variant):
    return [tb.build_block(strip, variant, index=j) for j, strip in enumerate(strips.strips)]


def decompose(ctx: Context, word: gen.Word, variant: str, granularity: str, model, doc) -> None:
    """Each stage called on its own, for the per-layer spans and counts;
    then one ``run_cli build`` of the same word, whose output must equal
    the library's document."""
    tb, tracer, counts = ctx.tb, ctx.tracer, ctx.counts
    with tracer.span("stages"):
        parsed = tracer.call("conway.parse", tb.parse_conway, word.text)
        tracer.call("conway.fraction", tb.fraction_of, parsed)
        diagram = tracer.call("curves.plat", tb.build_plat_diagram, parsed)
        curve = tracer.call("curves.smoothing", tb.outer_smooth, diagram)
        if variant == "f3":
            curve = tracer.call("curves.bigon", tb.bigon_reduce, curve)
        strips = tracer.call("curves.strips", tb.strip_decompose, curve, variant, granularity)
        tracer.call("morse.blocks", _build_blocks, tb, strips, variant)
        tracer.call("morse.trace", tb.trace_definite_folds, model)
        tracer.call("morse.census", tb.fiber_census, model)
        tracer.call("morse.validate", tb.validate_model, model)
        argv = ["build", word.text, "--variant", variant, "--granularity", granularity]
        with tracer.span("cli.build"):
            status, out = ctx.cli(argv)
    counts["curves.columns"] += len(curve.columns)
    counts["curves.strips"] += len(strips.strips)
    counts["morse.blocks"] += len(model.blocks)
    counts["morse.slices"] += sum(len(b.slices) for b in model.blocks)
    counts[f"cli.exit_{status}"] += 1
    ctx.outcomes.record(" ".join(argv), None if (status, out) == (0, doc) else f"exit {status}, output differs from export_json")


def path_keys(words: list[gen.Word], granularities) -> list[tuple[int, str, str]]:
    return [(i, v, g) for i in range(len(words)) for v in VARIANTS for g in granularities]


def run_library(ctx: Context, words: list[gen.Word], granularities, collect_between: bool, deadline: float, tracers) -> list[dict]:
    """Passes over every (word, variant, granularity) path until
    ``deadline`` (``time.perf_counter``), at least one.  Each path runs
    once under each of ``tracers``, alternating which goes first, so that
    traced and untraced times are taken side by side.  Returns one
    {path key: [(start ns, end ns) per pass]} per tracer."""
    tb = ctx.tb
    keys = path_keys(words, granularities)
    samples: list[dict] = [defaultdict(list) for _ in tracers]
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        gc.collect()
        for n, key in enumerate(keys):
            i, variant, granularity = key
            word = words[i]
            label = f"{word.text[:60]} {variant} {granularity}"
            ctx.host.maybe_sample()
            order = list(enumerate(tracers))
            for t, tracer in order if n % 2 == 0 else reversed(order):
                if collect_between:
                    gc.collect()
                tracer.trace_id += 1
                try:
                    start = time.perf_counter_ns()
                    with tracer.span("path"):
                        result = library_path(tb, tracer, word, variant, granularity)
                    samples[t][key].append((start, time.perf_counter_ns()))
                    ctx.outcomes.record(label, check_path(tb, word, variant, granularity, *result[2:]))
                except Exception as error:  # noqa: BLE001 - every escape is a failed operation
                    ctx.outcomes.raised(label, error)
                # Free this path's model before the next one, so the heap each
                # path starts from does not depend on the order of the paths.
                result = None
        passes += 1
    ctx.host.sample()  # the group after the last path
    return samples


def stage_pass(ctx: Context, words: list[gen.Word], granularities) -> None:
    """One traced pass in which every path is followed by its stages,
    each called on its own (``decompose``)."""
    tb, tracer = ctx.tb, ctx.tracer
    for word in words:
        for variant in VARIANTS:
            for granularity in granularities:
                ctx.host.maybe_sample()
                tracer.trace_id += 1
                label = f"{word.text[:60]} {variant} {granularity}"
                try:
                    with tracer.span("path"):
                        parsed, model, cert, doc, back, svg = library_path(tb, tracer, word, variant, granularity)
                    ctx.outcomes.record(label, check_path(tb, word, variant, granularity, cert, doc, back, svg))
                    ctx.counts["serialize.doc_bytes"] += len(doc.encode())
                    ctx.counts["render.svg_bytes"] += len(svg.encode())
                    decompose(ctx, word, variant, granularity, model, doc)
                except Exception as error:  # noqa: BLE001
                    ctx.outcomes.raised(label, error)


def ingest_table(ctx: Context, words: list[gen.Word]) -> None:
    csv = gen.table_csv(words)
    records = ctx.tracer.call("complexity.ingest", ctx.tb.ingest_volume_table, csv, "perfbench")
    ctx.counts["complexity.table_rows"] += len(records)
    got = [(r.reference, r.volume) for r in records]
    ctx.outcomes.record("ingest table", None if got == [(w.text, w.volume) for w in words] else "rows differ")


def per_path(samples: dict, keys, host: HostSpeed | None = None) -> dict:
    """Each path at its median time in ns over the passes.  With ``host``,
    each pass is first put at the reference speed of its own moment."""
    missing = [key for key in keys if not samples.get(key)]
    if missing:
        raise Incomplete(f"{len(missing)} of {len(keys)} paths have no timed sample")

    def ns(start: int, end: int) -> float:
        return (end - start) * (host.local_scale(start, end) if host else 1.0)

    return {key: statistics.median(ns(*interval) for interval in samples[key]) for key in keys}


def throughput(times: dict, words: list[gen.Word]) -> tuple[float, float]:
    """(words per second, crossings per second) of one pass at ``per_path`` times."""
    seconds = sum(times.values()) / 1e9
    crossings = sum(words[i].crossings for i, _, _ in times)
    return len(words) / seconds, crossings / seconds


def _warm_up(ctx: Context) -> None:
    word = gen.corpus(gen.DEFAULT_SEED, 1)[0]
    for variant in VARIANTS:
        library_path(ctx.tb, NullTracer(), word, variant, "crossing")


def tracing_overhead(ctx: Context, words, run: Run) -> None:
    """Traced and untraced corpus paths side by side until the time is up;
    the difference in words per second is the tracing overhead.  These
    passes record into a tracer of their own, so the per-layer metrics
    count the stage pass alone and do not depend on how many passes fit
    in the run."""
    deadline = time.perf_counter() + ctx.seconds
    untraced, traced = run_library(ctx, words, GRANULARITIES, False, deadline, (NullTracer(), Tracer()))
    keys = path_keys(words, GRANULARITIES)
    plain, _ = throughput(per_path(untraced, keys, ctx.host), words)
    with_spans, _ = throughput(per_path(traced, keys, ctx.host), words)
    run.metrics["trace.overhead_frac"] = (1 - with_spans / plain, "ratio")
    run.notes.append(f"untraced {plain:.3f} words/s, traced {with_spans:.3f} words/s")


# -- corpus and ladder -------------------------------------------------------


def corpus(ctx: Context, words: list[gen.Word]) -> Run:
    _warm_up(ctx)
    run = Run()
    if isinstance(ctx.tracer, Tracer):
        tracing_overhead(ctx, words, run)
        stage_pass(ctx, words, GRANULARITIES)
        ingest_table(ctx, words)
        cli_checks(ctx)
        return run
    keys = path_keys(words, GRANULARITIES)
    (samples,) = run_library(ctx, words, GRANULARITIES, False, time.perf_counter() + ctx.seconds, (ctx.tracer,))

    def summary(times: dict) -> dict:
        words_per_s, crossings_per_s = throughput(times, words)
        path_ms = sorted(ns / 1e6 for ns in times.values())
        return dict(
            words_per_s=(words_per_s, "1/s"),
            crossings_per_s=(crossings_per_s, "1/s"),
            latency_ms=(statistics.median(path_ms), "ms"),
            word_p99_ms=(statistics.quantiles(path_ms, n=100, method="inclusive")[98], "ms"),
        )

    run.metrics = summary(per_path(samples, keys, ctx.host))
    run.raw = summary(per_path(samples, keys))
    run.extras["word_p99_ms"] = run.metrics.pop("word_p99_ms")
    passes = len(samples[keys[0]])
    run.notes.append(f"{passes} passes x {len(keys)} paths; p50 and p99 over the {len(keys)} per-path median times")
    return run


def ladder(ctx: Context, words: list[gen.Word]) -> Run:
    _warm_up(ctx)
    run = Run()
    granularities = ("crossing",)
    if isinstance(ctx.tracer, Tracer):
        # No side-by-side overhead passes here: one pass of both would take
        # about twice --seconds before the stage pass starts.
        stage_pass(ctx, words, granularities)
        ingest_table(ctx, words)
        run.metrics["trace.overhead_frac"] = (0.0, "ratio")
        return run
    keys = path_keys(words, granularities)
    (samples,) = run_library(ctx, words, granularities, True, time.perf_counter() + ctx.seconds, (ctx.tracer,))
    largest = gen.largest_ladder_text(words)
    index = next(i for i, w in enumerate(words) if w.text == largest)

    def summary(times: dict) -> dict:
        words_per_s, crossings_per_s = throughput(times, words)
        largest_ms = sum(times[(index, variant, "crossing")] for variant in VARIANTS) / 1e6
        return dict(
            words_per_s=(words_per_s, "1/s"),
            crossings_per_s=(crossings_per_s, "1/s"),
            latency_ms=(largest_ms, "ms"),
        )

    times = per_path(samples, keys, ctx.host)
    run.metrics = summary(times)
    run.raw = summary(per_path(samples, keys))
    for key, ns in sorted(times.items(), key=lambda kv: words[kv[0][0]].crossings):
        run.notes.append(f"{words[key[0]].text[:40]:40s} {key[1]} {ns / 1e9:.4f} s")
    run.notes.append(f"{len(samples[keys[0]])} passes x {len(times)} paths")
    return run


# -- cli checks (traced corpus run) -----------------------------------------


def cli_checks(ctx: Context) -> None:
    """The CLI paths that the library path does not cover, each run once
    and checked: a build batch at --jobs 1 and --jobs nproc, the even-b
    search of ``normalize``, and the non-finite ``--volume`` probes."""
    lines = gen.build_lines(ctx.seed)
    path = os.path.join(ctx.workdir, "build.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line.text + "\n" for line in lines))
    argv = ["batch", "--command", "build", "--input", path, "--jobs"]
    serial = _build_batch(ctx, argv + ["1", "--", "--variant", "f2"], lines)
    parallel = _build_batch(ctx, argv + [str(ctx.nproc), "--", "--variant", "f2"], lines)
    if serial is not None and parallel is not None:
        ctx.outcomes.record("build batch --jobs n vs --jobs 1", None if serial == parallel else "outputs differ")
    for item in gen.normalize_items(ctx.seed):
        normalize(ctx, item)
    _nonfinite_volumes(ctx, gen.corpus(ctx.seed, 1)[0])


def _build_batch(ctx: Context, argv: list[str], lines: list[gen.BatchLine]) -> str | None:
    """One ``batch --command build`` call; every line is an operation
    whose exit code (and, for exit 0, document) is checked."""
    label = f"batch --command build --jobs {argv[6]}"
    try:
        with ctx.tracer.span("cli.batch"):
            status, out = ctx.cli(argv)
    except Exception as error:  # noqa: BLE001
        ctx.outcomes.raised(label, error)
        return None
    records = [json.loads(record) for record in out.splitlines()]
    if [r["input"] for r in records] != [line.text for line in lines]:
        ctx.outcomes.record(label, f"{len(records)} records do not match the {len(lines)} input lines")
        return None
    for line, record in zip(lines, records):
        ctx.counts[f"cli.exit_{record['exit']}"] += 1
        if record["exit"] != line.expected_exit:
            problem = f"exit {record['exit']}, expected {line.expected_exit}"
        elif line.expected_exit == 0:
            problem = oracle.check_document(record["output"], line.entries, "f2", "crossing")
        else:
            problem = None
        ctx.outcomes.record(f"batch build {line.text}", problem)
    exits = {line.expected_exit for line in lines}
    expected = 1 if 1 in exits else 2 if 2 in exits else 0
    ctx.outcomes.record(f"{label} status", None if status == expected else f"exit {status}, expected {expected}")
    return out


def normalize(ctx: Context, item: gen.NormalizeItem) -> None:
    """``even_b_normalize`` on an odd-b word whose fraction has an even-b
    form within the default bounds; the witness is checked."""
    ctx.tracer.trace_id += 1
    label = f"normalize {item.text}"
    try:
        parsed = ctx.tb.parse_conway(item.text)
        result = ctx.tracer.call("conway.normalize", ctx.tb.even_b_normalize, parsed)
    except Exception as error:  # noqa: BLE001
        ctx.outcomes.raised(label, error)
        return
    ctx.counts["normalize.searches"] += 1
    if isinstance(result, ctx.tb.FailureReport):
        ctx.outcomes.record(label, f"search exhausted on {item.p}/{item.q}")
        return
    ctx.counts["normalize.found"] += 1
    ctx.outcomes.record(label, oracle.check_normalize_text(f"{item.text} -> {ctx.tb.format_conway(result)}", item.p, item.q))


def _nonfinite_volumes(ctx: Context, word: gen.Word) -> None:
    """A non-finite volume is an input error: exit 1.  An exception out of
    ``run_cli`` here is the known defect of ROADMAP item 4; it is counted
    in ``cli.known_defects`` and listed, not as a failed operation, so
    that fixing it shows as that count dropping to 0."""
    for volume in ("inf", "nan"):
        argv = ["certify", word.text, "--volume", volume]
        try:
            status, _ = ctx.cli(argv)
        except Exception as error:  # noqa: BLE001
            ctx.counts["cli.known_defects"] += 1
            ctx.known_defects.append(f"{' '.join(argv)} raised {type(error).__name__}: {error}")
            continue
        ctx.counts[f"cli.exit_{status}"] += 1
        ctx.outcomes.record(" ".join(argv), None if status == 1 else f"exit {status}, expected 1")


# -- per-layer summary -------------------------------------------------------


def layer_metrics(ctx: Context, run: Run) -> None:
    """Per-layer p50 and busy time from the spans, plus the counts.  Times
    are scaled by the kernel median of the whole run."""
    tracer: Tracer = ctx.tracer
    self_ns = tracer.self_times()
    self_ns["cli.item_overhead"] = _item_overhead(tracer)
    scale = ctx.host.scale
    for layer in LAYERS:
        values = self_ns.get(layer) or []
        p50_us, busy_s = layer_summary(values) if values else (0.0, 0.0)
        for name, value, unit in ((f"{layer}.p50_us", p50_us, "us"), (f"{layer}.busy_s", busy_s, "s")):
            run.raw[name] = (value, unit)
            run.metrics[name] = (at_scale(value, unit, scale), unit)
    for name in COUNTS:
        run.metrics[name] = (ctx.counts[name], "count")
    searches = ctx.counts["normalize.searches"]
    run.metrics["conway.normalize_found_ratio"] = (ctx.counts["normalize.found"] / searches if searches else 0.0, "ratio")
    stages = sum(sum(self_ns.get(name, ())) for name in ASSEMBLY_STAGES)
    run.metrics["morse.redundancy"] = (sum(self_ns.get("morse.assemble", ())) / stages if stages else 0.0, "ratio")
    run.metrics["trace.spans"] = (len(tracer.spans), "count")


def _item_overhead(tracer: Tracer) -> list[int]:
    """``run_cli build`` minus parse + assemble + export of the same path."""
    library = defaultdict(int)
    for trace_id, _, parent, name, start, end in tracer.spans:
        if name in ("conway.parse", "morse.assemble", "serialize.export"):
            library[(trace_id, parent)] += end - start
    paths = {trace_id: span_id for trace_id, span_id, _, name, _, _ in tracer.spans if name == "path"}
    return [
        end - start - library[(trace_id, paths[trace_id])]
        for trace_id, _, _, name, start, end in tracer.spans
        if name == "cli.build" and trace_id in paths
    ]
