"""Command-line interface.

Exit status: 0 on success, 2 when a construction hypothesis fails for
the given input (odd vertical twists, torus words, no even-b form
within the normalize bound), 1 on any other error including usage
problems.
"""

from __future__ import annotations

import argparse
import io
import sys
from functools import partial

from .errors import (
    _SHOWN,
    HypothesisError,
    NotReducedAlternatingError,
    TorusCaseError,
    TwoBridgeError,
    _quoted,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2

# curves.VARIANTS and curves.GRANULARITIES, written out so that parsing a
# command that builds no model does not load the model code
VARIANTS = ("f2", "f3")
GRANULARITIES = ("crossing", "region", "fine")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _exit_status(err: Exception) -> int:
    """The exit status of ``err``: 2 if a hypothesis failed, else 1."""
    return EXIT_HYPOTHESIS if isinstance(err, HypothesisError) else EXIT_ERROR


def _write_output(document, path: str | None, out) -> None:
    """Write a document to ``path`` or else to ``out``: ``document(flush)``
    returns its last parts and calls ``flush`` on the parts before them,
    window by window, which writes them and empties the list, so that
    neither the whole document nor all its parts are ever held."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            return _write_output(document, None, handle)

    def flush(parts: list[str]) -> None:
        out.write("".join(parts))
        parts.clear()

    flush(document(flush))


def _cmd_analyze(args, out) -> int:
    from . import complexity, conway

    word = conway.parse_conway(args.word)
    fraction = conway.fraction_of(word)
    lines = [
        f"word: {conway.format_conway(word)}",
        f"fraction: {fraction}",
        f"components: {conway.component_count(fraction)}",
        f"all_b_even: {'true' if conway.all_b_even(word) else 'false'}",
        f"m: {word.m}",
    ]
    try:
        lines.append(f"twist_number: {conway.twist_number(word)}")
    except NotReducedAlternatingError:
        lines.append("twist_number: undefined (not reduced alternating)")
    if conway.all_b_even(word):
        bounds = complexity.smc_upper_bound(word)
        lines.append(f"smc_upper: {bounds.smc_upper} (f2 witness)")
        lines.append(f"f3_weighted_sum: {bounds.f3_weighted_sum}")
        try:
            lines.append(f"volume_upper: {complexity.volume_upper_bound(word):.6f} (4m V_oct)")
        except (NotReducedAlternatingError, TorusCaseError):
            pass
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_build(args, out) -> int:
    from . import conway, morse, serialize

    word = conway._require_size(conway.parse_conway(args.word))
    model = morse.assemble_stable_map(word, args.variant, args.granularity)
    _write_output(partial(serialize._export_parts, model), args.output, out)
    return EXIT_OK


def _reference_fraction(reference: str):
    """Best-effort reading of a table reference as a Conway word or p/q."""
    from . import conway

    try:
        return conway.fraction_of(conway.parse_conway(reference))
    except TwoBridgeError:
        pass
    if not reference.isascii():  # int() reads any Unicode decimal digit, parse_conway ASCII only
        return None
    try:
        p_text, q_text = reference.split("/")
        return conway.SchubertFraction.normalized(int(p_text), int(q_text))
    except (TwoBridgeError, ValueError):
        return None


def _volume_table(path: str) -> list:
    """The ``--volume-table`` argument: each row of the file with its
    reference's fraction, read and worked out once per parse, so once
    per batch."""
    from . import complexity

    with open(path, encoding="utf-8") as handle:
        records = complexity.ingest_volume_table(handle.read(), source=path)
    return [(record, _reference_fraction(record.reference)) for record in records]


def _lookup_volume(args, word) -> float:
    from . import conway

    if args.volume is not None:
        return args.volume
    if args.label:
        for record, _ in args.volume_table:
            if record.label == args.label:
                return record.volume
        raise TwoBridgeError(f"no table entry labeled {args.label!r}")
    fraction = conway.fraction_of(word)
    matches = [
        record
        for record, other in args.volume_table
        if other is not None and conway.schubert_equivalent(fraction, other, allow_mirror=True)  # volume is mirror-invariant
    ]
    if len(matches) == 1:
        return matches[0].volume
    if not matches:
        raise TwoBridgeError(
            "no table entry matches the word; pass --label to pick one explicitly"
        )
    raise TwoBridgeError(
        f"{len(matches)} table entries match; pass --label to disambiguate"
    )


def _cmd_certify(args, out) -> int:
    import json

    from . import complexity, conway

    word = conway.parse_conway(args.word)
    volume = _lookup_volume(args, word)
    certificate = complexity.certify_smc(word, volume, epsilon=args.epsilon)
    if args.json:
        doc = {
            "word": conway.format_conway(word),
            "status": certificate.status,
            "smc": certificate.smc_value,
            "volume": certificate.volume,
            "threshold": certificate.threshold,
            "volume_cap": certificate.volume_cap,
            "lower_bound": certificate.lower_bound,
            "upper_bound": certificate.upper_bound,
            "epsilon": certificate.epsilon,
            "volume_inconsistent": certificate.volume_inconsistent,
            "chain": list(certificate.chain),
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        lines = [
            f"word: {conway.format_conway(word)}",
            f"status: {certificate.status}",
        ]
        if certificate.smc_value is not None:
            lines.append(f"certified smc={certificate.smc_value}")
        lines.append("chain:")
        lines.extend(f"  {step}" for step in certificate.chain)
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_render(args, out) -> int:
    from . import conway, curves, morse, render

    word = conway._require_size(conway.parse_conway(args.word))
    if args.subject == "model":
        subject = morse.assemble_stable_map(word, args.variant, args.granularity)
    elif args.subject == "strips":
        subject = curves.StripDecomposition(word, args.variant, args.granularity)
    else:
        subject = curves.ImmersedCurve(word, args.variant)
    _write_output(partial(render._svg_parts, subject), args.output, out)
    return EXIT_OK


def _cmd_normalize(args, out) -> int:
    from . import conway

    if args.bound < 1:
        raise ValueError(f"--bound must be at least 1, got {args.bound}")
    word = conway.parse_conway(args.word)
    result = conway.even_b_normalize(word, sum_bound=args.bound)
    if isinstance(result, conway.FailureReport):
        out.write(
            f"search exhausted: no even-b form of {conway.format_conway(word)} found "
            f"within sum bound {result.sum_bound} (existence not excluded)\n"
        )
        return EXIT_HYPOTHESIS
    out.write(f"{conway.format_conway(word)} -> {conway.format_conway(result)}\n")
    return EXIT_OK


def _cmd_batch(args, out, parser: _Parser) -> int:
    import json

    options = parser.parse_args([args.command, *args.args, "WORD"])
    if getattr(options, "output", None) is not None:
        raise _UsageError("batch writes each output into its record; -o/--output is not allowed")
    with open(args.input, encoding="utf-8") as handle:
        inputs = [line for line in map(str.strip, handle) if line and not line.startswith("#")]
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    statuses = set()
    for text in inputs:
        buffer = io.StringIO()
        try:
            status = options.run(argparse.Namespace(**{**vars(options), "word": text}), buffer)
            record = {"input": text, "exit": status, "output": buffer.getvalue()}
        except (TwoBridgeError, OSError, ValueError) as err:
            record = {"input": text, "exit": _exit_status(err), "error": str(err)}
        out.write(json.dumps(record) + "\n")
        statuses.add(record["exit"])
    return max(statuses, key=(EXIT_OK, EXIT_HYPOTHESIS, EXIT_ERROR).index, default=EXIT_OK)  # the worst


def _build_parser() -> _Parser:
    from . import conway

    parser = _Parser(prog="twobridge", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="fraction, components, parity, twist number")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("word")

    p = sub.add_parser("build", help="emit the model document for one word")
    p.set_defaults(run=_cmd_build)
    p.add_argument("word")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--granularity", choices=GRANULARITIES, default="crossing")
    p.add_argument("-o", "--output")

    p = sub.add_parser("certify", help="evaluate the smc = 2m certificate")
    p.set_defaults(run=_cmd_certify)
    p.add_argument("word")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--volume", type=float)
    source.add_argument("--volume-table", type=_volume_table)
    p.add_argument("--label")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", help="emit an SVG drawing")
    p.set_defaults(run=_cmd_render)
    p.add_argument("word")
    p.add_argument("--subject", choices=("curve", "strips", "model"), default="model")
    p.add_argument("--variant", choices=VARIANTS, default="f2")
    p.add_argument("--granularity", choices=GRANULARITIES, default="crossing")
    p.add_argument("-o", "--output")

    p = sub.add_parser("normalize", help="an equivalent Conway form with every b_i even")
    p.set_defaults(run=_cmd_normalize)
    p.add_argument("word")
    p.add_argument(
        "--bound",
        type=int,
        default=conway.DEFAULT_SUM_BOUND,
        help="largest magnitude sum of a form built for an odd-b word; an even-b word is returned as given (default %(default)s)",
    )

    p = sub.add_parser("batch", help="map a file of words through a subcommand")
    p.set_defaults(run=lambda args, out: _cmd_batch(args, out, parser))
    p.add_argument("--command", required=True, choices=("analyze", "build", "certify", "render", "normalize"))
    p.add_argument("--input", required=True)
    p.add_argument("--jobs", type=int, default=1, help="accepted; lines run one after another")
    p.add_argument(
        "args",
        nargs="*",
        help="extra flags for the subcommand, after a -- separator",
    )

    return parser


def _dispatch(argv: list[str], out) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args, out)


def _bounded(message: str, argv: list[str]) -> str:
    """``message`` with each argument of more than ``_SHOWN`` characters
    in it shortened by ``_quoted``, and so each value of one: the text
    after an option's ``=`` or a short option's letter.  argparse quotes
    a value it refuses whole, and ``open`` a path it cannot open."""
    long = {text for arg in argv for text in (arg, arg.partition("=")[2], arg[2:]) if len(text) > _SHOWN}
    for text in sorted(long, key=len, reverse=True):  # an argument before the value in it
        message = message.replace(repr(text), _quoted(text)).replace(text, _quoted(text, str))
    return message


def run_cli(argv: list[str]) -> int:
    """Run one invocation; returns the exit status instead of raising."""
    try:
        return _dispatch(argv, sys.stdout)
    except _UsageError as err:
        print(f"error: {_bounded(str(err), argv)}", file=sys.stderr)
        return EXIT_ERROR
    except (TwoBridgeError, OSError, ValueError) as err:
        word = next((a for a in argv if a.strip().startswith(("C(", "["))), None)
        on = "" if word is None else f" on {_quoted(word)}"
        status = _exit_status(err)
        message = _bounded(str(err), argv)
        print(f"{'hypothesis failure' if status == EXIT_HYPOTHESIS else 'error'}{on}: {message}", file=sys.stderr)
        return status


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
