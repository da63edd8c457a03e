"""Command-line front end: the verify-so4 report and the script evaluator.

An import loads no layer, and a layer loads when a command runs: the module
level imports only `os`, `sys` and the package, so `import chowcalc.cli`,
`--version`, `--help` and a usage error load no chowcalc layer, nor
`argparse` until a parser is built, nor `json` until a transcript is
written.
"""

import os
import sys

from . import DEFAULT_DEGREE_BOUND, __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

ENV_DEGREE_BOUND = "CHOW_DEGREE_BOUND"


def _default_degree_bound():
    from .polyring import ChowError

    raw = os.environ.get(ENV_DEGREE_BOUND)
    if raw is None:
        return DEFAULT_DEGREE_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ChowError(
            "%s must be an integer, got %r" % (ENV_DEGREE_BOUND, raw)
        )


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="chowcalc",
        description="Exact intersection-theory calculator for Grassmannian "
        "bundle towers.",
    )
    parser.add_argument(
        "--version", action="version", version="chowcalc %s" % __version__
    )
    sub = parser.add_subparsers(dest="command")
    # verify-so4 and eval read both options alike (see `main`)
    bound_help = "truncation degree (default: $%s or %d)" % (
        ENV_DEGREE_BOUND, DEFAULT_DEGREE_BOUND,
    )
    out_help = "write the report here"

    verify = sub.add_parser(
        "verify-so4",
        help="run the full verification pipeline and report pass/fail",
    )
    verify.add_argument(
        "--degree-bound", type=int, default=None, help=bound_help
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    verify.add_argument("--out", default=None, help=out_help)

    ev = sub.add_parser("eval", help="evaluate a .chow script")
    ev.add_argument("file")
    ev.add_argument("--degree-bound", type=int, default=None, help=bound_help)
    ev.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    ev.add_argument("--out", default=None, help=out_help)
    return parser


def _cannot_write(path, exc):
    from .polyring import ChowError

    return ChowError("cannot write %s: %s" % (path, exc.strerror or exc))


def _check_writable(out_path):
    """Fail before any work if `out_path` cannot be opened for writing.

    The probe opens for appending, so an existing file keeps its bytes, and
    removes a file that it created.
    """
    existed = os.path.lexists(out_path)
    try:
        open(out_path, "a").close()
    except OSError as exc:
        raise _cannot_write(out_path, exc)
    if not existed:
        os.remove(out_path)


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _cannot_write(out_path, exc)
    else:
        print(text)


def _cmd_verify(args):
    # imported here so that eval does not pay for loading the pipeline
    from .so4pipeline import So4Pipeline

    pipeline = So4Pipeline(degree_bound=args.degree_bound, seed=args.seed)
    report = pipeline.run_all()
    body = report.to_json() if args.format == "json" else report.to_text()
    _emit(body, args.out)
    return EXIT_OK if report.overall == "pass" else EXIT_CHECK_FAILED


def _transcript_json(events, overall):
    """`json.dumps({"events": events, "overall": overall}, indent=2)`, in
    the same bytes, for events as `dsl.run_script` returns them: non-empty
    dicts whose values are strings and bools.

    An `indent` sends `json.dumps` to its pure-Python encoder; this writes
    the same layout around the C string escaper that `json.dumps` uses.
    """
    from json.encoder import encode_basestring_ascii as quote

    rows = []
    for e in events:
        fields = [
            "%s: %s" % (quote(k), quote(v) if v.__class__ is str
                        else "true" if v else "false")
            for k, v in e.items()
        ]
        rows.append("{\n      %s\n    }" % ",\n      ".join(fields))
    listed = "[\n    %s\n  ]" % ",\n    ".join(rows) if rows else "[]"
    return '{\n  "events": %s,\n  "overall": %s\n}' % (listed, quote(overall))


def _cmd_eval(args):
    # imported here so that importing the cli does not load the DSL
    from . import dsl

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    events, ok = dsl.run_script(text, degree_bound=args.degree_bound)
    if args.format == "json":
        body = _transcript_json(events, "pass" if ok else "fail")
    else:
        lines = []
        for e in events:
            if e["kind"] == "let":
                lines.append("%s = %s" % (e["name"], e["value"]))
            else:
                tag = "PASS" if e["ok"] else "FAIL"
                line = "%s  check %s" % (tag, e["text"])
                if not e["ok"]:
                    line += "   [%s vs %s]" % (e["lhs"], e["rhs"])
                lines.append(line)
        lines.append("overall: %s" % ("pass" if ok else "fail"))
        body = "\n".join(lines)
    _emit(body, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    from .polyring import ChowError

    try:
        if args.degree_bound is None:
            args.degree_bound = _default_degree_bound()
        if args.out:
            _check_writable(args.out)
        if args.command == "verify-so4":
            return _cmd_verify(args)
        return _cmd_eval(args)
    except ChowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
