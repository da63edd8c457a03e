"""Command-line front end: the verify-so4 report and the script evaluator.

`COMMANDS` declares each command once: its help, its positional arguments,
each option as its flag and the keyword arguments `argparse` takes, and its
handler.  `build_parser` builds the parser from that table, `_fast_args`
reads the same entries without `argparse`, and `main` runs the handler.

An import loads no layer, and a layer loads when a command runs: the module
level imports only `os`, `sys` and the package, so `import chowcalc.cli`,
`--version`, `--help` and a usage error load no chowcalc layer.  A command
line of the exact form that `_fast_args` reads, a command and its positional
arguments followed by distinct full `--flag value` pairs, loads no
`argparse` either; every other command line, `--help` and `--version`
included, goes through `build_parser`.  Both commands write JSON with
`polyring.json_text`, so neither loads `json`.

A process runs `entry`, not `main`: once `main` returns, `entry` freezes the
collector, so the interpreter's collections at exit find nothing to walk and
the module cycles are left to the operating system.  That saves the CPU time
of those collections, which grows with the objects and modules a process
holds.  Unlike `os._exit`, `atexit` handlers still run and stdout and stderr
are still flushed; every file a command writes is closed before `main`
returns.  `main` itself never touches the collector, since tests and the
bench's tracer call it in-process, and a `SystemExit` from `argparse`
(`--help`, `--version`, a usage error) leaves `entry` without freezing.
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

    pipeline = So4Pipeline(degree_bound=args["degree_bound"], seed=args["seed"])
    report = pipeline.run_all()
    body = report.to_json() if args["format"] == "json" else report.to_text()
    _emit(body, args["out"])
    return EXIT_OK if report.overall == "pass" else EXIT_CHECK_FAILED


def _cmd_eval(args):
    # imported here so that importing the cli does not load the DSL
    from . import dsl
    from .polyring import json_text

    try:
        with open(args["file"], encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    events, ok = dsl.run_script(text, degree_bound=args["degree_bound"])
    if args["format"] == "json":
        body = json_text({"events": events, "overall": "pass" if ok else "fail"})
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
    _emit(body, args["out"])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# command: (help, positional arguments, options, handler); an option is its
# flag and the keyword arguments `argparse` takes
_BOUND = ("--degree-bound", {
    "type": int, "default": None,
    "help": "truncation degree (default: $%s or %d)" % (
        ENV_DEGREE_BOUND, DEFAULT_DEGREE_BOUND,
    ),
})
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_OUT = ("--out", {"default": None, "help": "write the report here"})
COMMANDS = {
    "verify-so4": (
        "run the full verification pipeline and report pass/fail", (),
        (_BOUND, ("--seed", {"type": int, "default": 0}), _FORMAT, _OUT),
        _cmd_verify,
    ),
    "eval": (
        "evaluate a .chow script", ("file",), (_BOUND, _FORMAT, _OUT), _cmd_eval,
    ),
}


def _dest(flag):
    return flag[2:].replace("-", "_")


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
    for command, (summary, positionals, options, _) in COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for name in positionals:
            cmd.add_argument(name)
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
    return parser


def _fast_args(argv):
    """`vars(build_parser().parse_args(argv))` for a command, its positional
    arguments and distinct full `--flag value` pairs, without `argparse`;
    None for any other command line.

    No value may start with `-`, and a value `argparse` would refuse gives
    None, so `argparse` reads every command line it might read differently
    and writes every message and exit code.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options, _ = COMMANDS[argv[0]]
    n = 1 + len(positionals)
    if len(argv) < n or (len(argv) - n) % 2:
        return None
    if any(value.startswith("-") for value in argv[1:n]):
        return None
    args = dict(zip(positionals, argv[1:n]), command=argv[0])
    args.update((_dest(flag), kwargs.get("default")) for flag, kwargs in options)
    declared, seen = dict(options), set()
    for flag, value in zip(argv[n::2], argv[n + 1::2]):
        kwargs = declared.get(flag)
        if kwargs is None or flag in seen or value.startswith("-"):
            return None
        seen.add(flag)
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        args[_dest(flag)] = value
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        parser = build_parser()
        args = vars(parser.parse_args(argv))
        if args["command"] is None:
            parser.print_help()
            return EXIT_USAGE
    from .polyring import ChowError

    try:
        if args["degree_bound"] is None:
            args["degree_bound"] = _default_degree_bound()
        if args["out"]:
            _check_writable(args["out"])
        return COMMANDS[args["command"]][3](args)
    except ChowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def entry():
    """`main` for a process of its own: the console script and
    `python -m chowcalc.cli`.  Returns main's exit code."""
    import gc

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
