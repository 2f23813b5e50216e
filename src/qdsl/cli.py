"""Command-line interface.

Subcommands:
  check    parse and type-check files, report diagnostics
  run     execute an entry point for a number of shots
  trace   run one or more shots while printing every gate, allocation,
          measurement and message as it happens

Flags can also be supplied through QDSL_* environment variables (for
example QDSL_SHOTS or QDSL_SEED); explicit flags win.

Exit codes: 0 success, 1 compile diagnostics, 2 usage errors, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from typing import Optional

from .ast_nodes import SpecDecl
from .compiler import CompileResult, compile_units, resolve_entry
from .prelude import intrinsic_handlers
from .pretty import pretty_print
from .source import SourceFile

JSON_VERSION = 1
DEFAULT_SHOTS = 1

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


def _fill_from_environment(args) -> None:
    """Sets each run flag left unset from its QDSL_<NAME> variable, if any."""
    for name in ("entry", "shots", "seed", "max_qubits", "max_iterations"):
        variable = f"QDSL_{name.upper()}"
        raw = os.environ.get(variable)
        if raw is None or getattr(args, name) is not None:
            continue
        if name != "entry":
            try:
                raw = int(raw)
            except ValueError:
                raise UsageError(f"{variable} must be an integer, got {raw!r}")
        setattr(args, name, raw)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdsl", description="Compile and simulate quantum DSL programs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and type-check source files")
    check.add_argument("files", nargs="+", help="source files (.qds)")
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.add_argument(
        "--emit-specializations",
        action="store_true",
        help="print the generated adjoint/controlled bodies",
    )

    def add_run_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("files", nargs="+", help="source files (.qds)")
        p.add_argument(
            "--entry", help="entry operation (default: a unique Main in your files)"
        )
        p.add_argument("--shots", type=int, default=None, help="number of runs")
        p.add_argument("--seed", type=int, default=None, help="deterministic seed")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        release = p.add_mutually_exclusive_group()
        release.add_argument(
            "--strict-release",
            dest="strict_release",
            action="store_true",
            default=True,
            help="require released qubits to be |0> (default)",
        )
        release.add_argument(
            "--permissive-release",
            dest="strict_release",
            action="store_false",
            help="measure and reset qubits that are released dirty",
        )
        p.add_argument(
            "--elide-diagnostics",
            action="store_true",
            help="skip unit-returning function calls (assertions, messages)",
        )
        p.add_argument(
            "--dump-state",
            action="store_true",
            help="print the state before each outermost release",
        )
        p.add_argument("--max-qubits", type=int, default=None)
        p.add_argument("--max-iterations", type=int, default=None)

    run_p = sub.add_parser("run", help="execute an entry point")
    add_run_arguments(run_p)

    trace_p = sub.add_parser("trace", help="execute while printing every event")
    add_run_arguments(trace_p)

    return parser


Sources = dict[str, SourceFile]


def _print_diagnostics(
    result: CompileResult, sources: Sources, command: str, as_json: bool, **extra
) -> None:
    """The diagnostics as text on stderr, or as a JSON envelope with `extra`."""
    if not as_json:
        for d in result.diagnostics:
            print(d.render(sources.get(d.file)), file=sys.stderr)
        return
    diagnostics = [d.to_json(sources.get(d.file)) for d in result.diagnostics]
    _envelope(command, result.ok, diagnostics=diagnostics, **extra)


def _envelope(command: str, ok: bool, **fields) -> None:
    """Prints a command's one JSON document: version, command, ok, then `fields`."""
    payload = {"version": JSON_VERSION, "command": command, "ok": ok, **fields}
    print(json.dumps(payload, indent=2))


def _load(files: list[str]) -> tuple[CompileResult, Sources]:
    units = []
    for path in files:
        if not os.path.exists(path):
            raise UsageError(f"no such file: {path}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                units.append((path, handle.read()))
        except UnicodeDecodeError:
            raise UsageError(f"not UTF-8 text: {path}")
    # The prelude is checked clean on its own, so only these files can hold
    # a diagnostic.
    sources = {name: SourceFile(name, text) for name, text in units}
    return compile_units(units), sources


def _cmd_check(args) -> int:
    result, sources = _load(args.files)
    emitted = _specializations(result) if result.ok and args.emit_specializations else []
    extra = {"specializations": emitted} if args.emit_specializations else {}
    _print_diagnostics(result, sources, "check", args.json, **extra)
    if not args.json:
        if result.ok:
            print(f"ok: {len(args.files)} file(s) checked")
        for spec in emitted:
            print(f"// {spec['callable']}")
            print(spec["source"])
    return EXIT_OK if result.ok else EXIT_DIAGNOSTICS


def _specializations(result: CompileResult) -> list[dict]:
    """Each generated specialization block, as source text."""
    out = []
    for sym in result.user_callables():
        printed: set[int] = set()  # `controlled adjoint self` repeats an entry
        for kind, entry in sym.specializations.items():
            if not entry.generated or id(entry) in printed:
                continue
            printed.add(id(entry))
            # Render with an explicit block even though the source said auto.
            decl = SpecDecl(
                entry.block.span, kind, block=entry.block, ctl_param=entry.ctl_param
            )
            source = pretty_print(decl)
            out.append(
                {"callable": sym.qualified, "kind": kind.value, "source": source}
            )
    return out


def _run_options(args):
    from .runtime import RunOptions

    limits = {}
    for name in ("max_qubits", "max_iterations"):
        value = getattr(args, name)
        if value is None:
            continue
        if value < 0:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must not be negative, got {value}")
        limits[name] = value
    return RunOptions(
        strict_release=args.strict_release,
        elide_diagnostics=args.elide_diagnostics,
        dump_state=args.dump_state,
        **limits,
    )


def _basis_label(index: int, ids: list[int]) -> str:
    # Bit j of the index tracks the j-th smallest id; print in id order so
    # the leftmost character matches the first qubit in the header.
    bits = "".join(str((index >> j) & 1) for j in range(len(ids)))
    return f"|{bits}>"


def _dump_payload(dumps) -> list:
    return [
        {"qubits": list(ids), "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
        for ids, amps in dumps
    ]


def _cmd_run(args, tracing: bool) -> int:
    result, sources = _load(args.files)
    if not result.ok:
        _print_diagnostics(result, sources, "run", args.json)
        return EXIT_DIAGNOSTICS

    _fill_from_environment(args)
    entry, err = resolve_entry(result, args.entry)
    if err is not None:
        raise UsageError(err)
    shots = DEFAULT_SHOTS if args.shots is None else args.shots
    if shots < 1:
        raise UsageError("--shots must be at least 1")

    options = _run_options(args)
    # The runtime loads only once a program is ready to run, and numpy only
    # once its state first holds two qubits.
    from .runtime import QdslFailure, render, run_shots

    # Under --json, each shot's trace lines go into the envelope instead, in
    # lists made as the shots run; returning True has the runtime charge each.
    traces: list[list[str]] = []
    trace_cb = None
    if tracing and args.json:
        def trace_cb(shot: int, line: str) -> bool:
            while len(traces) <= shot:
                traces.append([])
            traces[shot].append(line)
            return True
    elif tracing:
        trace_cb = lambda shot, line: print(f"[{shot}] {line}")

    try:
        outcomes = run_shots(intrinsic_handlers(), entry, shots, args.seed, options, trace_cb)
        # A value whose text would not fit the memory budget fails the run.
        rendered = [render([s.value]) for s in outcomes]
    except QdslFailure as failure:
        print(f"runtime error: {failure.message}", file=sys.stderr)
        return EXIT_RUNTIME

    histogram = dict(sorted(collections.Counter(rendered).items()))

    if args.json:
        extra = {}
        if args.dump_state:
            extra["state_dumps"] = [_dump_payload(s.state_dumps) for s in outcomes]
        if tracing:  # the shots after the last trace line traced nothing
            extra["trace"] = traces + [[] for _ in range(len(traces), shots)]
        _envelope(
            "run", True, entry=entry.qualified, shots=shots, seed=args.seed,
            results=rendered, histogram=histogram,
            messages=[s.messages for s in outcomes], **extra,
        )
        return EXIT_OK

    for index, shot in enumerate(outcomes):
        for message in shot.messages:
            print(f"[{index}] {message}")
        if args.dump_state:
            for ids, amplitudes in shot.state_dumps:
                labels = " ".join(f"q{q}" for q in ids)
                print(f"[{index}] state dump ({labels}):")
                for i, amp in enumerate(amplitudes):
                    if abs(amp) < 5e-13:
                        continue
                    label = _basis_label(i, ids)
                    print(f"[{index}]   {label} {amp.real:+.12f}{amp.imag:+.12f}i")
        print(f"shot {index}: {rendered[index]}")
    if shots > 1:
        print("histogram:")
        for key, count in histogram.items():
            print(f"  {key}: {count}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        # argparse has already rejected any other command.
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_run(args, tracing=args.command == "trace")
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
