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
import json
import os
import sys
from typing import Optional

from .ast_nodes import SpecDecl
from .compiler import CompileResult, compile_units, resolve_entry
from .prelude import intrinsic_handlers
from .pretty import pretty_print
from .source import SourceFile
from .values import render_value

JSON_VERSION = 1
DEFAULT_SHOTS = 1

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


def _env_default(name: str, fallback):
    return os.environ.get(f"QDSL_{name}", fallback)


def _env_int(name: str, fallback: Optional[int]) -> Optional[int]:
    raw = os.environ.get(f"QDSL_{name}")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"QDSL_{name} must be an integer, got {raw!r}")


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
            "--entry",
            default=_env_default("ENTRY", None),
            help="entry operation (default: a unique Main in your files)",
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


def _print_diagnostics(result: CompileResult, sources: Sources) -> None:
    for d in result.diagnostics:
        print(d.render(sources.get(d.file)), file=sys.stderr)


def _diagnostics_json(result: CompileResult, sources: Sources) -> list[dict]:
    return [d.to_json(sources.get(d.file)) for d in result.diagnostics]


def _load(files: list[str]) -> tuple[CompileResult, Sources]:
    units = []
    for path in files:
        if not os.path.exists(path):
            raise UsageError(f"no such file: {path}")
        with open(path, "r", encoding="utf-8") as handle:
            units.append((path, handle.read()))
    # The prelude is checked clean on its own, so only these files can hold
    # a diagnostic.
    sources = {name: SourceFile(name, text) for name, text in units}
    return compile_units(units), sources


def _cmd_check(args) -> int:
    result, sources = _load(args.files)
    emit = result.ok and args.emit_specializations
    emitted = _specializations(result) if emit else []
    if args.json:
        payload = {
            "version": JSON_VERSION,
            "command": "check",
            "ok": result.ok,
            "diagnostics": _diagnostics_json(result, sources),
        }
        if args.emit_specializations:
            payload["specializations"] = emitted
        print(json.dumps(payload, indent=2))
    else:
        _print_diagnostics(result, sources)
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
            value = _env_int(name.upper(), getattr(RunOptions, name))
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
    payload = []
    for ids, amplitudes in dumps:
        payload.append(
            {
                "qubits": list(ids),
                "amplitudes": [[float(a.real), float(a.imag)] for a in amplitudes],
            }
        )
    return payload


def _cmd_run(args, tracing: bool) -> int:
    result, sources = _load(args.files)
    if not result.ok:
        if args.json:
            payload = {
                "version": JSON_VERSION,
                "command": "run",
                "ok": False,
                "diagnostics": _diagnostics_json(result, sources),
            }
            print(json.dumps(payload, indent=2))
        else:
            _print_diagnostics(result, sources)
        return EXIT_DIAGNOSTICS

    entry, err = resolve_entry(result, args.entry)
    if err is not None:
        raise UsageError(err)

    shots = args.shots
    if shots is None:
        shots = _env_int("SHOTS", DEFAULT_SHOTS)
    if shots < 1:
        raise UsageError("--shots must be at least 1")
    seed = args.seed
    if seed is None:
        seed = _env_int("SEED", None)

    options = _run_options(args)
    # The runtime, and numpy with it, loads only once a program is ready to run.
    from .runtime import QdslFailure, run_shots

    trace_cb = None
    if tracing:
        trace_cb = lambda shot, line: print(f"[{shot}] {line}")

    try:
        outcomes = run_shots(intrinsic_handlers(), entry, shots, seed, options, trace_cb)
    except QdslFailure as failure:
        print(f"runtime error: {failure.message}", file=sys.stderr)
        return EXIT_RUNTIME

    rendered = [render_value(s.value) for s in outcomes]
    histogram: dict[str, int] = {}
    for text in sorted(set(rendered)):
        histogram[text] = rendered.count(text)

    if args.json:
        payload = {
            "version": JSON_VERSION,
            "command": "run",
            "ok": True,
            "entry": entry.qualified,
            "shots": shots,
            "seed": seed,
            "results": rendered,
            "histogram": histogram,
            "messages": [s.messages for s in outcomes],
        }
        if args.dump_state:
            payload["state_dumps"] = [
                _dump_payload(s.state_dumps) for s in outcomes
            ]
        print(json.dumps(payload, indent=2))
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
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "run":
            return _cmd_run(args, tracing=False)
        if args.command == "trace":
            return _cmd_run(args, tracing=True)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
