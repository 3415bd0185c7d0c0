"""Command-line front end.

Machine-readable output (JSON, DOT) goes to stdout or --output; progress and
summaries go to stderr. Exit codes: 0 distinguishable or plain success,
10 indistinguishable, 20 undecided or budget exhausted, 1 usage/parse error.
`verify` re-checks a verdict file written by `decide` against its states: it
exits 0 when every check passes and 1 when one fails (each failed check is
printed on stderr) or the file is not a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import serialize
from .criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    KIND_DUAL_WITNESS,
    DecideOptions,
    analyze,
    decide,
    verify_certificate,
)
from .errors import LoccGraphError, SearchBudgetExceeded
from .families import FAMILIES, generate
from .linalg import DEFAULT_TOL, Tolerance

_EXIT_UNKNOWN = 20


def _build_parser() -> argparse.ArgumentParser:
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--zero-tol", type=float, default=DEFAULT_TOL.zero_tol)
    tolerances.add_argument("--psd-tol", type=float, default=DEFAULT_TOL.psd_tol)
    tolerances.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_tol)
    common = argparse.ArgumentParser(add_help=False, parents=[tolerances])
    common.add_argument("--input", help="input JSON file (state set or graph)")
    common.add_argument("--output", help="write machine output here instead of stdout")
    common.add_argument(
        "--direction",
        choices=["alice-first", "bob-first"],
        default="alice-first",
        help="who measures first",
    )
    common.add_argument("--max-iter", type=int, default=60000,
                        help="feasibility search iteration cap")
    common.add_argument("--sandwich-budget", type=int, default=25,
                        help="free-edge cap for the chordal sandwich search")

    parser = argparse.ArgumentParser(
        prog="loccgraph",
        description="One-way local distinguishability of orthonormal product states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common],
                   help="overlap graphs, chordality, and graph parameters")
    sub.add_parser("decide", parents=[common],
                   help="full verdict with certificate")
    sub.add_parser("decompose", parents=[common],
                   help="the admissible PSD splitting of the measuring side's Gram "
                        "matrix that decide's verdict carries")
    sub.add_parser("protocol", parents=[common],
                   help="synthesize and simulate a measurement protocol")
    gen = sub.add_parser("generate", parents=[common],
                         help="emit a built-in family as a state-set file")
    gen.add_argument("family",
                     help="family spec, e.g. " + ", ".join(FAMILIES[:4]) + ", bullseye:4")
    gen.add_argument("--seed", type=int, default=0,
                     help="seed of the randomised families")
    sub.add_parser("export-dot", parents=[common],
                   help="overlap graphs in DOT format")
    ver = sub.add_parser("verify", parents=[tolerances],
                         help="re-check a verdict file against its state set")
    ver.add_argument("--input", help="state-set JSON file")
    ver.add_argument("--verdict", required=True,
                     help="verdict JSON file written by decide")
    return parser


def _tolerance(args) -> Tolerance:
    return Tolerance(zero_tol=args.zero_tol, psd_tol=args.psd_tol,
                     rank_tol=args.rank_tol)


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise LoccGraphError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise LoccGraphError(f"{path} is not valid JSON: {exc}") from None


def _read_input(args) -> dict:
    if not args.input:
        raise LoccGraphError("this command needs --input")
    return _read_json(args.input)


def _load_states(args):
    return serialize.states_from_json(_read_input(args))


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _say(msg: str):
    print(msg, file=sys.stderr)


def _direction(args) -> str:
    return ALICE_FIRST if args.direction == "alice-first" else BOB_FIRST


def _cmd_analyze(args) -> int:
    states = _load_states(args)
    work = states if _direction(args) == ALICE_FIRST else states.swapped()
    rep = analyze(work, _tolerance(args))
    _emit_json(args, serialize.jsonify(rep))
    _say(
        f"n={states.n} d_eff={rep.d_eff} "
        f"measuring-side chordal={rep.alice_chordality.chordal} "
        f"admissible-host chordal={rep.host_chordality.chordal} "
        f"alpha={rep.alpha_host} chi={rep.chi_bob}"
    )
    return 0


def _options(args) -> DecideOptions:
    return DecideOptions(
        tol=_tolerance(args),
        max_iter=args.max_iter,
        sandwich_budget=args.sandwich_budget,
    )


def _cmd_decide(args) -> int:
    states = _load_states(args)
    verdict = decide(states, _direction(args), _options(args))
    _emit_json(args, serialize.verdict_to_json(verdict))
    _say(f"{verdict.status} via {verdict.certificate.kind}")
    return verdict.exit_code


def _cmd_decompose(args) -> int:
    states = _load_states(args)
    verdict = decide(states, _direction(args), _options(args))
    kind = verdict.certificate.kind
    if verdict.status == DISTINGUISHABLE:
        dec = verdict.decomposition
        _emit_json(args, serialize.jsonify(dec))
        _say(f"{len(dec.terms)} rank-one terms on "
             f"{len({t.support for t in dec.terms})} admissible supports via {kind}")
        return 0
    if kind == KIND_DUAL_WITNESS:
        data = verdict.certificate.data
        _say(f"no admissible splitting: dual witness after "
             f"{data['iterations']} iterations, shifted trace "
             f"{data['shifted_inner_product']:.3g}")
    else:
        _say(f"no splitting: verdict is {verdict.status} via {kind}")
    return verdict.exit_code


def _cmd_protocol(args) -> int:
    states = _load_states(args)
    verdict = decide(states, _direction(args), _options(args))
    if verdict.protocol is None:
        _say(f"no protocol: verdict is {verdict.status} "
             f"via {verdict.certificate.kind}")
        return verdict.exit_code
    payload = {
        "protocol": serialize.protocol_to_json(verdict.protocol),
        "simulation": serialize.jsonify(verdict.simulation),
    }
    _emit_json(args, payload)
    _say(f"min success {verdict.simulation.min_success:.12f} "
         f"over {len(verdict.simulation.per_state)} states")
    return 0


def _cmd_generate(args) -> int:
    states = generate(args.family, seed=args.seed)
    _emit_json(args, serialize.states_to_json(states))
    _say(f"{args.family}: {states.n} states in "
         f"C^{states.d_alice} x C^{states.d_bob}")
    return 0


def _cmd_export_dot(args) -> int:
    data = _read_input(args)
    if isinstance(data, dict) and "states" in data:
        states = serialize.states_from_json(data)
        graphs = states.build_graphs(_tolerance(args))
        text = (serialize.dot_graph(graphs.alice, "alice", states.labels)
                + serialize.dot_graph(graphs.bob, "bob", states.labels))
    elif isinstance(data, dict) and "edges" in data:
        text = serialize.dot_graph(serialize.graph_from_json(data))
    else:
        raise LoccGraphError("input is neither a state-set nor a graph file")
    _emit(args, text)
    return 0


def _cmd_verify(args) -> int:
    states = _load_states(args)
    tol = _tolerance(args)
    verdict = serialize.verdict_from_json(_read_json(args.verdict), states, tol)
    outcome = verify_certificate(states, verdict, tol)
    for name, ok, detail in outcome.checks:
        if not ok:
            _say(f"failed: {name}" + (f" ({detail})" if detail else ""))
    _say(f"{verdict.status} via {verdict.certificate.kind}: "
         f"{'verified' if outcome.ok else 'does not verify'}")
    return 0 if outcome.ok else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "decide": _cmd_decide,
    "decompose": _cmd_decompose,
    "protocol": _cmd_protocol,
    "generate": _cmd_generate,
    "export-dot": _cmd_export_dot,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SearchBudgetExceeded as exc:
        _say(f"search budget exhausted: {exc}")
        return _EXIT_UNKNOWN
    except LoccGraphError as exc:
        _say(f"error: {exc}")
        return 1
    except ValueError as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
