"""Command-line front end.

Subcommands:

* ``gamma-scan``  -- closed-form vs numerically evaluated Gamma over a polar-angle sweep
* ``optimize``    -- extremal Gamma and its settings for any input state, in closed form
* ``sample``      -- finite-shot Monte Carlo estimate of Gamma with tallies
* ``lhv``         -- the 16 deterministic local strategies and the classical hull
* ``qmap``        -- joint Q function tabulated over a product grid of directions

States are given as inline JSON or a path to a JSON file, in one of three
shapes: ``{"family": "u"|"v"|"eta", "varphi": ..., "vartheta": ...}``,
``{"amps": [[re, im], [re, im], [re, im], [re, im]]}`` (order ++, +-, -+, --),
or ``{"product": {"n1": [theta, phi], "n2": [theta, phi]}}``.

``main(argv)`` returns every exit code and raises no ``SystemExit``: 0 for
success and for ``--help``, 2 when the command line is malformed (argparse
rejects it, flag ranges included), 3 when a library constructor or parser
rejects a value (a state or settings spec, ``--shots``, ``--seed``,
``--efficiency``).  Scans and maps are CSV with a header row; single-result
commands emit JSON.  Angles are always radians.  ``qmap --grid`` is capped at
24 (331 776 rows), because the map grows as grid**4, and ``gamma-scan
--grid`` at 10 000 (a few seconds of ``gamma`` calls).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bell import (
    CHSettings,
    analytic_gamma_u,
    analytic_gamma_v,
    family_state,
    gamma,
    lhv_vertices,
    optimize_gamma,
)
from .ramsey import ShotPlan, estimate_gamma, estimate_q
from .su2 import (
    BlochDirection,
    TwoAtomState,
    _q_tables,
    coherent_state,
    entanglement_angle,
    make_direction,
)

_VIOLATION_MARGIN = 1e-6

# qmap writes grid**4 rows; grid 24 is 331 776 rows, about 73 MB of JSON
_QMAP_MAX_GRID = 24

# gamma-scan evaluates gamma once per sample, about 0.3 ms each: 10 000 is ~3 s
_SCAN_MAX_GRID = 10_000


def _int_between(low: int, high: int):
    """argparse ``type=`` for an integer in [low, high]; a miss is a usage error naming both bounds."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be an integer from {low} to {high}, got {text!r}")
        return value

    return parse


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _direction(obj, key: str, kind: str) -> BlochDirection:
    """The direction at obj[key], a [theta, phi] pair; kind ("settings", "product") names the spec."""
    try:
        theta, phi = (float(x) for x in obj[key])
    except KeyError:
        raise ValueError(f"{kind} spec is missing key {key!r}") from None
    except (TypeError, ValueError):
        raise ValueError(f"{kind} {key!r} must be a [theta, phi] pair") from None
    return make_direction(theta, phi)


def _load_state(spec: str) -> TwoAtomState:
    text = spec
    if not spec.lstrip().startswith("{"):
        text = Path(spec).read_text()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("state spec must be a JSON object")
    if "family" in obj:
        vartheta = obj.get("vartheta")
        try:
            varphi = float(obj.get("varphi", 0.0))
            vartheta = None if vartheta is None else float(vartheta)
        except (TypeError, ValueError):
            raise ValueError("family spec 'varphi' and 'vartheta' must be numbers") from None
        return family_state(str(obj["family"]), varphi=varphi, vartheta=vartheta)
    if "amps" in obj:
        pairs = obj["amps"]
        try:
            amps = np.array([complex(float(re), float(im)) for re, im in pairs])
        except (TypeError, ValueError):
            raise ValueError("amps must hold four [re, im] pairs (order ++, +-, -+, --)") from None
        if amps.shape != (4,):
            raise ValueError("amps must hold four [re, im] pairs (order ++, +-, -+, --)")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-6:
            print(f"warning: state norm {norm:.9g} deviates from 1; normalizing", file=sys.stderr)
        return TwoAtomState(amps)
    if "product" in obj:
        n1 = _direction(obj["product"], "n1", "product")
        n2 = _direction(obj["product"], "n2", "product")
        return TwoAtomState(np.kron(coherent_state(0.5, n1).amps, coherent_state(0.5, n2).amps))
    raise ValueError("state spec needs one of the keys 'family', 'amps' or 'product'")


def _state_json(psi: TwoAtomState) -> dict:
    return {"amps": [[float(a.real), float(a.imag)] for a in psi.amps]}


def _settings_json(s: CHSettings) -> dict:
    directions = {f.name: getattr(s, f.name) for f in dataclasses.fields(CHSettings)}
    return {name: [n.theta, n.phi] for name, n in directions.items()}


def _estimate_json(e) -> dict:
    return {"value": e.value, "std_error": e.std_error}


def _parse_settings(spec: str) -> CHSettings:
    obj = json.loads(spec)
    if not isinstance(obj, dict):
        raise ValueError("settings spec must be a JSON object")
    return CHSettings(*(_direction(obj, f.name, "settings") for f in dataclasses.fields(CHSettings)))


def cmd_gamma_scan(args) -> None:
    analytic = analytic_gamma_u if args.family == "u" else analytic_gamma_v
    psi = family_state(args.family, varphi=args.varphi)
    rows = []
    for theta in np.linspace(0.0, math.pi, args.grid):
        theta = float(theta)
        exact = analytic(theta, args.offset, 0.0, args.varphi)
        settings = CHSettings.zero_reference(
            make_direction(theta, args.offset), make_direction(theta, 0.0)
        )
        numeric = gamma(psi, settings).gamma
        rows.append((theta, exact, numeric, abs(exact - numeric)))
    if args.format == "json":
        payload = [
            {"theta": t, "gamma_analytic": ga, "gamma_numeric": gn, "abs_diff": d}
            for t, ga, gn, d in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["theta,gamma_analytic,gamma_numeric,abs_diff"]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)


def cmd_optimize(args) -> None:
    psi = _load_state(args.state)
    result = optimize_gamma(psi, args.objective)
    value = result.gamma
    report = {
        "objective": args.objective,
        "gamma": value,
        "violates": bool(value < -1.0 - _VIOLATION_MARGIN or value > _VIOLATION_MARGIN),
        "schmidt_angle": entanglement_angle(psi),
        "settings": _settings_json(result.settings),
        "terms": result.terms,
        "state": _state_json(psi),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def cmd_sample(args) -> None:
    psi = _load_state(args.state)
    plan = ShotPlan(shots=args.shots, seed=args.seed, efficiency=args.efficiency)
    if args.settings == "optimal":
        # the minimum and the maximum sit equally far outside [-1, 0]
        # (Gamma_min = -1 - Gamma_max), so the minimizing settings serve both
        exact = optimize_gamma(psi, "minimize")
    else:
        exact = gamma(psi, _parse_settings(args.settings))
    est, tallies = estimate_gamma(psi, exact.settings, plan)
    report = {
        "shots": plan.shots,
        "seed": plan.seed,
        "efficiency": plan.efficiency,
        "exact_gamma": exact.gamma,
        "exact_gamma_at_efficiency": exact.at_efficiency(plan.efficiency),
        "gamma_estimate": _estimate_json(est),
        "settings": _settings_json(exact.settings),
        "tallies": {key: dataclasses.asdict(tally) for key, tally in tallies.items()},
        "q_estimates": {
            key: {name: _estimate_json(q) for name, q in zip(("q1", "q2", "q12"), estimate_q(tally))}
            for key, tally in tallies.items()
        },
        "state": _state_json(psi),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def cmd_lhv(args) -> None:
    vertices = lhv_vertices()
    values = [v for _, v in vertices]
    if args.format == "json":
        payload = {
            "vertices": [{"strategy": list(bits), "gamma": value} for bits, value in vertices],
            "min": min(values),
            "max": max(values),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["q1_a,q1_a_prime,q2_b,q2_b_prime,gamma"]
        lines += [f"{bits[0]},{bits[1]},{bits[2]},{bits[3]},{_fmt(value)}" for bits, value in vertices]
        lines.append(f"# min = {_fmt(min(values))}, max = {_fmt(max(values))}")
        _emit("\n".join(lines) + "\n", args.out)


def cmd_qmap(args) -> None:
    psi = _load_state(args.state)
    thetas = np.linspace(0.0, math.pi, args.grid)
    phis = np.linspace(0.0, 2.0 * math.pi, args.grid, endpoint=False)
    th = np.repeat(thetas, args.grid)
    ph = np.tile(phis, args.grid)
    ph[(th == 0.0) | (th == math.pi)] = 0.0  # the poles carry phi = 0, as BlochDirection has it
    q12, q1, q2 = _q_tables(psi.amp_matrix, th, ph)
    # row (i, k) reads head[i] + mid[k] + q12[i, k] + tail1[i] + tail2[k]; only
    # the q12 values are formatted per row, every other piece once per direction
    angles = list(zip(th.tolist(), ph.tolist()))
    if args.format == "json":
        num = repr
        head = [f'  {{\n    "theta1": {num(t)},\n    "phi1": {num(p)},\n    "theta2": ' for t, p in angles]
        mid = [f'{num(t)},\n    "phi2": {num(p)},\n    "q12": ' for t, p in angles]
        tail1 = [f',\n    "q1": {num(q)},\n    "q2": ' for q in q1.tolist()]
        tail2 = [f"{num(q)}\n  }}" for q in q2.tolist()]
        start, sep, end = "[\n", ",\n", "\n]\n"
    else:
        num = _fmt
        head = [f"{num(t)},{num(p)}," for t, p in angles]
        mid = head
        tail1 = [f",{num(q)}," for q in q1.tolist()]
        tail2 = [num(q) for q in q2.tolist()]
        start, sep, end = "theta1,phi1,theta2,phi2,q12,q1,q2\n", "\n", "\n"
    rows = [
        h + m + num(q) + t1 + t2
        for h, t1, q_row in zip(head, tail1, q12.tolist())
        for m, q, t2 in zip(mid, q_row, tail2)
    ]
    _emit(start + sep.join(rows) + end, args.out)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call to main and then reused.

    parse_args keeps no state between calls, so one parser serves any number
    of in-process commands.
    """
    parser = argparse.ArgumentParser(
        prog="atombell",
        description="Bell tests with two two-level atoms via population spectroscopy of Q functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("gamma-scan", help="closed-form vs numeric Gamma over a theta sweep")
    scan.add_argument("--family", choices=("u", "v"), required=True)
    scan.add_argument("--varphi", type=float, default=0.0, help="family phase (radians)")
    scan.add_argument(
        "--grid",
        type=_int_between(2, _SCAN_MAX_GRID),
        default=25,
        help=f"number of theta samples in [0, pi], 2 to {_SCAN_MAX_GRID}",
    )
    scan.add_argument(
        "--offset",
        type=float,
        default=0.0,
        help="azimuth combination: phi - phi' for u, phi + phi' for v (radians)",
    )
    scan.add_argument("--out")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.set_defaults(func=cmd_gamma_scan)

    opt = sub.add_parser(
        "optimize", help="closed-form extremal Gamma and its analyzer settings (Schmidt-frame poles)"
    )
    opt.add_argument("--state", required=True, help="inline JSON or path to a JSON state spec")
    opt.add_argument(
        "--objective",
        choices=("minimize", "maximize"),
        default="minimize",
        help="maximize gives sin^2(2 vartheta) / (4 (1 + sin 2 vartheta)) at Schmidt angle vartheta; "
        "minimize gives -1 minus that",
    )
    opt.add_argument("--out")
    opt.set_defaults(func=cmd_optimize)

    smp = sub.add_parser("sample", help="finite-shot Monte Carlo estimate of Gamma")
    smp.add_argument("--state", required=True)
    smp.add_argument(
        "--settings",
        default="optimal",
        help='"optimal" (the closed-form minimizing settings) or JSON '
        '{"a": [theta, phi], "a_prime": ..., "b": ..., "b_prime": ...}',
    )
    smp.add_argument("--shots", type=int, default=100_000)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--efficiency", type=float, default=1.0)
    smp.add_argument("--out")
    smp.set_defaults(func=cmd_sample)

    lhv = sub.add_parser("lhv", help="deterministic local strategies and the classical hull")
    lhv.add_argument("--out")
    lhv.add_argument("--format", choices=("csv", "json"), default="csv")
    lhv.set_defaults(func=cmd_lhv)

    qmap = sub.add_parser("qmap", help="joint Q function over a product grid of directions")
    qmap.add_argument("--state", required=True)
    qmap.add_argument(
        "--grid",
        type=_int_between(2, _QMAP_MAX_GRID),
        default=8,
        help=f"points per angle, 2 to {_QMAP_MAX_GRID} (the map has grid**4 rows)",
    )
    qmap.add_argument("--out")
    qmap.add_argument("--format", choices=("csv", "json"), default="csv")
    qmap.set_defaults(func=cmd_qmap)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 0 success or --help, 2 malformed command line, 3 rejected value."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (code 2) or the help (code 0)
        return exc.code
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
