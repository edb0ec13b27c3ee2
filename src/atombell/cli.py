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

Exit codes: 0 success, 2 usage error, 3 invalid input.  Scans and maps are
CSV with a header row; single-result commands emit JSON.  Angles are always
radians.  ``qmap --grid`` is capped at 24 (331 776 rows), because the map
grows as grid**4, and ``gamma-scan --grid`` at 10 000 (a few seconds of
``gamma`` calls).
"""

from __future__ import annotations

import argparse
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


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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
        spec_p = obj["product"]
        try:
            theta1, phi1 = (float(x) for x in spec_p["n1"])
            theta2, phi2 = (float(x) for x in spec_p["n2"])
        except (TypeError, KeyError, ValueError):
            raise ValueError(
                'product spec must look like {"n1": [theta, phi], "n2": [theta, phi]}'
            ) from None
        n1 = make_direction(theta1, phi1)
        n2 = make_direction(theta2, phi2)
        return TwoAtomState(np.kron(coherent_state(0.5, n1).amps, coherent_state(0.5, n2).amps))
    raise ValueError("state spec needs one of the keys 'family', 'amps' or 'product'")


def _state_json(psi: TwoAtomState) -> dict:
    return {"amps": [[float(a.real), float(a.imag)] for a in psi.amps]}


def _settings_json(s: CHSettings) -> dict:
    return {
        "a": [s.a.theta, s.a.phi],
        "a_prime": [s.a_prime.theta, s.a_prime.phi],
        "b": [s.b.theta, s.b.phi],
        "b_prime": [s.b_prime.theta, s.b_prime.phi],
    }


def _parse_settings(spec: str) -> CHSettings:
    obj = json.loads(spec)
    if not isinstance(obj, dict):
        raise ValueError("settings spec must be a JSON object")

    def direction(key):
        if key not in obj:
            raise ValueError(f"settings spec is missing key {key!r}")
        try:
            theta, phi = (float(x) for x in obj[key])
        except (TypeError, ValueError):
            raise ValueError(f"settings {key!r} must be a [theta, phi] pair") from None
        return make_direction(theta, phi)

    return CHSettings(direction("a"), direction("a_prime"), direction("b"), direction("b_prime"))


def cmd_gamma_scan(args) -> None:
    if not 2 <= args.grid <= _SCAN_MAX_GRID:
        raise _UsageError(f"--grid must be between 2 and {_SCAN_MAX_GRID}")
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
    if args.shots < 1:
        raise _UsageError("--shots must be at least 1")
    psi = _load_state(args.state)
    plan = ShotPlan(shots=args.shots, seed=args.seed, efficiency=args.efficiency)
    if args.settings == "optimal":
        # the minimum and the maximum sit equally far outside [-1, 0]
        # (Gamma_min = -1 - Gamma_max), so the minimizing settings serve both
        exact = optimize_gamma(psi, "minimize")
    else:
        exact = gamma(psi, _parse_settings(args.settings))
    # missed detections scale the pair terms by e**2 and the marginals by e
    e, t = plan.efficiency, exact.terms
    pair = t["q12_ab"] + t["q12_apb"] + t["q12_abp"] - t["q12_apbp"]
    exact_at_efficiency = e * e * pair - e * t["q1_a"] - e * t["q2_b"]
    est, tallies = estimate_gamma(psi, exact.settings, plan)
    q_reports = {}
    tally_reports = {}
    for key, tally in tallies.items():
        q1, q2, q12 = estimate_q(tally)
        q_reports[key] = {
            "q1": {"value": q1.value, "std_error": q1.std_error},
            "q2": {"value": q2.value, "std_error": q2.std_error},
            "q12": {"value": q12.value, "std_error": q12.std_error},
        }
        tally_reports[key] = {
            "n_pp": tally.n_pp,
            "n_pm": tally.n_pm,
            "n_mp": tally.n_mp,
            "n_mm": tally.n_mm,
        }
    report = {
        "shots": plan.shots,
        "seed": plan.seed,
        "efficiency": plan.efficiency,
        "exact_gamma": exact.gamma,
        "exact_gamma_at_efficiency": exact_at_efficiency,
        "gamma_estimate": {"value": est.value, "std_error": est.std_error},
        "settings": _settings_json(exact.settings),
        "tallies": tally_reports,
        "q_estimates": q_reports,
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
    if not 2 <= args.grid <= _QMAP_MAX_GRID:
        raise _UsageError(f"--grid must be between 2 and {_QMAP_MAX_GRID}")
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


def build_parser() -> argparse.ArgumentParser:
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
        type=int,
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
        type=int,
        default=8,
        help=f"points per angle, 2 to {_QMAP_MAX_GRID} (the map has grid**4 rows)",
    )
    qmap.add_argument("--out")
    qmap.add_argument("--format", choices=("csv", "json"), default="csv")
    qmap.set_defaults(func=cmd_qmap)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call to main, then reused; parse_args keeps no state
    # between calls, so one parser serves any number of in-process commands
    return build_parser()


def main(argv=None) -> int:
    """Run one command; return its exit code (argparse usage errors raise SystemExit(2))."""
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
