"""The four benchmark workloads.

Each workload is a closed loop with one caller: it hands `atombell` one
operation, waits for the result, and only then sends the next.  Inputs come in
rounds, a fixed mix of operations whose parameters are drawn from
(seed, workload, round) alone, so the same seed gives the same inputs and every
round has the same composition.  A workload provides:

* ``round(r)``         -- the ops of round r, generated outside the timed region;
* ``call(op)``         -- the timed operation, calling only the public API;
* ``check(ops, res)``  -- one error string (or None) per op, computed with
                          `oracle`, never with the code under test;
* ``digest(op, res)``  -- a string identifying the result exactly;
* ``traffic(op)``      -- (group, label, amount) counts of what the op asked for.

Why these four: `gamma-eval` loads the spin kernel, the Q kernel and Gamma;
`extremum-search` loads the settings search and leaves the kernel under 5%;
`shot-estimate` isolates the Ramsey sampler; `cli-session` drives the command
line, where the Q kernel is used for bulk tabulation and output formatting,
and reaches every traced layer.  BENCHMARK.json declares `gamma-eval` and
`cli-session`; the other two run by hand with the same command.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi
U64_MAX = (1 << 64) - 1

# Shot-noise tolerance.  A 15-second shot-estimate run checks ~4e4 estimates,
# fifty runs ~2e6.  At 5 sigma the Gaussian tail alone (5.7e-7 per estimate)
# expects about one false failure in fifty runs; at 6 sigma (2.0e-9) about
# 0.004.  Over 8.8e4 estimates the largest deviation seen was 4.7 sigma.  A
# biased sampler misses by far more than 6 sigma at 1e4-1e7 shots.
SIGMAS = 6.0


class MissingProgram(RuntimeError):
    pass


def load_atombell():
    """Import `atombell` from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "atombell" / "__init__.py").is_file():
        raise MissingProgram(f"no atombell package under {src}")
    sys.path.insert(0, str(src))
    import atombell
    import atombell.cli

    if Path(atombell.__file__).resolve().parent != (src / "atombell").resolve():
        raise MissingProgram(f"imported atombell from {atombell.__file__}, not from {src}")
    return atombell


def traced_targets(ab):
    """The public functions the traced run wraps, as (label, module, attribute)."""
    names = [
        ("su2", "make_direction"),
        ("su2", "coherent_state"),
        ("su2", "rotation_operator"),
        ("su2", "joint_q"),
        ("su2", "marginal_q"),
        ("su2", "displace_two_atoms"),
        ("su2", "schmidt_decompose"),
        ("bell", "gamma"),
        ("bell", "optimize_gamma"),
        ("bell", "canonical_form"),
        ("ramsey", "estimate_gamma"),
        ("ramsey", "simulate_shots"),
        ("ramsey", "outcome_distribution"),
        ("cli", "main"),
    ]
    return [(f"{mod}.{attr}", getattr(ab, mod), attr) for mod, attr in names]


def traced_modules(ab):
    return [ab, ab.su2, ab.bell, ab.ramsey, ab.cli]


class Op:
    """One operation: a traffic label plus the inputs the call and the check need."""

    __slots__ = ("kind", "args", "meta")

    def __init__(self, kind: str, args: tuple, meta: dict):
        self.kind = kind
        self.args = args
        self.meta = meta


def _hex(*values) -> str:
    return ",".join(float(v).hex() for v in values)


def _far(x: float, y: float, tol: float) -> bool:
    return not abs(x - y) <= tol  # also true when either side is NaN


def random_direction(rng) -> tuple[float, float]:
    """A raw analyzer direction: 20% exact poles, 30% angles outside [0, pi] x [0, 2pi)."""
    x = rng.random()
    if x < 0.2:
        return (math.pi if rng.random() < 0.5 else 0.0, float(rng.uniform(0.0, TWO_PI)))
    if x < 0.5:
        return (float(rng.uniform(-TWO_PI, 2.0 * TWO_PI)), float(rng.uniform(-2.0 * TWO_PI, 3.0 * TWO_PI)))
    return (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, TWO_PI)))


def direction_class(n) -> str:
    theta, phi = n
    if not (0.0 <= theta <= math.pi and 0.0 <= phi < TWO_PI):
        return "raw"
    return "pole" if theta in (0.0, math.pi) else "regular"


def random_amps(rng) -> np.ndarray:
    """Unnormalized complex amplitudes with a scale spread over six decades."""
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return z * 10.0 ** rng.uniform(-3.0, 3.0)


class Workload:
    name = ""
    index = 0

    def __init__(self, ab, seed: int, out_dir: Path):
        self.ab = ab
        self.seed = seed
        self.out_dir = Path(out_dir)  # where ops may write files

    def rng(self, r: int):
        return np.random.default_rng([self.seed, self.index, r])

    def check(self, ops, results):
        return [self.check_one(op, res) for op, res in zip(ops, results)]

    def discard(self, ops):
        """Release what the ops of a checked round left behind."""

    def family_state(self, rng, kind: str):
        """(psi, reference amplitudes, parameters) for one state kind."""
        bell, su2 = self.ab.bell, self.ab.su2
        if kind in ("u", "v"):
            varphi = float(rng.uniform(0.0, TWO_PI))
            ref = oracle.u_amps(varphi) if kind == "u" else oracle.v_amps(varphi)
            return bell.family_state(kind, varphi=varphi), ref, {"varphi": varphi}
        if kind == "eta":
            vartheta = float(rng.uniform(0.0, 0.5 * math.pi))
            varphi = float(rng.uniform(0.0, TWO_PI))
            return bell.eta_state(vartheta, varphi), oracle.eta_amps(vartheta, varphi), {"vartheta": vartheta}
        if kind == "product":
            ref = oracle.product_amps(random_direction(rng), random_direction(rng))
            return su2.TwoAtomState(ref), ref, {}
        raw = random_amps(rng)
        return su2.TwoAtomState(raw), oracle.normalized(raw), {}


# -- gamma-eval -----------------------------------------------------------------


class GammaEval(Workload):
    """One op builds four directions with make_direction and evaluates gamma."""

    name = "gamma-eval"
    index = 1
    KINDS = ("u", "v", "eta", "product", "amps")

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for i in range(20):
            kind = self.KINDS[i % 5]
            zero_ref = (i // 5) % 2 == 0
            psi, ref, params = self.family_state(rng, kind)
            if zero_ref:
                theta = float(rng.uniform(0.0, math.pi))
                theta_b = theta if kind in ("u", "v") else float(rng.uniform(0.0, math.pi))
                angles = ((0.0, 0.0), (theta, float(rng.uniform(0.0, TWO_PI))), (0.0, 0.0), (theta_b, float(rng.uniform(0.0, TWO_PI))))
            else:
                angles = tuple(random_direction(rng) for _ in range(4))
            ops.append(Op(kind, (psi, angles), {"ref": ref, "zero_ref": zero_ref, **params}))
        return ops

    def call(self, op):
        psi, angles = op.args
        su2 = self.ab.su2
        dirs = [su2.make_direction(theta, phi) for theta, phi in angles]
        return self.ab.bell.gamma(psi, self.ab.bell.CHSettings(*dirs))

    def check_one(self, op, res):
        _, angles = op.args
        value = res.gamma
        expected = oracle.gamma(op.meta["ref"], *angles)
        if _far(value, expected, 1e-10):
            return f"gamma {value!r} differs from the amplitude-matrix value {expected!r}"
        if op.kind in ("u", "v") and op.meta["zero_ref"]:
            closed = oracle.gamma_u if op.kind == "u" else oracle.gamma_v
            exact = closed(angles[1][0], angles[1][1], angles[3][1], op.meta["varphi"])
            if _far(value, exact, 1e-10):
                return f"gamma {value!r} differs from the {op.kind} closed form {exact!r}"
        if op.kind == "product" and not -1.0 - 1e-9 <= value <= 1e-9:
            return f"product state gave gamma {value!r} outside the classical hull"
        return None

    def digest(self, op, res):
        return _hex(res.gamma, *res.terms.values())

    def traffic(self, op):
        yield "state", op.kind, 1
        yield "settings", "zero-reference" if op.meta["zero_ref"] else "random", 1
        if not op.meta["zero_ref"]:
            for n in op.args[1]:
                yield "random_directions", direction_class(n), 1


# -- extremum-search ------------------------------------------------------------


class ExtremumSearch(Workload):
    """One op is optimize_gamma with the default budget; rotated copies ride beside each eta."""

    name = "extremum-search"
    index = 2

    def round(self, r):
        rng = self.rng(r)
        su2, bell = self.ab.su2, self.ab.bell
        flip = r % 2 == 1
        ops = []
        for pair, objective in enumerate(("minimize", "maximize", "maximize" if flip else "minimize")):
            vartheta = math.pi / 4 if pair == 2 else float(rng.uniform(0.05, math.pi / 4))
            varphi = float(rng.uniform(0.0, TWO_PI))
            psi = bell.eta_state(vartheta, varphi)
            ref = oracle.eta_amps(vartheta, varphi)
            # in-range angles: make_direction leaves them alone, so g(n) is the rotation meant
            n1, n2 = ((float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, TWO_PI))) for _ in range(2))
            rotated = su2.displace_two_atoms(psi, su2.make_direction(*n1), su2.make_direction(*n2))
            meta = {"vartheta": vartheta, "objective": objective}
            ops.append(Op("eta", (psi, objective), {**meta, "ref": ref}))
            ops.append(Op("eta-rotated", (rotated, objective), {**meta, "ref": oracle.displaced_amps(ref, n1, n2), "partner": len(ops) - 1}))
        for kind, objective in zip(("u", "v"), ("maximize", "minimize") if flip else ("minimize", "maximize")):
            psi, ref, params = self.family_state(rng, kind)
            ops.append(Op(kind, (psi, objective), {"vartheta": math.pi / 4, "objective": objective, "ref": ref}))
        return ops

    def call(self, op):
        psi, objective = op.args
        return self.ab.bell.optimize_gamma(psi, objective)

    def check(self, ops, results):
        return [self.check_one(op, res, results) for op, res in zip(ops, results)]

    def check_one(self, op, res, results):
        s = res.settings
        angles = [(n.theta, n.phi) for n in (s.a, s.a_prime, s.b, s.b_prime)]
        value = res.gamma
        expected = oracle.gamma(op.meta["ref"], *angles)
        if _far(value, expected, 1e-10):
            return f"gamma {value!r} differs from {expected!r} at the returned settings"
        minimize = op.meta["objective"] == "minimize"
        if not (value < -1.0 - 1e-6 if minimize else value > 1e-6):
            return f"entangled state did not violate on the {op.meta['objective']} side: {value!r}"
        if op.meta["vartheta"] == math.pi / 4:
            target = -9.0 / 8.0 if minimize else 1.0 / 8.0
            if _far(value, target, 1e-5):
                return f"maximally entangled state gave {value!r}, expected {target!r}"
        if "partner" in op.meta:
            other = results[op.meta["partner"]].gamma
            if _far(value, other, 1e-6):
                return f"rotated copy gave {value!r}, unrotated state {other!r}"
        return None

    def digest(self, op, res):
        s = res.settings
        return _hex(res.gamma, *(x for n in (s.a, s.a_prime, s.b, s.b_prime) for x in (n.theta, n.phi)))

    def traffic(self, op):
        yield "state", op.kind, 1
        yield "objective", op.meta["objective"], 1
        v = op.meta["vartheta"]
        edges = (0.05, 0.2, 0.4, 0.6, math.pi / 4)
        yield "vartheta", "pi/4" if v == math.pi / 4 else next(f"[{lo:.2f},{hi:.2f})" for lo, hi in zip(edges, edges[1:]) if v < hi), 1


# -- shot-estimate --------------------------------------------------------------


class ShotEstimate(Workload):
    """One op is estimate_gamma with a fresh ShotPlan."""

    name = "shot-estimate"
    index = 3
    KINDS = ("u", "v", "eta", "product", "amps")
    EFFICIENCIES = (1.0, 0.9, 0.5)

    def round(self, r):
        rng = self.rng(r)
        su2, bell = self.ab.su2, self.ab.bell
        ops = []
        for kind in self.KINDS:
            for efficiency in self.EFFICIENCIES:
                psi, ref, params = self.family_state(rng, kind)
                if kind in ("u", "v"):
                    # the paper's pi/3 extremal settings: -9/8 for u, +1/8 for v
                    phi = float(rng.uniform(0.0, TWO_PI))
                    varphi = params["varphi"]
                    phi_b = phi - varphi if kind == "u" else math.pi + varphi - phi
                    angles = ((0.0, 0.0), (math.pi / 3, phi), (0.0, 0.0), (math.pi / 3, phi_b))
                else:
                    angles = tuple(random_direction(rng) for _ in range(4))
                settings = bell.CHSettings(*(su2.make_direction(*n) for n in angles))
                shots = int(round(10.0 ** rng.uniform(3.0, 7.0)))
                seed = U64_MAX if (r == 1 and not ops) else int(rng.integers(0, U64_MAX, endpoint=True, dtype=np.uint64))
                meta = {"ref": ref, "angles": angles, "extremal": kind in ("u", "v")}
                ops.append(Op(kind, (psi, settings, shots, seed, efficiency), meta))
        return ops

    def call(self, op):
        psi, settings, shots, seed, efficiency = op.args
        ramsey = self.ab.ramsey
        return ramsey.estimate_gamma(psi, settings, ramsey.ShotPlan(shots, seed, efficiency))

    def check_one(self, op, res):
        _, _, shots, _, efficiency = op.args
        est, tallies = res
        counts = {}
        for key in ("ab", "apb", "abp", "apbp"):
            t = tallies[key]
            counts[key] = (t.n_pp, t.n_pm, t.n_mp, t.n_mm)
            if sum(counts[key]) != shots:
                return f"tally {key} sums to {sum(counts[key])}, not {shots} shots"
        if est.shots != shots:
            return f"estimate reports {est.shots} shots, not {shots}"
        from_tallies = oracle.gamma_from_tallies(counts, shots)
        if _far(est.value, from_tallies, 1e-12):
            return f"estimate {est.value!r} does not follow from its tallies ({from_tallies!r})"
        q = oracle.q_values(op.meta["ref"], *op.meta["angles"])
        exact = oracle.combine(q, efficiency)
        sigma = oracle.shot_sigma(q, efficiency, shots)
        if _far(est.value, exact, SIGMAS * sigma + 1e-9):
            return f"estimate {est.value!r} lies more than {SIGMAS:g} sigma ({sigma!r}) from {exact!r}"
        return None

    def digest(self, op, res):
        est, tallies = res
        counts = ",".join(str(c) for t in tallies.values() for c in (t.n_pp, t.n_pm, t.n_mp, t.n_mm))
        return _hex(est.value, est.std_error) + ";" + counts

    def traffic(self, op):
        _, _, shots, seed, efficiency = op.args
        yield "state", op.kind, 1
        yield "settings", "pi/3-extremal" if op.meta["extremal"] else "random", 1
        yield "efficiency", repr(efficiency), 1
        decade = min(int(math.log10(shots)), 6)
        yield "shots", f"1e{decade}-1e{decade + 1}", 1
        if seed == U64_MAX:
            yield "plan_seed", "2^64-1", 1


# -- cli-session ----------------------------------------------------------------


def _spec(obj) -> str:
    return json.dumps(obj)


def _amps_spec(amps) -> str:
    return _spec({"amps": [[float(a.real), float(a.imag)] for a in amps]})


def _settings_spec(angles) -> str:
    return _spec(dict(zip(("a", "a_prime", "b", "b_prime"), ([t, p] for t, p in angles))))


class CliSession(Workload):
    """One op is atombell.cli.main(argv) in process, writing to a temporary directory.

    The round mixes, from cheap to dear: 7 commands of 1-4 ms (lhv,
    explicit-settings samples, invalid input), 6 gamma-scans near 10 ms, 6
    commands of 20-30 ms (optimize, qmap --grid 8), two `sample --settings
    optimal` (two searches each) and one `qmap --grid 12` JSON.  Latency
    percentiles fall where the sorted mix puts them, so the counts are chosen
    to put the median inside the gamma-scan group and the 90th percentile
    inside the optimal-sample group, each away from a group boundary.
    """

    name = "cli-session"
    index = 4

    def _state(self, rng, kind):
        """(state spec, reference amplitudes, maximally entangled?) for one state kind."""
        if kind in ("u", "v"):
            varphi = float(rng.uniform(0.0, TWO_PI))
            ref = oracle.u_amps(varphi) if kind == "u" else oracle.v_amps(varphi)
            return _spec({"family": kind, "varphi": varphi}), ref, True
        if kind == "eta":
            vartheta, varphi = float(rng.uniform(0.05, math.pi / 4)), float(rng.uniform(0.0, TWO_PI))
            return _spec({"family": "eta", "vartheta": vartheta, "varphi": varphi}), oracle.eta_amps(vartheta, varphi), False
        if kind == "product":
            n1, n2 = random_direction(rng), random_direction(rng)
            return _spec({"product": {"n1": list(n1), "n2": list(n2)}}), oracle.product_amps(n1, n2), False
        ref = oracle.normalized(random_amps(rng))
        return _amps_spec(ref), ref, False

    def round(self, r):
        rng = self.rng(r)
        objective = ("minimize", "maximize")
        ops = []

        def add(kind, argv, expect=0, **meta):
            path = self.out_dir / f"r{r}-{len(ops)}.out"
            ops.append(Op(kind, (argv + ["--out", str(path)], path), {"expect": expect, **meta}))

        for family, fmt in (("u", "csv"), ("v", "json"), ("u", "json"), ("v", "csv"), ("u", "csv"), ("v", "json")):
            varphi, offset = float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(-math.pi, math.pi))
            argv = ["gamma-scan", "--family", family, "--varphi", repr(varphi), "--offset", repr(offset), "--format", fmt]
            add("gamma-scan", argv, family=family, varphi=varphi, offset=offset, fmt=fmt)
        for i, kind in enumerate(("eta", "amps", "product", "v" if r % 2 else "u")):
            spec, ref, maximal = self._state(rng, kind)
            obj = objective[(i + r) % 2]
            add("optimize", ["optimize", "--state", spec, "--objective", obj], ref=ref, objective=obj, state=kind, maximal=maximal)
        for kind in ("eta", "amps" if r % 2 else "product"):
            spec, ref, _ = self._state(rng, kind)
            add("qmap", ["qmap", "--state", spec, "--grid", "8"], ref=ref, grid=8, fmt="csv", probe=int(rng.integers(0, 8**4)))
        for kind in ("v" if r % 2 else "u", "eta"):
            spec, ref, _ = self._state(rng, kind)
            add("sample", self._sample_argv(rng, spec, "optimal"), ref=ref, explicit=None)
        for kind in ("amps", "product"):
            spec, ref, _ = self._state(rng, kind)
            angles = tuple(random_direction(rng) for _ in range(4))
            add("sample", self._sample_argv(rng, spec, _settings_spec(angles)), ref=ref, explicit=angles)
        add("lhv", ["lhv"], fmt="csv")
        add("lhv", ["lhv", "--format", "json"], fmt="json")
        spec, ref, _ = self._state(rng, ("u", "v", "eta", "amps")[r % 4])
        add("qmap", ["qmap", "--state", spec, "--grid", "12", "--format", "json"], ref=ref, grid=12, fmt="json", probe=int(rng.integers(0, 12**4)))
        spec, _, _ = self._state(rng, "eta")
        add("invalid", ["qmap", "--state", spec, "--grid", "1"], expect=2)
        add("invalid", ["optimize", "--state", _spec({"family": "w"})], expect=3)
        add("invalid", ["sample", "--state", spec, "--settings", _settings_spec(((0, 0), (1, 0), (0, 0), (1, 1))), "--efficiency", "0"], expect=3)
        return ops

    @staticmethod
    def _sample_argv(rng, spec, settings):
        shots = int(round(10.0 ** rng.uniform(3.0, 6.0)))
        seed = int(rng.integers(0, U64_MAX, endpoint=True, dtype=np.uint64))
        efficiency = (1.0, 0.9, 0.5)[int(rng.integers(0, 3))]
        return ["sample", "--state", spec, "--settings", settings, "--shots", str(shots), "--seed", str(seed), "--efficiency", repr(efficiency)]

    def call(self, op):
        argv, _ = op.args
        return self.ab.cli.main(argv)

    def check(self, ops, results):
        errors = []
        for op, code in zip(ops, results):
            path = op.args[1]
            data = path.read_bytes() if path.exists() else None
            op.meta["output"] = data
            try:
                errors.append(self.check_one(op, code, data))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                errors.append(f"{op.kind} output did not parse: {exc!r}")
        return errors

    def discard(self, ops):
        for op in ops:
            op.meta.pop("output", None)
            op.args[1].unlink(missing_ok=True)

    def check_one(self, op, code, data):
        m = op.meta
        if code != m["expect"]:
            return f"{op.args[0][0]} returned exit code {code!r}, expected {m['expect']}"
        if m["expect"] != 0:
            return None if data is None else f"invalid {op.args[0][0]} still wrote output"
        if data is None:
            return f"{op.kind} wrote no output"
        text = data.decode()
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(m, text)

    @staticmethod
    def _rows(m, text):
        if m["fmt"] == "json":
            return json.loads(text)
        reader = csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#"))
        return [{k: float(v) for k, v in row.items()} for row in reader]

    def _check_gamma_scan(self, m, text):
        rows = self._rows(m, text)
        if len(rows) != 25:
            return f"gamma-scan wrote {len(rows)} rows, expected 25"
        closed = oracle.gamma_u if m["family"] == "u" else oracle.gamma_v
        for row in rows:
            if not row["abs_diff"] <= 1e-10:
                return f"gamma-scan abs_diff {row['abs_diff']!r} above 1e-10"
            exact = closed(row["theta"], m["offset"], 0.0, m["varphi"])
            if _far(row["gamma_analytic"], exact, 1e-10) or _far(row["gamma_numeric"], exact, 1e-10):
                return f"gamma-scan row at theta {row['theta']!r} differs from the closed form {exact!r}"
        return None

    def _check_optimize(self, m, text):
        report = json.loads(text)
        value = report["gamma"]
        amps = np.array([complex(re, im) for re, im in report["state"]["amps"]])
        if _far(abs(np.vdot(m["ref"], amps)), 1.0, 1e-9):
            return "optimize reported a different state than it was given"
        angles = [tuple(report["settings"][k]) for k in ("a", "a_prime", "b", "b_prime")]
        expected = oracle.gamma(m["ref"], *angles)
        if _far(value, expected, 1e-10):
            return f"optimize gamma {value!r} differs from {expected!r} at its settings"
        # a Schmidt angle of 0.01 already violates by ~1e-4, far past the CLI's 1e-6 margin
        angle = oracle.schmidt_angle(m["ref"])
        if report["violates"] != (angle > 0.01) and not 1e-6 < angle <= 0.01:
            return f"optimize says violates={report['violates']} at Schmidt angle {angle!r}"
        if m["maximal"]:
            target = -9.0 / 8.0 if m["objective"] == "minimize" else 1.0 / 8.0
            if _far(value, target, 1e-5):
                return f"maximally entangled state gave {value!r}, expected {target!r}"
        return None

    def _check_sample(self, m, text):
        report = json.loads(text)
        shots, efficiency = report["shots"], report["efficiency"]
        counts = {k: (t["n_pp"], t["n_pm"], t["n_mp"], t["n_mm"]) for k, t in report["tallies"].items()}
        for key, c in counts.items():
            if sum(c) != shots:
                return f"sample tally {key} sums to {sum(c)}, not {shots} shots"
        value = report["gamma_estimate"]["value"]
        if _far(value, oracle.gamma_from_tallies(counts, shots), 1e-12):
            return "sample estimate does not follow from its tallies"
        angles = m["explicit"] or [tuple(report["settings"][k]) for k in ("a", "a_prime", "b", "b_prime")]
        q = oracle.q_values(m["ref"], *angles)
        exact = oracle.combine(q)
        if _far(report["exact_gamma"], exact, 1e-10):
            return f"sample exact_gamma {report['exact_gamma']!r} differs from {exact!r}"
        if m["explicit"] is None and not (exact < -1.0 - 1e-6 or exact > 1e-6):
            return f"optimal settings do not violate: {exact!r}"
        sigma = oracle.shot_sigma(q, efficiency, shots)
        if _far(value, oracle.combine(q, efficiency), SIGMAS * sigma + 1e-9):
            return f"sample estimate {value!r} lies more than {SIGMAS:g} sigma from the exact value"
        return None

    def _check_lhv(self, m, text):
        low, high = oracle.lhv_range()
        if m["fmt"] == "json":
            payload = json.loads(text)
            values = [v["gamma"] for v in payload["vertices"]]
            extremes = (payload["min"], payload["max"])
        else:
            values = [row["gamma"] for row in self._rows(m, text)]
            extremes = (min(values), max(values))
        if len(values) != 16 or extremes != (low, high):
            return f"lhv gave {len(values)} vertices spanning {extremes}, expected 16 spanning {(low, high)}"
        return None

    def _check_qmap(self, m, text):
        rows = self._rows(m, text)
        grid = m["grid"]
        if len(rows) != grid**4:
            return f"qmap --grid {grid} wrote {len(rows)} rows, expected {grid**4}"
        for index in (0, m["probe"], len(rows) - 1):
            row = rows[index]
            n1, n2 = (row["theta1"], row["phi1"]), (row["theta2"], row["phi2"])
            q = oracle.q_values(m["ref"], n1, n1, n2, n2)
            for key, ref_key in (("q12", "q12_ab"), ("q1", "q1_a"), ("q2", "q2_b")):
                if _far(row[key], q[ref_key], 1e-10):
                    return f"qmap row {index} {key}={row[key]!r}, expected {q[ref_key]!r}"
        return None

    def digest(self, op, code):
        data = op.meta.get("output")
        return f"{code};" + ("-" if data is None else hashlib.sha256(data).hexdigest())

    def traffic(self, op):
        yield "command", op.args[0][0], 1
        yield "expected_exit", str(op.meta["expect"]), 1
        if op.meta["expect"] == 0:
            yield "format", op.meta.get("fmt", "json"), 1
        if "state" in op.meta:
            yield "optimize_state", op.meta["state"], 1
        yield "out_bytes", "total", len(op.meta.get("output") or b"")


WORKLOADS = {cls.name: cls for cls in (GammaEval, ExtremumSearch, ShotEstimate, CliSession)}


def make(name: str, ab, seed: int, out_dir: Path):
    return WORKLOADS[name](ab, seed, out_dir)
