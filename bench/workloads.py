"""The four benchmark workloads: inputs, timed calls, documents and checks.

Each workload is an endless, deterministic sequence of operations ``k = 0, 1,
...``.  The benchmark calls :meth:`call` for one operation at a time (closed
loop); only that call is timed.  :meth:`document` turns its result into a
JSON-ready document and :meth:`check` lists what is wrong with it.  Inputs come
from the ``seed`` argument through the benchmark's own numpy code, never from
``mallows_binomial.sampling``, so a change to the library's sampler cannot
change what the bootstrap and search workloads fit.

Library functions are always looked up as module attributes at call time, so
the traced run sees the wrappers that :mod:`tracing` installs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from mallows_binomial import asymptotics as mb_asymptotics
from mallows_binomial import bootstrap as mb_bootstrap
from mallows_binomial import cli as mb_cli
from mallows_binomial import estimation as mb_estimation
from mallows_binomial import io as mb_io
from mallows_binomial import model as mb_model
from mallows_binomial import sampling as mb_sampling

MODULES = {
    "model": mb_model,
    "sampling": mb_sampling,
    "estimation": mb_estimation,
    "bootstrap": mb_bootstrap,
    "asymptotics": mb_asymptotics,
    "io": mb_io,
    "cli": mb_cli,
}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
# relative tolerance against the reference documents and for the loglik check
TOLERANCE = 1e-9


def child_seed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for the input stream ``(seed, *path)``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint32)[0])


def draw_panel(rng, p, theta: float, n_judges: int, max_rating: int):
    """Mallows rankings by repeated insertion plus Binomial ratings.

    Object ``m`` of the center (``p`` ascending) lands ``v`` places above the
    bottom of the current list with probability proportional to
    ``exp(-theta * v)``; the positions of all judges are updated at once.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    center = np.argsort(p, kind="stable")
    positions = np.zeros((n_judges, n), dtype=np.intp)
    for m in range(1, n):
        cdf = np.cumsum(np.exp(-theta * np.arange(m + 1)))
        lift = np.searchsorted(cdf / cdf[-1], rng.random(n_judges), side="right")
        slot = m - np.minimum(lift, m)
        positions[:, :m] += positions[:, :m] >= slot[:, None]
        positions[:, m] = slot
    rankings = np.empty_like(positions)
    np.put_along_axis(rankings, positions, np.broadcast_to(center, positions.shape), axis=1)
    ratings = rng.binomial(max_rating, p, size=(n_judges, n))
    return mb_model.Dataset(ratings, rankings, max_rating)


def spread_qualities(rng, n: int, low: float, high: float) -> np.ndarray:
    """Evenly spaced qualities on ``[low, high]`` in a random object order."""
    return np.linspace(low, high, n)[rng.permutation(n)]


def load_reference(name: str) -> list:
    path = REFERENCE_DIR / f"{name}.json"
    with open(path) as handle:
        reference = json.load(handle)
    if reference["seed"] != DEFAULT_SEED:
        raise ValueError(f"{path} was recorded for seed {reference['seed']}")
    return reference["documents"]


# ---------------------------------------------------------------------------
# shared checks


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def compare(document, reference, where: str = "") -> list[str]:
    """Differences between two documents: exact except floats (1e-9 relative)."""
    if isinstance(reference, dict):
        if not isinstance(document, dict) or document.keys() != reference.keys():
            return [f"{where or 'document'}: keys differ from the reference"]
        problems = []
        for key in reference:
            problems += compare(document[key], reference[key], f"{where}.{key}")
        return problems
    if isinstance(reference, list):
        if not isinstance(document, list) or len(document) != len(reference):
            return [f"{where}: length differs from the reference"]
        problems = []
        for i, (got, want) in enumerate(zip(document, reference)):
            problems += compare(got, want, f"{where}[{i}]")
        return problems
    if isinstance(reference, float) and isinstance(document, (int, float)):
        if not math.isclose(document, reference, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            return [f"{where}: {document!r} differs from the reference {reference!r}"]
        return []
    if document != reference or type(document) is not type(reference):
        return [f"{where}: {document!r} differs from the reference {reference!r}"]
    return []


def fit_problems(data, consensus, p, theta: float, loglik: float) -> list[str]:
    """Invariants of one joint fit: permutation, order, reported loglik."""
    consensus = np.asarray(consensus)
    p = np.asarray(p, dtype=float)
    if sorted(consensus.tolist()) != list(range(p.size)):
        return [f"consensus {consensus.tolist()} is not a permutation"]
    problems = []
    if not np.all(np.diff(p[consensus]) >= 0.0):
        problems.append("fitted qualities are not ordered along the consensus")
    expected = mb_model.log_likelihood(data, mb_model.Params(p, theta), consensus)
    if not math.isclose(loglik, expected, rel_tol=TOLERANCE):
        problems.append(f"loglik {loglik!r} != log_likelihood {expected!r}")
    return problems


def fit_document(result) -> dict:
    return {
        "consensus": [int(v) for v in result.consensus],
        "p": _floats(result.p),
        "theta": float(result.theta),
        "theta_clamped": bool(result.theta_clamped),
        "loglik": float(result.loglik),
    }


def fit_result_problems(data, result) -> list[str]:
    problems = fit_problems(data, result.consensus, result.p, result.theta, result.loglik)
    if not problems and not result.params_consistent():
        problems.append("FitResult.params_consistent() is False")
    return problems


class Workload:
    """One named workload; subclasses fill in inputs and operations.

    ``cycle`` is the number of operations after which the inputs repeat (a
    timed run measures whole cycles).  ``nominal_cycle_s`` is about what one
    traced cycle took at the commit that defined the benchmark; it fixes how
    much work a traced run does for a given ``--seconds``, independent of the
    code's speed, so traced counts and self times compare across commits.
    """

    name = ""
    unit = ""
    cycle = 1
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, workdir: Path, reference: bool = True):
        self.seed = seed
        self.workdir = workdir
        documents = load_reference(self.name) if reference else []
        self.reference = documents if seed == DEFAULT_SEED else []

    def reference_index(self, k: int) -> int:
        return k

    def call(self, k: int):
        raise NotImplementedError

    def work(self, k: int) -> int:
        raise NotImplementedError

    def document(self, k: int, raw) -> dict:
        raise NotImplementedError

    def check(self, k: int, raw, document: dict) -> list[str]:
        raise NotImplementedError

    def reference_problems(self, k: int, document: dict) -> list[str]:
        index = self.reference_index(k)
        if index >= len(self.reference):
            return []
        return compare(document, self.reference[index], f"op {k}")


# ---------------------------------------------------------------------------
# bootstrap: the paper's main job, J! profiles per refit


class BootstrapWorkload(Workload):
    """``bootstrap_fit(workers=1)``, default dispatch, on a rotation of panels.

    J = 4 and J = 5, I = 200, M = 5, strong and weak signal.  Replicates per
    call scale inversely with J! so every call costs about the same, which
    keeps the median call time inside one group instead of between two.
    """

    name = "bootstrap"
    unit = "replicates"
    cycle = 4
    nominal_cycle_s = 2.4
    PANELS = ((4, "strong"), (4, "weak"), (5, "strong"), (5, "weak"))
    REPLICATES = {4: 100, 5: 20}
    JUDGES = 200
    MAX_RATING = 5

    def __init__(self, seed: int, workdir: Path, reference: bool = True):
        super().__init__(seed, workdir, reference)
        rng = np.random.default_rng(child_seed(seed, 1))
        self.panels = []
        for n, signal in self.PANELS:
            if signal == "strong":
                p, theta = spread_qualities(rng, n, 0.15, 0.85), rng.uniform(0.8, 1.5)
            else:
                p, theta = spread_qualities(rng, n, 0.42, 0.58), rng.uniform(0.1, 0.3)
            self.panels.append(draw_panel(rng, p, theta, self.JUDGES, self.MAX_RATING))

    def _panel(self, k: int):
        return self.panels[k % self.cycle]

    def work(self, k: int) -> int:
        return self.REPLICATES[self._panel(k).n_objects]

    def call(self, k: int):
        return mb_bootstrap.bootstrap_fit(
            self._panel(k),
            n_replicates=self.work(k),
            seed=child_seed(self.seed, 2, k),
            workers=1,
        )

    def document(self, k: int, boot) -> dict:
        return {
            "point": fit_document(boot.point),
            "p_intervals": [_floats(row) for row in boot.p_intervals],
            "theta_interval": _floats(boot.theta_interval),
            "clamp_rate": float(boot.clamp_rate),
            "consensus_agreement": float(boot.consensus_agreement),
            "n_replicates": int(boot.n_replicates),
        }

    def check(self, k: int, boot, document: dict) -> list[str]:
        data = self._panel(k)
        problems = fit_result_problems(data, boot.point)
        samples = np.sort(boot.consensus_samples, axis=1)
        if boot.n_replicates != self.work(k) or not np.all(samples == np.arange(data.n_objects)):
            problems.append("a replicate consensus is not a permutation")
        intervals = np.vstack([boot.p_intervals, [boot.theta_interval]])
        if not np.all(intervals[:, 0] <= intervals[:, 1]):
            problems.append("an interval has its ends reversed")
        if not (0.0 <= boot.clamp_rate <= 1.0 and 0.0 <= boot.consensus_agreement <= 1.0):
            problems.append("a rate lies outside [0, 1]")
        return problems + self.reference_problems(k, document)


# ---------------------------------------------------------------------------
# search: best-first branch and bound, heavy-tailed cost per fit


class SearchWorkload(Workload):
    """``fit(method="best-first")`` over a fixed pass of panels.

    Most panels have strong signal (J = 9..20, about J nodes, 10-50 ms); every
    twelfth is near-null (J = 9, I = 100, qualities within 0.5 +- 0.05,
    theta = 0.1) and expands from a few to over a thousand nodes.  Near-null
    cost is heavy-tailed from panel to panel, and the seed draws new panels,
    so near-null fits take only about a fifth of a pass: enough to show in
    the totals and the tail, few enough that totals stay steady across seeds.
    The strong group's sizes are weighted so that the median fit falls inside
    the J = 12 group rather than between two groups.
    """

    name = "search"
    unit = "fits"
    STRONG_SIZES = (9, 12, 12, 16, 20)
    STRONG_JUDGES = (50, 100, 200)
    NEAR_NULL_EVERY = 12
    PASS = 576
    cycle = PASS
    nominal_cycle_s = 18.0

    def __init__(self, seed: int, workdir: Path, reference: bool = True):
        super().__init__(seed, workdir, reference)
        rng = np.random.default_rng(child_seed(seed, 3))
        self.panels = []
        for i in range(self.PASS):
            if i % self.NEAR_NULL_EVERY == self.NEAR_NULL_EVERY - 1:
                p = 0.5 + spread_qualities(rng, 9, -0.05, 0.05)
                panel = draw_panel(rng, p, 0.1, 100, 5)
            else:
                n = self.STRONG_SIZES[i % len(self.STRONG_SIZES)]
                judges = self.STRONG_JUDGES[i % len(self.STRONG_JUDGES)]
                p = spread_qualities(rng, n, 0.15, 0.85)
                panel = draw_panel(rng, p, rng.uniform(0.7, 1.5), judges, 5)
            self.panels.append(panel)

    def reference_index(self, k: int) -> int:
        return k % self.PASS

    def work(self, k: int) -> int:
        return 1

    def call(self, k: int):
        return mb_estimation.fit(self.panels[k % self.PASS], method="best-first")

    def document(self, k: int, result) -> dict:
        return fit_document(result)

    def check(self, k: int, result, document: dict) -> list[str]:
        problems = fit_result_problems(self.panels[k % self.PASS], result)
        return problems + self.reference_problems(k, document)


# ---------------------------------------------------------------------------
# panel: simulate to CSV and fit it back through the CLI


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class PanelWorkload(Workload):
    """In-process ``cli.run``: ``simulate`` J = 6, I = 20 000, then ``fit``.

    Each round trip uses a fresh simulation seed; it is the only workload
    dominated by the per-judge sampler and CSV I/O.
    """

    name = "panel"
    unit = "judges"
    nominal_cycle_s = 1.7
    P = "0.1,0.25,0.4,0.55,0.7,0.85"
    THETA = "1.0"
    JUDGES = 20_000
    MAX_RATING = 5

    def __init__(self, seed: int, workdir: Path, reference: bool = True):
        super().__init__(seed, workdir, reference)
        self.ratings = workdir / "ratings.csv"
        self.rankings = workdir / "rankings.csv"
        self.sim_out = workdir / "simulate.json"
        self.fit_out = workdir / "fit.json"

    def work(self, k: int) -> int:
        return self.JUDGES

    def call(self, k: int):
        simulate = mb_cli.run([
            "simulate", "--p", self.P, "--theta", self.THETA,
            "--judges", str(self.JUDGES), "--M", str(self.MAX_RATING),
            "--seed", str(child_seed(self.seed, 4, k)),
            "--ratings", str(self.ratings), "--rankings", str(self.rankings),
            "--out", str(self.sim_out),
        ])
        if simulate != 0:
            return simulate, None
        fit = mb_cli.run([
            "fit", "--ratings", str(self.ratings), "--rankings", str(self.rankings),
            "--M", str(self.MAX_RATING), "--out", str(self.fit_out),
        ])
        return simulate, fit

    def document(self, k: int, status) -> dict:
        if status != (0, 0):
            return {"status": list(status)}
        simulated = json.loads(self.sim_out.read_text())["result"]
        fitted = json.loads(self.fit_out.read_text())["result"]
        return {
            "ratings_sha256": _sha256(self.ratings),
            "rankings_sha256": _sha256(self.rankings),
            "simulated_consensus": simulated["consensus"],
            "n_judges": fitted["n_judges"],
            "fit": {key: fitted[key] for key in ("consensus", "p", "theta", "theta_clamped", "loglik")},
        }

    def check(self, k: int, status, document: dict) -> list[str]:
        if status != (0, 0):
            return [f"cli.run exit statuses {status}"]
        fitted = document["fit"]
        if document["n_judges"] != self.JUDGES:
            return [f"fit read {document['n_judges']} judges, expected {self.JUDGES}"]
        data = mb_io.read_dataset(self.ratings, self.rankings, self.MAX_RATING)
        consensus = [label - 1 for label in fitted["consensus"]]
        problems = fit_problems(data, consensus, fitted["p"], fitted["theta"], fitted["loglik"])
        return problems + self.reference_problems(k, document)


# ---------------------------------------------------------------------------
# study: the coverage pipeline with the process fan-out


class StudyWorkload(Workload):
    """``coverage_study(J = 4, I = 200, M = 5, B = 200, workers = 2)``, R = 2.

    The only workload that starts worker processes: every replication starts
    a pool and pickles the dataset into every bootstrap job.
    """

    name = "study"
    unit = "replications"
    nominal_cycle_s = 1.2
    REPLICATIONS = 2
    WORKERS = 2

    def __init__(self, seed: int, workdir: Path, reference: bool = True):
        super().__init__(seed, workdir, reference)
        self.params = mb_model.Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)

    def work(self, k: int) -> int:
        return self.REPLICATIONS

    def call(self, k: int):
        return mb_asymptotics.coverage_study(
            self.params,
            n_judges=200,
            max_rating=5,
            n_replications=self.REPLICATIONS,
            n_bootstrap=200,
            alpha=0.10,
            seed=child_seed(self.seed, 5, k),
            workers=self.WORKERS,
        )

    def document(self, k: int, report) -> dict:
        # a JSON round trip turns tuples into lists, as the CLI writes them
        return json.loads(json.dumps(dataclasses.asdict(report)))

    def check(self, k: int, report, document: dict) -> list[str]:
        problems = []
        coverages = [*report.p_coverage, report.theta_coverage, report.consensus_recovery_rate]
        if any(not 0.0 <= c <= 1.0 or c * self.REPLICATIONS % 1 != 0 for c in coverages):
            problems.append(f"coverages {coverages} are not fractions of {self.REPLICATIONS}")
        if not 0.0 <= report.theta_clamp_rate <= 1.0:
            problems.append("clamp rate lies outside [0, 1]")
        if min(*report.p_interval_width, report.theta_interval_width) < 0.0:
            problems.append("a mean interval width is negative")
        if report.n_replications != self.REPLICATIONS or report.n_bootstrap != 200:
            problems.append("report echoes the wrong configuration")
        return problems + self.reference_problems(k, document)


WORKLOADS = {
    cls.name: cls
    for cls in (BootstrapWorkload, SearchWorkload, PanelWorkload, StudyWorkload)
}


def prepare(name: str, seed: int, workdir: Path, reference: bool = True) -> Workload:
    """Generate a workload's inputs and load its reference documents."""
    return WORKLOADS[name](seed, workdir, reference)
