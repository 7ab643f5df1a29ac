"""The three benchmark workloads.

Each workload is a closed loop with one caller: operation i is built from
(seed, i) outside the timed region, run inside it, and checked after it.
The library functions an operation calls are looked up on ``lib`` at call
time, so a tracer can wrap them; the checks use their own references and are
never traced.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import frogkit
import frogkit.cli
from frogkit import (
    BandlimitSpec,
    FrogkitError,
    RecoverySettings,
    Spectrum,
    basin_experiment,
    dist_mod_group,
    frog_trace,
    idft,
    recover,
)

ACCURACY = 1e-6  # distance modulo the group that counts as a recovery


def library() -> SimpleNamespace:
    """The library calls operations make, as one namespace a tracer can wrap."""
    return SimpleNamespace(
        basin_experiment=basin_experiment,
        frog_trace=frog_trace,
        recover=recover,
        dist_mod_group=dist_mod_group,
        cli_main=frogkit.cli.main,
    )


@dataclass
class Outcome:
    """What one operation did, in the workload's unit of work."""

    attempted: int  # units attempted (basin: trials; others: operations)
    failed: int  # units the library could not carry out (a basin grid raised)
    done: int  # units that count towards throughput
    rated: int  # units in the success rate's denominator
    successes: int  # units in its numerator
    key: tuple  # exact result, compared between repeated runs of the input
    errors: list[str] = field(default_factory=list)  # failed output checks
    why: str | None = None  # why the unit did not succeed, if it did not


def band_spectrum(rng, n: int, b: int) -> Spectrum:
    values = np.zeros(n, dtype=complex)
    values[:b] = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    return Spectrum(values)


class Basin:
    """``basin_experiment`` on the criterion-8 grid, one trial per cell and a
    fresh grid seed per operation."""

    name = "basin"
    N = 24
    L_VALUES = (1, 2, 4, 8)
    SIGMAS = (0.0, 0.25, 0.5, 1.0, 2.0)
    CELLS = len(L_VALUES) * len(SIGMAS)
    # The success rate covers the first RATE_GRIDS grids, so it is fixed for a
    # seed; ten grids (200 trials) keep its spread between seeds near 5%.
    RATE_GRIDS = 10
    min_ops = RATE_GRIDS
    pass_ops = 1

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed

    def warm_up(self):
        basin_experiment(self.N, self.L_VALUES, [0.0], trials=1, seed=self.seed)

    def grid_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def make_input(self, i: int):
        return self.grid_seed(i)

    def run(self, grid_seed):
        try:
            return self.lib.basin_experiment(
                self.N, self.L_VALUES, self.SIGMAS, trials=1, seed=grid_seed
            )
        except FrogkitError as exc:
            return exc

    def score(self, i, grid_seed, grid) -> Outcome:
        if isinstance(grid, FrogkitError):
            why = f"raised {type(grid).__name__}"
            rated = self.CELLS if i < self.RATE_GRIDS else 0
            return Outcome(self.CELLS, self.CELLS, 0, rated, 0, (why,), why=why)
        rate = grid.success_rate
        errors = []
        if not np.all(rate[0] == 1.0):
            errors.append(f"grid {grid_seed}: a sigma = 0 cell failed: {rate[0].tolist()}")
        wins = int(round(float(rate.sum()))) if i < self.RATE_GRIDS else 0
        rated = self.CELLS if i < self.RATE_GRIDS else 0
        return Outcome(self.CELLS, 0, self.CELLS, rated, wins, tuple(rate.ravel().tolist()), errors)

    def recheck(self, outcomes) -> list[str]:
        """Run the first grid again; it must come back identical."""
        again = self.score(0, self.grid_seed(0), self.run(self.grid_seed(0)))
        if again.key != outcomes[0].key:
            return [f"grid {self.grid_seed(0)} differs when run again"]
        return []


class Recursion:
    """Band spectrum -> ``frog_trace`` -> ``recover`` -> banded
    ``dist_mod_group``, at N = 32, 32, 64 in turn with B = N/4 and r = 4."""

    name = "recursion"
    # Two small operations per large one keep the median inside the N = 32
    # cluster and the 90th percentile inside the N = 64 one, away from the
    # gap between them.
    CYCLE = (32, 32, 64)
    R = 4
    min_ops = 30
    pass_ops = 60

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.settings = RecoverySettings(r=self.R)

    def warm_up(self):
        for n in sorted(set(self.CYCLE)):
            x = band_spectrum(np.random.default_rng((self.seed, n, 10**9)), n, n // 4)
            b = BandlimitSpec(n // 4)
            with contextlib.suppress(FrogkitError):
                rep = recover(frog_trace(idft(x), n // self.R), b, self.settings)
                dist_mod_group(rep.spectrum, x, b)

    def make_input(self, i: int):
        per_cycle = self.CYCLE.count(self.CYCLE[i % 3])
        n = self.CYCLE[i % 3]
        j = (i // 3) * per_cycle + self.CYCLE[: i % 3].count(n)
        xhat = band_spectrum(np.random.default_rng((self.seed, n, j)), n, n // 4)
        return xhat, idft(xhat), BandlimitSpec(n // 4)

    def run(self, inp):
        xhat, signal, band = inp
        trace = self.lib.frog_trace(signal, signal.n // self.R)
        try:
            rep = self.lib.recover(trace, band, self.settings)
        except FrogkitError as exc:
            return exc, None
        dist, _ = self.lib.dist_mod_group(rep.spectrum, xhat, band)
        return rep, dist

    def score(self, i, inp, result) -> Outcome:
        rep, dist = result
        """A ``recover`` that raises or misses 1e-6 is the recursion's known
        accuracy defect: it lowers the success rate and the throughput of
        recoveries, but the operation ran, so it does not count as failed."""
        if isinstance(rep, FrogkitError):
            why = f"raised {type(rep).__name__}"
            return Outcome(1, 0, 0, 1, 0, (why,), why=why)
        ok = dist <= ACCURACY
        errors = []
        budget = 3 * (2 * inp[2].b - 1)
        if ok and rep.measurement_reads > budget:
            errors.append(f"op {i}: {rep.measurement_reads} reads exceed 3(2B-1) = {budget}")
        return Outcome(1, 0, int(ok), 1, int(ok), (ok, rep.measurement_reads), errors,
                       None if ok else "distance above 1e-6")

    def recheck(self, outcomes) -> list[str]:
        return []


class Cli:
    """One round trip through ``frogkit.cli.main`` in-process:
    synthesize -> trace -> recover -> verify, at N = 256, L = 1, B = 8."""

    name = "cli"
    N = 256
    B = 8
    min_ops = 10
    pass_ops = 6

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.paths = {k: os.path.join(workdir, f) for k, f in (
            ("signal", "signal.json"), ("trace", "trace.csv"), ("report", "report.json"))}

    def warm_up(self):
        outcome = self.score(-1, None, self.run(self.make_input(-1)))
        if outcome.errors:
            raise RuntimeError("cli warm-up failed: " + "; ".join(outcome.errors))

    def make_input(self, i: int):
        for path in self.paths.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        p, n, b = self.paths, str(self.N), str(self.B)
        seed = str(self.seed * 100_000 + i + 1)
        return [
            ["synthesize", "--n", n, "--b", b, "--seed", seed, "--out", p["signal"]],
            ["trace", "--signal", p["signal"], "--l", "1", "--out", p["trace"]],
            ["recover", "--trace", p["trace"], "--l", "1", "--b", b, "--out", p["report"]],
            ["verify", "--signal", p["signal"], "--l", "1", "--b", b, "--seed", seed],
        ]

    def run(self, commands):
        out = stdio.StringIO()
        codes = []
        with contextlib.redirect_stdout(out):
            for argv in commands:
                codes.append(self.lib.cli_main(argv))
                if codes[-1] != 0:
                    break
        return codes, out.getvalue()

    def _recovered_distance(self) -> float:
        with open(self.paths["signal"]) as fh:
            sig = json.load(fh)
        with open(self.paths["report"]) as fh:
            spec = json.load(fh)["spectrum"]
        truth = np.fft.fft(np.asarray(sig["re"]) + 1j * np.asarray(sig["im"]))
        got = np.asarray(spec["re"]) + 1j * np.asarray(spec["im"])
        dist, _ = dist_mod_group(Spectrum(got), Spectrum(truth), BandlimitSpec(self.B))
        return dist

    def score(self, i, commands, result) -> Outcome:
        """A recovery that ``recover`` gives up on (exit 1) or that misses
        1e-6 is an unsuccessful round trip, as in the recursion workload:
        both are the recursion's known accuracy defect, which lowers the
        success rate but is not a failed operation.  Anything else that
        goes wrong fails a check."""
        codes, text = result
        errors, why = [], None
        if codes == [0, 0, 1]:
            why = "recover exited 1"
        elif codes != [0, 0, 0, 0]:
            errors.append(f"round trip {i}: exit codes {codes}")
        else:
            try:
                dist = self._recovered_distance()
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"round trip {i}: unreadable output: {exc!r}")
            else:
                if not dist <= ACCURACY:
                    why = "recover exited 0 but missed 1e-6"
            verdicts = [line for line in text.splitlines() if "invariant" in line]
            if len(verdicts) != 4 or any("NOT invariant" in v for v in verdicts):
                errors.append(f"round trip {i}: verify printed {verdicts}")
        ok = not errors and why is None
        completed = int(len(codes) == 4 and not errors)
        return Outcome(1, 0, completed, 1, int(ok), (tuple(codes), why), errors, why)

    def recheck(self, outcomes) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Basin, Recursion, Cli)}
