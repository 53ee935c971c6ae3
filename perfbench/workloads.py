"""The four benchmark workloads.

Each workload is built from a seed and a private work directory (its
set-up), then runs operations through pdacache's public API.  ``op(i)``
performs operation i and returns its outputs; ``check(i, out)`` is the
correctness gate and raises ``GateFailure`` when an output is wrong.  A pass
is ``ops_per_pass`` operations; runs measure whole passes, so every
operation of a workload appears equally often.  ``counts`` holds the
computed counts (problem sizes and byte totals) that must repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
import re
from fractions import Fraction

import pdacache
from pdacache import cli, pda, schemes, sim


class GateFailure(Exception):
    """An operation's output failed its correctness check."""


def _spec_name(spec):
    fields = {"theorem3": ("m", "s", "t", "omega"), "mn": ("m", "s")}.get(spec.family, ("m", "t", "q"))
    return f"{spec.family}({','.join(str(getattr(spec, f)) for f in fields)})"


def _pda_counts(params):
    """F, K, S, Z, cells and verify pairs from a PdaParams."""
    pairs = sum(n * g * (g - 1) // 2 for g, n in params.gain_histogram.items())
    return {
        "F": params.F,
        "K": params.K,
        "S": params.S,
        "Z": params.Z,
        "cells": params.F * params.K,
        "verify_pairs": pairs,
    }


class Workload:
    ops_per_pass = 1

    def __init__(self):
        self.counts = {}

    def record(self, key, counts):
        """Store computed counts under key; differing from an earlier
        record for the same key is a failure."""
        seen = self.counts.setdefault(key, counts)
        if seen != counts:
            raise GateFailure(f"counts for {key} changed: {seen} then {counts}")


S = schemes.SchemeSpec

LADDER = (
    S("mn", m=10, s=3),
    S("theorem3", m=8, s=4, t=2, omega=1),
    S("szg_second", m=4, t=2, q=3),
    S("theorem7", m=4, t=2, q=5),
    S("theorem6", m=4, t=2, q=5),
    S("theorem6", m=5, t=2, q=4),
    S("theorem3", m=10, s=4, t=3, omega=1),
    S("theorem7", m=5, t=2, q=7),
    S("theorem7", m=6, t=2, q=5),
)


class BuildLadder(Workload):
    """build -> verify_pda -> pda_params over every scheme family."""

    ops_per_pass = len(LADDER)

    def __init__(self, seed, workdir, fault=False):
        super().__init__()
        self.ladder = list(LADDER)
        random.Random(seed).shuffle(self.ladder)

    def op(self, i):
        spec = self.ladder[i % len(self.ladder)]
        built, _ = schemes.build(spec)
        verdict = pda.verify_pda(built)
        return spec, verdict, pda.pda_params(built)

    def check(self, i, out):
        spec, verdict, params = out
        pred = schemes.predict(spec)
        measured = (params.K, params.F, params.Z, params.S)
        if measured != (pred.K, pred.F, pred.Z, pred.S):
            raise GateFailure(f"{_spec_name(spec)}: measured {measured} != predicted")
        if not verdict:
            raise GateFailure(f"{_spec_name(spec)}: verify_pda rejected: {verdict.reason}")
        if not (isinstance(params.R, Fraction) and params.R == Fraction(params.S, params.F)):
            raise GateFailure(f"{_spec_name(spec)}: R={params.R!r} is not S/F")
        self.record(_spec_name(spec), _pda_counts(params))


class Sim(Workload):
    """random_instance -> place -> deliver -> decode on one fixed PDA."""

    spec = None
    packet_bytes = 0

    def __init__(self, seed, workdir, fault=False):
        super().__init__()
        self.rng = random.Random(seed)
        self.pda, _ = schemes.build(self.spec)
        params = pda.pda_params(self.pda)
        self.load = params.R
        uncoded = params.K * (params.F - params.Z) * self.packet_bytes
        broadcast = params.S * self.packet_bytes
        self.expected = dict(
            _pda_counts(params),
            packet_bytes=self.packet_bytes,
            bytes_broadcast=broadcast,
            bytes_uncoded=uncoded,
            coded_gain=str(Fraction(uncoded, broadcast)),
        )
        if fault:
            self.pda = self._plant_fault()

    def _plant_fault(self):
        """Copy the PDA with one symbol changed: a cell takes the symbol of
        another cell in its own column, so that user cannot decode."""
        grid = [list(row) for row in self.pda.grid]
        k = self.rng.randrange(self.pda.K)
        j, j2 = self.rng.sample([j for j in range(self.pda.F) if grid[j][k] is not None], 2)
        grid[j][k] = grid[j2][k]
        return pdacache.pda_from_grid(grid)

    def op(self, i):
        n = self.pda.K  # N = K files
        demand = tuple(self.rng.randrange(n) for _ in range(self.pda.K))
        inst = sim.random_instance(
            self.pda, seed=self.rng.getrandbits(32), packet_bytes=self.packet_bytes, demand=demand
        )
        caches = sim.place(inst)
        transcript = sim.deliver(inst)
        return inst, caches, transcript, sim.decode(inst, caches, transcript)

    def check(self, i, out):
        inst, caches, transcript, recovered = out
        for k, d in enumerate(inst.demand):
            if recovered[k] != inst.files[d]:
                raise GateFailure(f"user {k} recovered the wrong bytes of file {d}")
        if transcript.measured_load != self.load:
            raise GateFailure(f"measured load {transcript.measured_load} != R={self.load}")
        broadcast = sum(len(s) for s in transcript.signals)
        if broadcast != self.expected["bytes_broadcast"]:
            raise GateFailure(f"broadcast {broadcast} bytes, expected {self.expected['bytes_broadcast']}")
        self.record(
            _spec_name(self.spec),
            dict(self.expected, cached_packets=sum(len(c) for c in caches)),
        )


class SimBulk(Sim):
    """Few users, wide packets: XOR in deliver/decode dominates."""

    spec = S("mn", m=10, s=3)
    packet_bytes = 256


class SimFanout(Sim):
    """Many users, tiny packets: cache placement dominates."""

    spec = S("theorem7", m=4, t=2, q=5)
    packet_bytes = 8


COMPARE_ROWS = {"main": 3, "omega": 4, "thm6-vs-thm7": 4}
PARAMS_LINE = re.compile(r"K=(\d+) F=(\d+) Z=(\d+) S=(\d+) R=(\S+)")


class Cli(Workload):
    """One pass of cli.main calls: construct, verify, simulate, compare and
    two error paths, with stdout and stderr captured."""

    def __init__(self, seed, workdir, fault=False):
        super().__init__()
        rng = random.Random(seed)
        self.seed = rng.getrandbits(32)

        def path(name):
            return os.path.join(workdir, name)

        t7, _ = schemes.build(S("theorem7", m=4, t=2, q=5))
        mn, _ = schemes.build(S("mn", m=10, s=3))
        t7_text = t7.to_json()
        with open(path("mn.json"), "w") as fh:
            fh.write(mn.to_json())
        with open(path("corrupt.json"), "w") as fh:
            fh.write(self._corrupt(t7, rng).to_json())
        with open(path("truncated.json"), "w") as fh:
            fh.write(t7_text[: rng.randrange(len(t7_text) // 4, 3 * len(t7_text) // 4)])

        def construct(family, m, q, name):
            return ["construct", "--scheme", family, "--m", str(m), "--t", "2", "--q", str(q), "--out", path(name)]

        # (argv, expected exit code, expected verdict or None, counts key)
        self.commands = [
            (construct("theorem7", 4, 5, "t7.json"), 0, "match", None),
            (construct("theorem6", 5, 4, "t6.json"), 0, "match", None),
            (["verify", path("t7.json")], 0, "accept", "theorem7(4,2,5)"),
            (["verify", path("t6.json")], 0, "accept", "theorem6(5,2,4)"),
            (["simulate", path("mn.json"), "--seed", str(self.seed)], 0, "PASS", None),
            *((["compare", table], 0, None, None) for table in COMPARE_ROWS),
            (["verify", path("corrupt.json")], 1, "reject", None),
            (["verify", path("truncated.json")], 3, None, None),
        ]
        self.paths = (path("t7.json"), path("t6.json"))

    @staticmethod
    def _corrupt(p, rng):
        """Copy of p with one star corner of a seed-chosen symbol pair
        replaced by a fresh symbol, which violates the PDA condition."""
        positions = {}
        for j, row in enumerate(p.grid):
            for k, c in enumerate(row):
                if c is not None:
                    positions.setdefault(c, []).append((j, k))
        symbols = sorted(s for s, cells in positions.items() if len(cells) > 1)
        (j1, _), (_, k2) = rng.sample(positions[rng.choice(symbols)], 2)
        grid = [list(row) for row in p.grid]
        grid[j1][k2] = max(positions) + 1
        return pdacache.pda_from_grid(grid)

    def op(self, i):
        results = []
        for argv, *_ in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects by exiting
                    code = exc.code
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, i, out):
        counts = {}
        for (argv, want_code, verdict, key), (code, stdout, stderr) in zip(self.commands, out):
            lines = stdout.splitlines()
            label = " ".join(argv[:2])
            if code != want_code:
                raise GateFailure(f"{label}: exit {code}, expected {want_code}: {stderr.strip()}")
            if verdict in ("match", "PASS") and (not lines or lines[-1] != verdict):
                raise GateFailure(f"{label}: last line {lines[-1:]}, expected {verdict!r}")
            if verdict in ("accept", "reject") and (not lines or lines[0].split(":")[0] != verdict):
                raise GateFailure(f"{label}: first line {lines[:1]}, expected {verdict!r}")
            if argv[0] == "compare":
                rows = list(csv.DictReader(io.StringIO(stdout)))
                if len(rows) != COMPARE_ROWS[argv[1]]:
                    raise GateFailure(f"{label}: {len(rows)} rows, expected {COMPARE_ROWS[argv[1]]}")
            if want_code == 3 and not stderr.startswith("error:"):
                raise GateFailure(f"{label}: no error message on stderr")
            if key is not None:
                match = PARAMS_LINE.search(stdout)
                if match is None:
                    raise GateFailure(f"{label}: no parameter line")
                K, F, Z, S_, R = match.groups()
                counts[key] = {"K": int(K), "F": int(F), "Z": int(Z), "S": int(S_), "R": R}
        counts["json_bytes"] = [os.path.getsize(p) for p in self.paths]
        self.record("pass", counts)


WORKLOADS = {
    "build_ladder": BuildLadder,
    "sim_bulk": SimBulk,
    "sim_fanout": SimFanout,
    "cli": Cli,
}
