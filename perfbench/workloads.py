"""The four benchmark workloads: seeded inputs, one op per input, output checks.

Each workload draws its inputs in rounds.  A round holds one input from every
stratum of the workload (every family, every chain order, every (knot count,
blowup count) pair and the word ops, every CLI command kind) in a seeded
order, so every run has the same mix and only the draws within a stratum vary
with the seed.  A run has ``round(seconds * rounds_per_s)`` rounds, a fixed
number, so that the median's and the tail's ranks sit at the same place in
every run; ``rounds_per_s`` makes a run about
``--seconds`` of scaled op time on the box the benchmark was defined on.
Ops are passed only the generated inputs and call the package through its
module attributes at call time, so the traced run sees every call.
``check`` runs outside the timed interval; it raises ``CheckFailed`` or
returns a digest of the op's output.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _log_uniform(rng, count, high):
    """``count`` integers in [1, high], log-uniform, one from each of ``count`` equal slices.

    Stratified, so the total work they cause varies little from seed to seed.
    """
    slices = list(range(count))
    rng.shuffle(slices)
    return [max(1, round(high ** ((k + rng.random()) / count))) for k in slices]


class Families:
    """The paper's constructions X_n, Q_n, b7 and b8 for n in 1..20.

    Most of their time is rational_blowdown.  The chains of order 3, 5 and 7
    recur, so the chain caches are hot.
    """

    name = "families"
    kernel = reference.IN_PROCESS
    rounds_per_s = 4.5
    # family -> (function in swsurgery.pipelines, b- of the result)
    CONSTRUCTIONS = {"Xn": ("build_Xn", 6), "Qn": ("build_Qn", 5),
                     "b7": ("build_b7_family", 7), "b8": ("build_b8_family", 8)}
    trace_rounds = 10

    def prepare(self, pkg, root):
        pass

    def rounds(self, rng, count):
        for _ in range(count):
            families = sorted(self.CONSTRUCTIONS)
            rng.shuffle(families)
            yield [(family, rng.randint(1, 20)) for family in families]

    def run(self, pkg, case):
        family, n = case
        return getattr(pkg.pipelines, self.CONSTRUCTIONS[family][0])(n)

    run_in_process = run

    def check(self, pkg, case, out):
        family, n = case
        model, report = out
        b_minus = self.CONSTRUCTIONS[family][1]
        require(report.all_pass, f"{family}({n}): report has {report.failed} failed checks")
        require(model.sw.magnitudes() == (n, n), f"{family}({n}): SW magnitudes {model.sw.magnitudes()}")
        require((model.lattice.rank, model.sign, model.euler) == (1 + b_minus, 1 - b_minus, 3 + b_minus),
                f"{family}({n}): not b+ = 1, b- = {b_minus}")
        return _digest(report.to_json(), json.dumps(model.to_dict(), sort_keys=True))


def _continuants(weights):
    """Leading and trailing continuants of a linear chain with unit edges.

    lead[k] is the determinant of the first k vertices, tail[k] that of the
    vertices k..end; lead[n] == tail[0] is the determinant of the chain.
    """
    n = len(weights)
    lead = [1, weights[0]]
    for k in range(2, n + 1):
        lead.append(weights[k - 1] * lead[k - 1] - lead[k - 2])
    tail = [0] * (n + 2)
    tail[n], tail[n - 1] = 1, weights[n - 1]
    for k in range(n - 2, -1, -1):
        tail[k] = weights[k] * tail[k + 1] - tail[k + 2]
    return lead, tail


class Chains:
    """Cold linear chains: determinant, inverse, lens space and relative square.

    Each chain is cp_chain(p) for a p not used before in the run, or explicit
    weights <= -2 of the same length, so every chain misses the lru_caches.
    The general weights keep a shortcut that only knows cp chains from
    passing for a general gain.  Dense exact inversion dominates.
    """

    name = "chains"
    kernel = reference.IN_PROCESS
    rounds_per_s = 0.15
    # Chain orders p of one round (chain length p - 1), Fibonacci-spaced up to
    # the CLI's --p 60 example.  In a three-round run the median falls in the
    # middle of the nine p = 21 chains, and the tail's rank, after the nine
    # p = 60 chains, among the three p = 34 chains.
    ORDERS = (3, 5, 8, 13, 21, 21, 21, 34, 60, 60, 60)
    trace_rounds = 1

    def prepare(self, pkg, root):
        self.ambient = pkg.models.e1()

    def rounds(self, rng, count):
        used_p, seen = set(), set()
        for _ in range(count):
            orders = list(self.ORDERS)
            rng.shuffle(orders)
            batch = []
            for p in orders:
                if p not in used_p and rng.random() < 0.5:
                    used_p.add(p)
                    weights = (-(p + 2),) + (-2,) * (p - 2)
                    batch.append(("cp", p, weights, p))
                else:
                    # like cp_chain(p), a heavy head and a -2 tail, with two -3s in the
                    # tail so that entries grow a little, alike from seed to seed
                    weights = None
                    while weights is None or weights in seen:
                        tail = [-2] * (p - 2)
                        for i in rng.sample(range(p - 2), min(2, p - 2)):
                            tail[i] = -3
                        weights = (-rng.randint(3, 80), *tail)
                    batch.append(("weights", p, weights, p))
                seen.add(weights)
            yield batch

    def run(self, pkg, case):
        kind, p, weights, c = case
        pl = pkg.plumbing
        if kind == "cp":
            chain = pl.cp_chain(p)
        else:
            chain = pl.PlumbingChain(weights, tuple((i, i + 1) for i in range(len(weights) - 1)))
        form = pl.intersection_matrix(chain)
        inverse = form.inverse()
        lens = pl.boundary_lens_space(chain)
        emb = pl.ConfigurationEmbedding(
            ambient=self.ambient, chain=chain, profile_gram=form.matrix,
            profile_pairings={"T": (c,) + (0,) * (len(weights) - 1)})
        relsq = pl.relative_square_of_restriction(emb, {"T": 1})
        return chain.weights, form.det, inverse, lens, relsq

    run_in_process = run

    def check(self, pkg, case, out):
        kind, p, weights, c = case
        got_weights, det, inverse, lens, relsq = out
        require(tuple(got_weights) == weights, f"chain weights {got_weights} != {weights}")
        lead, tail = _continuants(weights)
        require(det == lead[-1] == tail[0], f"det {det} != continuant {lead[-1]}")
        row0 = [Fraction((-1) ** j * tail[j + 1], det) for j in range(len(weights))]
        require(list(inverse[0]) == row0, "first row of the inverse differs from the continuant formula")
        require(relsq == c * c * row0[0], f"relative square {relsq} != {c * c * row0[0]}")
        require((lens.order, lens.twist) == (abs(det), abs(tail[1])),
                f"lens space ({lens.order}, {lens.twist}) != ({abs(det)}, {abs(tail[1])})")
        if kind == "cp":
            require(abs(det) == p * p, f"cp_chain({p}) has |det| {abs(det)}")
            require(inverse[0][0] == Fraction(-(p - 1), p * p), f"cp_chain({p}) inverse head {inverse[0][0]}")
            require(relsq == -(p - 1), f"cp_chain({p}) relative square {relsq}")
        return _digest(weights, det, [[str(x) for x in row] for row in inverse],
                       lens.order, lens.twist, str(relsq))


IDENTITY_BLOCKS = ("(ab)^6", "(ba)^-6", "(aba)^4", "(bab)^-4")


def _twist_word(rng, factors, magnitudes):
    """A twist word and its free reduction (identity blocks dropped).

    ``factors`` flags which factors are identity blocks; the others take
    their exponents' magnitudes from the iterator ``magnitudes``.
    """
    parts, reduced = [], []
    for is_identity in factors:
        if is_identity:
            parts.append(rng.choice(IDENTITY_BLOCKS))
            continue
        letter = rng.choice("abAB")
        e = rng.choice((1, -1)) * next(magnitudes)
        parts.append(f"{letter}^{e}")
        lower = letter.lower()
        e = e if letter == lower else -e
        if reduced and reduced[-1][0] == lower:
            e += reduced.pop()[1]
        if e:
            reduced.append((lower, e))
    return "".join(parts), "".join(f"{letter}^{e}" for letter, e in reduced)


def _alexander_product(twists):
    """Product of n t - (2n - 1) + n t^-1 over the twists, keyed by doubled exponent."""
    poly = {0: 1}
    for n in twists:
        out = {}
        for e1, c1 in poly.items():
            for e2, c2 in ((2, n), (0, -(2 * n - 1)), (-2, n)):
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        poly = out
    return {e: c for e, c in poly.items() if c}


class Calculus:
    """The small calculators: knot surgery, blowups, SW queries and twist words.

    A model op surgers 1-4 twist knots into E(1), blows up 0-4 times and
    queries every SW class; a word op checks a twist word against its free
    reduction and evaluates one power of a.  It bypasses plumbing and nearly
    all of exactmat, so a linear-algebra change predicts no change here.
    """

    name = "calculus"
    kernel = reference.IN_PROCESS
    rounds_per_s = 1.5
    # Every (knot count, blowup count) model once a round, and half as many
    # word ops: the median falls among model ops and the tail's rank among
    # the (4, 4) models, the costliest stratum.
    STRATA = tuple((knots, blowups) for knots in range(1, 5) for blowups in range(5))
    WORDS = 10
    trace_rounds = 2

    def prepare(self, pkg, root):
        pass

    def rounds(self, rng, count):
        for _ in range(count):
            batch = [("model", tuple(rng.randint(-30, 30) for _ in range(knots)), blowups)
                     for knots, blowups in self.STRATA]
            # 2-6 factors per word, a fifth of all factors identity blocks
            sizes = [2 + i % 5 for i in range(self.WORDS)]
            flags = [i < sum(sizes) // 5 for i in range(sum(sizes))]
            rng.shuffle(flags)
            magnitudes = iter(_log_uniform(rng, flags.count(False), 10 ** 4))
            used = 0
            for size, a_power in zip(sizes, _log_uniform(rng, self.WORDS, 10 ** 4)):
                word, reduced = _twist_word(rng, flags[used:used + size], magnitudes)
                used += size
                batch.append(("word", word, reduced, rng.choice((1, -1)) * a_power))
            rng.shuffle(batch)
            yield batch

    def run(self, pkg, case):
        if case[0] == "word":
            _, word, reduced, a_power = case
            fact = pkg.monodromy.verify_factorization(word, reduced)
            power = pkg.monodromy.evaluate(f"a^{a_power}")
            return fact.equal, fact.lhs.rows(), fact.rhs.rows(), power.rows()
        _, twists, blowups = case
        kn, mf = pkg.knots, pkg.manifold
        X = pkg.models.e1()
        for n in twists:
            X = kn.knot_surgery_manifold(X, X.marked_class("T"), kn.TwistKnot(n))
        for _ in range(blowups):
            X = mf.blowup(X)
        classes = X.sw.classes()
        dims = [mf.dimension(X, k) for k in classes]
        chamber = mf.Chamber(X, X.marked_class("h"))
        chamber_values = [mf.chamber_sw(X, k, chamber) for k in classes]
        verdict = mf.minimality_check(X)
        return (X.sw.entries, dims, chamber_values, (verdict.status, verdict.witness, verdict.e_square),
                tuple(mf.fingerprint(X)))

    run_in_process = run

    def check(self, pkg, case, out):
        if case[0] == "word":
            _, word, reduced, a_power = case
            equal, lhs, rhs, power = out
            require(equal and lhs == rhs, f"{word} != {reduced}")
            require(power == ((1, a_power), (0, 1)), f"a^{a_power} evaluates to {power}")
            return _digest(out)
        _, twists, blowups = case
        entries, dims, chamber_values, verdict, fp = out
        table = dict(entries)
        require(all(table.get(tuple(-x for x in k)) == -v for k, v in table.items()),
                f"SW table of {twists} is not antisymmetric")
        # the fiber T is (3, -1, ..., -1) in E(1); blowups keep the eta coordinate
        by_fiber = {}
        for k, v in table.items():
            require(k[0] % 3 == 0 and by_fiber.setdefault(k[0] // 3, v) == v,
                    f"SW values of {twists} differ on one fiber multiple")
        require(all(sum(1 for k in table if k[0] == 3 * j) == 2 ** blowups for j in by_fiber),
                f"blowups of {twists} did not double every entry")
        rebuilt = {0: 1}
        for j, v in by_fiber.items():  # 1 + (t^1/2 - t^-1/2) * sum v_j t^(j/2)
            rebuilt[j + 1] = rebuilt.get(j + 1, 0) + v
            rebuilt[j - 1] = rebuilt.get(j - 1, 0) - v
        rebuilt = {e: c for e, c in rebuilt.items() if c}
        require(rebuilt == _alexander_product(twists),
                f"SW table of {twists} does not rebuild the Alexander product")
        require(dims == [0] * len(table), f"SW classes of {twists} have dimensions {set(dims)}")
        require(chamber_values == [v for _, v in entries], "chamber_sw at h differs from the table")
        require(fp == (1, 9 + blowups, "odd", True), f"fingerprint {fp}")
        return _digest(out)


class Cli:
    """Sequential ``python -m swsurgery`` subprocesses over a fixed grid.

    The only workload that pays import, cold start and report serialization
    on every op, as a user running the checks does.  Outputs are compared
    with digests recorded by ``record_goldens.py``.
    """

    name = "cli"
    kernel = reference.SUBPROCESS
    rounds_per_s = 0.35
    FAMILY_NS = range(1, 9)
    PLUMBING_PS = range(5, 41, 5)
    KNOT_LISTS = ("1", "3", "1,3", "2,5", "-4,7", "1,2,3", "10,-10", "0,6", "30", "5,5,5",
                  "1,2,3,4", "-30,30,12")
    WORDS = (("a^6(A^3ba^3)(baB)^2b^2(Bab)", "(a^3b)^3"), ("(ab)^4a^2(Aba)b", "(ab)^6"),
             ("aba", "bab"), ("(a^3b)^3", "(ab)^6"), ("(ab)^3(ab)^3", ""), ("a^100A^100", ""),
             ("ab^7B^7A", ""), ("(aba)^4", ""))
    ZN_KS = range(1, 7)
    CLASS_PAIRS = (("T+E0+E1+E2", "T"), ("T+E0+E1+E2", "h"),
                   ("eps9+2*T-2*E0-2*E1-2*E2", "eps5-eps9"), ("3*h-eps1-eps2", "E0+E1"))
    # Run in process after the ops of every traced run, so that each listed
    # function is called, and so timed, on every workload.
    PROBE = (("verify-paper", "--only", "monodromy", "--json"),
             ("family", "xn", "--n", "1", "--json"), ("family", "qn", "--n", "1", "--json"),
             ("family", "b7", "--n", "1", "--json"), ("family", "b8", "--n", "1", "--json"),
             ("plumbing", "cp", "--p", "5", "--invert", "--boundary", "--json"),
             ("sw", "e1-surgery", "--knots=1,3", "--json"),
             ("lattice", "pair", "--model", "zn:1", "--class", "T+E0+E1+E2", "--class", "T", "--json"))
    trace_rounds = 2

    # The kinds of one round.  verify-paper, the command users run most, fills
    # two slots, so that the tail's rank falls among verify-paper runs.
    SLOTS = ("verify", "verify", "family", "plumbing", "sw", "monodromy", "lattice")

    def grid(self):
        """Every command line of the grid, by kind."""
        return {
            "verify": [("verify-paper", "--json"), ("verify-paper",)],
            "family": [("family", f, "--n", str(n), "--json")
                       for f in ("xn", "qn", "b7", "b8") for n in self.FAMILY_NS],
            "plumbing": [("plumbing", "cp", "--p", str(p), "--invert", "--boundary", "--json")
                         for p in self.PLUMBING_PS],
            "sw": [("sw", "e1-surgery", f"--knots={k}", "--json") for k in self.KNOT_LISTS],
            "monodromy": [("monodromy", "check", w) + ((f"--equals={t}",) if t else ()) + ("--json",)
                          for w, t in self.WORDS],
            "lattice": [("lattice", "pair", "--model", f"zn:{k}", "--class", x, "--class", y, "--json")
                        for k in self.ZN_KS for x, y in self.CLASS_PAIRS],
        }

    def prepare(self, pkg, root):
        self.root = root
        self.goldens = json.loads((root / "perfbench" / "cli_goldens.json").read_text())
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def rounds(self, rng, count):
        # each kind's draws cover its grid evenly, one from each of n slices
        draws = {}
        for kind, commands in self.grid().items():
            n = count * self.SLOTS.count(kind)
            draws[kind] = [commands[int((k + rng.random()) * len(commands) / n)] for k in range(n)]
            rng.shuffle(draws[kind])
        for _ in range(count):
            slots = list(self.SLOTS)
            rng.shuffle(slots)
            yield [draws[kind].pop() for kind in slots]

    def command(self, argv):
        return [sys.executable, "-m", "swsurgery", *argv]

    def run(self, pkg, case):
        proc = subprocess.run(self.command(case), cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def run_in_process(self, pkg, case):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = pkg.cli.main(list(case))
        return code, out.getvalue().encode()

    def check(self, pkg, case, out):
        code, stdout = out
        key = " ".join(case)
        require(code == 0, f"`{key}` exited with {code}")
        digest = hashlib.sha256(stdout).hexdigest()
        require(digest == self.goldens[key], f"`{key}` stdout differs from its golden")
        return digest


WORKLOADS = {w.name: w for w in (Families(), Chains(), Calculus(), Cli())}


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent
