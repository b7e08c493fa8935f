"""The four benchmark workloads.

Each workload builds its inputs from the seed before anything is timed,
writes the files the program loads, and yields a list of decisions in
rounds of a fixed mix.  ``prepare`` turns a decision into a zero-argument
call (materialising the compact inputs outside the timed region) and
``check`` compares the call's output with the answer known from the
construction.  Calls look raag functions up through their module at call
time, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from raag import cli, conjugacy, core, cubecomplex, oracle, piling
from raag.core import Letter
from raag.cubecomplex import BasedWord

import inputs as gen
from inputs import EXAMPLE, exponent_sums, flip_sign, inverse, reduced_word, rewrite, rotate

LETTERS = [Letter((c >> 1) + 1, -1 if c & 1 else 1) for c in range(256)]


def word(codes: bytes) -> tuple:
    return tuple(map(LETTERS.__getitem__, codes))


def codes(w) -> bytes:
    return bytes(2 * (l.gen - 1) + (l.sign < 0) for l in w)


def is_rotation(a: bytes, b: bytes) -> bool:
    return len(a) == len(b) and b in a + a


class Decision(NamedTuple):
    kind: str
    letters: int   # input letters decided
    data: tuple
    expect: object
    pair: int = -1  # decisions with the same pair id must agree


class Workload:
    name = ""
    round_len = 1
    setup_reps = 15
    decisions: list[Decision]

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self._pending: dict[int, bytes] = {}

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def setup(self):
        """The program's own set-up before the first decision."""
        raise NotImplementedError

    def timed_setup(self) -> tuple[float, object]:
        """Wall time of one set-up, and its state."""
        t0 = time.perf_counter()
        state = self.setup()
        return time.perf_counter() - t0, state

    def prepare(self, state, d: Decision):
        raise NotImplementedError

    def check(self, d: Decision, out) -> bool:
        return out is d.expect

    def check_pair(self, d: Decision, canon: bytes) -> bool:
        """First member of a pair stores its canonical form; the second
        must match it up to rotation."""
        first = self._pending.pop(d.pair, None)
        if first is None:
            self._pending[d.pair] = canon
            return True
        return is_rotation(first, canon)

    def oracle_sample(self, state) -> list[tuple[str, bool]]:
        """Small instances decided by raag, by the brute-force oracle and
        by construction; all three must agree."""
        return []

    def probes(self, state):
        """(label, call, check) at sizes L and 2L for the linearity probe."""
        return []


class WordsRandom(Workload):
    """Word problem, normal form and conjugacy on random reduced words
    over random commutation graphs with 4, 16 and 64 generators."""

    name = "words_random"
    # One round of the fixed mix, as (generators, decision).  The weights
    # put the median inside the 16-generator normal forms and the 90th
    # percentile inside the 64-generator normal forms, so that neither sits
    # on the edge between two kinds of decision, nor in the long tail of
    # 64-generator conjugacy, whose cost follows the number of cycled tiles.
    ROUND = ((4, "word_problem"), (16, "word_problem"), (64, "word_problem"),
             (4, "normal_form"), (4, "conjugate"),
             (16, "normal_form"), (16, "normal_form"), (16, "normal_form"),
             (16, "conjugate"), (16, "conjugate"),
             (64, "normal_form"), (64, "normal_form"), (64, "conjugate"))
    # letters of the base word u; every decision reads about 10k-20k letters
    BASE = {"word_problem": 10000, "normal_form": 7500, "conjugate": 5000}
    SCALES = {
        "full": dict(scale=1.0, graphs={4: 6, 16: 4, 64: 3}, rounds=18, probe=8000),
        "tiny": dict(scale=0.01, graphs={4: 2, 16: 1, 64: 1}, rounds=2, probe=64),
    }

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        p = self.SCALES[scale]
        rng = self.rng
        self.groups = {n: [gen.random_group(n, 0.5, rng) for _ in range(k)]
                       for n, k in p["graphs"].items()}
        self.files = {(n, k): self.write(f"g{n}_{k}.group", grp.text())
                      for n, grps in self.groups.items() for k, grp in enumerate(grps)}
        fracs = [gen.spread(p["rounds"], rng) for _ in self.ROUND]
        made = Counter()
        self.decisions = []
        for r in range(p["rounds"]):
            for slot, (n, kind) in enumerate(self.ROUND):
                key = (n, r % len(self.groups[n]))
                # sizes vary by +-5% around the base; YES and NO alternate
                size = int(self.BASE[kind] * p["scale"] * (0.95 + 0.1 * fracs[slot][r]))
                yes = made[n, kind] % 2 == 0
                made[n, kind] += 1
                self.decisions.append(self._make(kind, key, size, yes))
        self.round_len = len(self.ROUND)
        self.probe_size = p["probe"]

    def _make(self, kind, key, size, yes):
        grp = self.groups[key[0]][key[1]]
        rng = self.rng
        u = reduced_word(grp, size, rng)
        if kind == "word_problem":
            w = u + inverse(rewrite(grp, u, rng))
            if not yes:
                w = flip_sign(w, int(rng.random() * len(w)))
            return Decision(kind, len(w), (key, w), yes)
        if kind == "normal_form":
            u2 = rewrite(grp, u, rng)
            return Decision(kind, len(u) + len(u2), (key, u, u2),
                            (len(u), exponent_sums(u, grp.n)))
        v = gen.conjugate_variant(grp, u, rng, 20 + int(rng.random() * 80))
        if not yes:
            v = flip_sign(v, int(rng.random() * len(v)))
        return Decision(kind, len(u) + len(v), (key, u, v), yes)

    def setup(self):
        return {key: core.load_presentation(path) for key, path in self.files.items()}

    def prepare(self, state, d):
        g = state[d.data[0]]
        if d.kind == "word_problem":
            w = word(d.data[1])
            return lambda: piling.pi_star(g, w).signed_count == 0
        u, v = word(d.data[1]), word(d.data[2])
        if d.kind == "normal_form":
            return lambda: (conjugacy.normal_form(g, u), conjugacy.normal_form(g, v))
        return lambda: conjugacy.conjugate_in_raag(g, u, v)

    def check(self, d, out):
        if d.kind != "normal_form":
            return out is d.expect
        a, b = out
        length, sums = d.expect
        return a == b and len(a) == length and exponent_sums(codes(a), len(sums)) == sums

    def oracle_sample(self, state):
        rng = random.Random(f"{self.name}:oracle:{self.seed}")
        out = []
        for k in range(24):
            grp = gen.random_group(3 + k % 2, 0.5, rng)
            g = core.parse_presentation(grp.text())
            u = reduced_word(grp, 3 + int(rng.random() * 3), rng)
            v = gen.conjugate_variant(grp, u, rng, 1, p_insert=0.0)
            expect = k % 4 < 2
            if not expect:
                v = flip_sign(v, int(rng.random() * len(v)))
            U, V = word(u), word(v)
            ok = (oracle.oracle_conjugate(g, U, V) is expect
                  and conjugacy.conjugate_in_raag(g, U, V) is expect)
            out.append((f"{gen.word_text(u)} ~ {gen.word_text(v)}", ok))
        return out

    def probes(self, state):
        key = (16, 0)
        grp, g = self.groups[16][0], state[key]
        rng = random.Random(f"{self.name}:probe:{self.seed}")
        out = []
        for label, size in (("L", self.probe_size), ("2L", 2 * self.probe_size)):
            u = reduced_word(grp, size, rng)
            v = rotate(rewrite(grp, u, rng, p_insert=0.0), int(rng.random() * size))
            out.append((label, *_probe_call(g, u, v)))
        return out


def _probe_call(g, u: bytes, v: bytes):
    """One conjugacy decision (YES) plus one normal form of u, so every
    piling and conjugacy stage runs on inputs of a known size."""
    U, V = word(u), word(v)

    def call():
        return (conjugacy.conjugate_in_raag(g, U, V), conjugacy.normal_form(g, U))

    def check(out):
        return out[0] is True and len(out[1]) == len(u)
    return call, check


class WordsAdversarial(Workload):
    """Conjugacy and cyclic normal form on (a3 a4)^m a1 in the example
    group and (a_k ... a_2)^m a_1 in path graphs: the apex letter comes
    last, so nearly every tile is cycled."""

    name = "words_adversarial"
    # per family and round: a YES and a NO conjugacy decision, and the
    # cyclic normal forms of two conjugates of one family word
    KINDS = ("conjugate_yes", "conjugate_no", "cyclic_normal_form")
    SCALES = {
        "full": dict(size=(1000, 2500), rounds=12, probe=2000),
        "tiny": dict(size=(30, 60), rounds=2, probe=40),
    }

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        p = self.SCALES[scale]
        rng = self.rng
        ks = [6 + int(rng.random() * 7) for _ in range(2)]
        self.families = [("example", EXAMPLE, bytes((4, 6)))]
        self.families += [(f"path{k}", gen.path_group(k), bytes(2 * i for i in range(k - 1, 0, -1)))
                          for k in ks]
        self.files = [self.write(f"{fam}.group", grp.text()) for fam, grp, _ in self.families]
        lo, hi = p["size"]
        # sizes spread evenly over the range for every family and kind, so
        # latencies form a continuum rather than a few clusters
        fracs = [gen.spread(p["rounds"], rng) for _ in range(len(self.families) * 3)]
        self.decisions = []
        pair = 0
        for r in range(p["rounds"]):
            for f, (_, grp, _) in enumerate(self.families):
                for k, kind in enumerate(self.KINDS):
                    w = self.family_word(f, lo + int((hi - lo) * fracs[3 * f + k][r]))
                    if kind == "cyclic_normal_form":
                        expect = (len(w), exponent_sums(w, grp.n))
                        for _ in range(2):
                            v = self._variant(grp, w)
                            self.decisions.append(Decision(kind, len(v), (f, v), expect, pair))
                        pair += 1
                        continue
                    v = self._variant(grp, w)
                    if kind.endswith("no"):
                        v = flip_sign(v, int(rng.random() * len(v)))
                    self.decisions.append(Decision(kind, len(w) + len(v), (f, w, v),
                                                   kind.endswith("yes")))
        self.round_len = 4 * len(self.families)
        self.probe_size = p["probe"]

    def family_word(self, f: int, size: int) -> bytes:
        block = self.families[f][2]
        return block * ((size - 1) // len(block)) + bytes((0,))

    def _variant(self, grp, w):
        """Conjugate by a short c free of the apex a1 and rotate within c,
        which keeps the apex letter last and so keeps the cycling
        adversarial."""
        c = reduced_word(grp, 5 + int(self.rng.random() * 26), self.rng)
        c = bytes(x for x in c if x >> 1)   # no a1: it would move the apex to the front
        return rotate(c + w + inverse(c), int(self.rng.random() * (len(c) + 1)))

    def setup(self):
        return [core.load_presentation(path) for path in self.files]

    def prepare(self, state, d):
        g = state[d.data[0]]
        if d.kind == "cyclic_normal_form":
            v = word(d.data[1])
            return lambda: conjugacy.cyclic_normal_factors(g, v)
        w, v = word(d.data[1]), word(d.data[2])
        return lambda: conjugacy.conjugate_in_raag(g, w, v)

    def check(self, d, out):
        if d.kind != "cyclic_normal_form":
            return out is d.expect
        length, sums = d.expect
        if len(out.factors) != 1:
            return False
        f = codes(out.factors[0])
        return (len(f) == length and exponent_sums(f, len(sums)) == sums
                and self.check_pair(d, f))

    def oracle_sample(self, state):
        rng = random.Random(f"{self.name}:oracle:{self.seed}")
        # (group, block, most repeats) keeping both words within the oracle's bound
        small = [(EXAMPLE, bytes((4, 6)), 3), (gen.path_group(4), bytes((6, 4, 2)), 2)]
        out = []
        for k in range(16):
            grp, block, most = small[k % 2]
            w = block * (1 + int(rng.random() * most)) + bytes((0,))
            c = reduced_word(grp, 1, rng)
            v = rotate(c + w + inverse(c), int(rng.random() * 2))
            expect = k % 4 < 2
            if not expect:
                v = flip_sign(v, int(rng.random() * len(v)))
            g = core.parse_presentation(grp.text())
            W, V = word(w), word(v)
            ok = (oracle.oracle_conjugate(g, W, V) is expect
                  and conjugacy.conjugate_in_raag(g, W, V) is expect)
            out.append((f"{gen.word_text(w)} ~ {gen.word_text(v)}", ok))
        return out

    def probes(self, state):
        g = state[0]
        rng = random.Random(f"{self.name}:probe:{self.seed}")
        out = []
        for label, size in (("L", self.probe_size), ("2L", 2 * self.probe_size)):
            w = self.family_word(0, size)
            v = rotate(w, 1 + int(rng.random() * 8))
            out.append((label, *_probe_call(g, w, v)))
        return out


class LoopsComplex(Workload):
    """Free homotopy of based loops in finite abelian covers of the
    example group's one-vertex complex."""

    name = "loops_complex"
    setup_reps = 3
    LONG = ("rotation", "backtracks", "path", "no")
    SCALES = {
        "full": dict(covers=((20, 20), (32, 32)), long=(1000, 4000), power=(100, 400), rounds=100),
        "tiny": dict(covers=((3, 3), (4, 5)), long=(20, 60), power=(10, 30), rounds=2),
    }

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        p = self.SCALES[scale]
        rng = self.rng
        small = gen.random_cover(EXAMPLE, *p["covers"][0], rng)
        big = self._big_cover(*p["covers"][1])
        self.covers = [small, big]
        self.group_file = self.write("example.group", EXAMPLE.text())
        self.files = [self.write(f"cover{c.size}.complex", c.text()) for c in self.covers]
        lo, hi = p["long"]
        plo, phi = p["power"]
        fr_long = gen.spread(2 * p["rounds"], rng)
        fr_pow = gen.spread(p["rounds"], rng)
        self.decisions = []
        for r in range(p["rounds"]):
            for c in (0, 1):
                for k, how in enumerate(self.LONG):
                    size = lo + int((hi - lo) * fr_long[(2 * r + c + k) % len(fr_long)])
                    base, w = self._long_loop(self.covers[c], size)
                    self.decisions.append(self._pair(c, base, w, how))
            for how in ("rotation", "path", "backtracks", "no"):
                base, w = self._power_loop(big, plo + int((phi - plo) * fr_pow[r]))
                self.decisions.append(self._pair(1, base, w, how, kind="power"))
        self.round_len = 3 * len(self.LONG)

    # generator pairs whose link is not empty: {a1, a2} with link {a4},
    # {a3, a4} with link {a2}
    PAIRS = (((0, 1), 3), ((2, 3), 1))

    def _reaches_all(self, cover, z, link) -> bool:
        """Whether <phi(z), phi(link)> is the whole vertex group, so that
        reachability from a power of z visits every vertex."""
        key = (cover.end(0, z), link)
        if key not in self._spans:
            d = divmod(key[0], cover.m2)
            self._spans[key] = cover.span([d, cover.phi[link]]) == cover.size
        return self._spans[key]

    def _big_cover(self, m1, m2):
        """A cover where, for both pairs, a_i a_j reaches every vertex."""
        while True:
            cover = gen.random_cover(EXAMPLE, m1, m2, self.rng)
            self._spans = {}   # per cover: keyed by the vertex phi(z) reaches from 0
            if all(self._reaches_all(cover, bytes((2 * a, 2 * b)), link)
                   for (a, b), link in self.PAIRS):
                return cover

    def _long_loop(self, cover, size):
        w = cover.close(reduced_word(EXAMPLE, size, self.rng))
        return int(self.rng.random() * cover.size), w

    def _power_loop(self, cover, size):
        """z^k for a short cyclically reduced z over one of the pairs that
        reaches every vertex; a_i a_j when a few random draws do not."""
        rng = self.rng
        (a, b), link = self.PAIRS[int(rng.random() * 2)]
        for _ in range(20):
            z = bytes(2 * (a, b)[int(rng.random() * 2)] + (rng.random() < 0.5)
                      for _ in range(2 + int(rng.random() * 3)))
            if (len({c >> 1 for c in z}) == 2
                    and all(z[i] != z[i - 1] ^ 1 for i in range(len(z)))
                    and self._reaches_all(cover, z, link)):
                break
        else:
            z = bytes((2 * a, 2 * b))
        k = cover.order(divmod(cover.end(0, z), cover.m2))
        reps = max(1, size // (k * len(z)))
        return int(rng.random() * cover.size), z * (k * reps)

    def _pair(self, c, base, w, how, kind="long"):
        base2, w2 = gen.loop_partner(self.covers[c], base, w, how, self.rng,
                                     5 + int(self.rng.random() * 45))
        return Decision(f"{kind}_{how}", len(w) + len(w2), (c, base, w, base2, w2), how != "no")

    def setup(self):
        g = core.load_presentation(self.group_file)
        cxs = []
        for path in self.files:
            cx = cubecomplex.load_complex(path, g)
            if not cubecomplex.validate(cx, g).ok:
                raise RuntimeError(f"generated complex {path} failed validation")
            cxs.append(cx)
        return g, cxs

    def prepare(self, state, d):
        g, cxs = state
        c, base, w, base2, w2 = d.data
        name = self.covers[c].name
        b1 = BasedWord(name(base), word(w), name(base))
        b2 = BasedWord(name(base2), word(w2), name(base2))
        cx = cxs[c]
        return lambda: cubecomplex.groupoid_conjugate(cx, g, b1, b2)

    def oracle_sample(self, state):
        rng = random.Random(f"{self.name}:oracle:{self.seed}")
        cover = gen.random_cover(EXAMPLE, 2, 3, rng)
        g = state[0]
        cx = cubecomplex.parse_complex(cover.text(), g)
        out = []
        for k in range(12):
            w = cover.close(reduced_word(EXAMPLE, 2 + int(rng.random() * 2), rng))
            base = int(rng.random() * cover.size)
            how = ("rotation", "backtracks", "path", "no")[k % 4]
            pair = ((base, w), gen.loop_partner(cover, base, w, how, rng, 1))
            b1, b2 = (BasedWord(cover.name(b), word(x), cover.name(b)) for b, x in pair)
            expect = how != "no"
            ok = (oracle.oracle_groupoid_conjugate(cx, g, b1, b2) is expect
                  and cubecomplex.groupoid_conjugate(cx, g, b1, b2) is expect)
            out.append((f"{cover.name(base)}: {gen.word_text(w)} / {how}", ok))
        return out


BOOT = "import sys; from raag.cli import main; sys.exit(main())"


class CliText(Workload):
    """The ``raag`` entry point, one process per decision, on word text
    with exponents read from the command line and group and complex
    files."""

    name = "cli_text"
    setup_reps = 5
    KINDS = ("word_problem_yes", "word_problem_no", "normal_form_pair",
             "conjugate_yes", "conjugate_no", "groupoid_yes", "groupoid_no")
    SCALES = {
        "full": dict(half=(4000, 6000), rounds=24, cover=(10, 10)),
        "tiny": dict(half=(20, 40), rounds=2, cover=(3, 3)),
    }

    def __init__(self, seed, scale, workdir, src: Path):
        super().__init__(seed, scale, workdir)
        p = self.SCALES[scale]
        rng = self.rng
        self.src = src
        self.in_process = False
        self.cover = gen.random_cover(EXAMPLE, *p["cover"], rng)
        self.group_file = self.write("example.group", EXAMPLE.text())
        self.complex_file = self.write(f"cover{self.cover.size}.complex", self.cover.text())
        lo, hi = p["half"]
        fracs = {k: gen.spread(p["rounds"], rng) for k in range(len(self.KINDS))}
        self.decisions = []
        for r in range(p["rounds"]):
            for k, kind in enumerate(self.KINDS):
                size = lo + int((hi - lo) * fracs[k][r])
                self.decisions += self._make(kind, size, pair=r)
        self.round_len = len(self.KINDS) + 1

    def _argv(self, cmd, *rest):
        return (cmd, "-g", self.group_file, *rest, "--json", "--no-timing")

    def _make(self, kind, size, pair):
        rng = self.rng
        if kind == "normal_form_pair":
            # two decisions: the normal forms of u and of a rewrite of u
            u = reduced_word(EXAMPLE, 2 * size, rng, max_run=3)
            expect = (len(u), exponent_sums(u, 4))
            return [Decision("normal_form", len(w), self._argv("normal-form", "-w", gen.word_text(w)),
                             expect, pair) for w in (u, rewrite(EXAMPLE, u, rng))]
        u = reduced_word(EXAMPLE, size, rng, max_run=3)
        yes = kind.endswith("yes")
        if kind.startswith("word_problem"):
            w = u + inverse(rewrite(EXAMPLE, u, rng))
            if not yes:
                w = flip_sign(w, int(rng.random() * len(w)))
            return [Decision(kind, len(w), self._argv("word-problem", "-w", gen.word_text(w)), yes)]
        if kind.startswith("conjugate"):
            v = gen.conjugate_variant(EXAMPLE, u, rng, 20 + int(rng.random() * 80))
            if not yes:
                v = flip_sign(v, int(rng.random() * len(v)))
            return [Decision(kind, len(u) + len(v), self._argv(
                "conjugate", "-w", gen.word_text(u), "-v", gen.word_text(v)), yes)]
        cover = self.cover
        w = cover.close(u)
        base = int(rng.random() * cover.size)
        base2, w2 = gen.loop_partner(cover, base, w, "path" if yes else "no", rng,
                                     5 + int(rng.random() * 45))
        return [Decision(kind, len(w) + len(w2), self._argv(
            "groupoid-conjugate", "-x", self.complex_file,
            "--loop1", f"{cover.name(base)}: {gen.word_text(w)}",
            "--loop2", f"{cover.name(base2)}: {gen.word_text(w2)}"), yes)]

    def spawn(self, argv) -> tuple[int, str]:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        proc = subprocess.run([sys.executable, "-c", BOOT, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def in_process_main(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def setup(self):
        """What every CLI process does before deciding: import, load the
        group, load and validate the complex (in-process form)."""
        return self.in_process_main(self._argv("validate-complex", "-x", self.complex_file))

    def timed_setup(self):
        t0 = time.perf_counter()
        rc, out = self.spawn(self._argv("validate-complex", "-x", self.complex_file))
        elapsed = time.perf_counter() - t0
        if rc != 0 or not json.loads(out)["ok"]:
            raise RuntimeError(f"generated complex failed validation: {out}")
        return elapsed, None

    def prepare(self, state, d):
        run = self.in_process_main if self.in_process else self.spawn
        return lambda: run(d.data)

    def check(self, d, out):
        rc, text = out
        if rc != 0:
            return False
        payload = json.loads(text)
        if d.kind == "normal_form":
            nf = gen.text_codes(payload["normal_form"])
            length, sums = d.expect
            return (len(nf) == length and exponent_sums(nf, 4) == sums
                    and self.check_pair(d, nf))
        key = {"word_problem": "identity", "conjugate": "conjugate",
               "groupoid": "freely_homotopic"}[d.kind.rpartition("_")[0]]
        return payload[key] is d.expect

    def oracle_sample(self, state):
        rng = random.Random(f"{self.name}:oracle:{self.seed}")
        g = core.load_presentation(self.group_file)
        out = []
        for k in range(12):
            u = reduced_word(EXAMPLE, 3 + int(rng.random() * 3), rng, max_run=2)
            v = gen.conjugate_variant(EXAMPLE, u, rng, 1, p_insert=0.0)
            expect = k % 4 < 2
            if not expect:
                v = flip_sign(v, int(rng.random() * len(v)))
            rc, text = self.in_process_main(self._argv(
                "conjugate", "-w", gen.word_text(u), "-v", gen.word_text(v)))
            ok = (rc == 0 and json.loads(text)["conjugate"] is expect
                  and oracle.oracle_conjugate(g, word(u), word(v)) is expect)
            out.append((f"{gen.word_text(u)} ~ {gen.word_text(v)}", ok))
        return out


WORKLOADS = {cls.name: cls for cls in (WordsRandom, WordsAdversarial, LoopsComplex, CliText)}
