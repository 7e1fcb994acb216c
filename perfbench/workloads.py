"""The three dgdm benchmark workloads.

Each workload is a closed loop with one caller: it runs one operation
at a time in this process and thread, and starts the next one only
after the previous one returned.  A workload object is built from the
workload seed, generates its inputs in `setup()` (timed by the runner
together with the import of dgdm), and runs passes over those inputs
with `run_pass(j)`; a pass runs every input once.  Every operation and
pass is timed through the runner's `speed.Speed`, which takes its probe
time out and can scale it to the reference speed.  Entry points are
looked up on their module at call time, so a traced pass goes through
the tracing wrappers.

  suite            `dgdm suite --seed 42` through `dgdm.cli.main`; one
                   operation per catalog check.
  groebner_ladder  `groebner.syzygies` on the 12-rung ladder of 3x2
                   matrices, each rung under an in-process deadline.
  bounded_deep     the six bounded weak-equivalence entry points on 6
                   fixed random instance sets, at truncation 7.

The inputs of every workload are fixed reference sets and the workload
seed fixes the order in which a pass visits them (the suite runs in
catalog order).  Each family is heavy-tailed or seed-sensitive in cost,
and a run holds too few passes to average that out; the docstring
of each workload gives the figures.
"""

from __future__ import annotations

import copy
import hashlib
import io
import random
import signal
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Dict, List

from speed import Interval, Speed
from tracing import Patcher

OK, MISS, GUARD, ERROR, WRONG = "ok", "miss", "guard", "error", "wrong"


@dataclass
class Op:
    name: str
    status: str
    interval: Interval

    @property
    def seconds(self) -> float:
        return self.interval.seconds


@dataclass
class Pass:
    interval: Interval
    ops: List[Op] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.interval.seconds


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    def __init__(self, seed: int, tiny: bool, pins: Dict, deadline: float):
        self.seed = seed
        self.tiny = tiny
        self.pins = pins.get(self.name, {})
        self.deadline = deadline
        self.problems: List[str] = []  # correctness-gate failures
        self.notes: List[str] = []  # lines printed after the run
        self.speed = Speed()  # the runner replaces it with the active one

    def setup(self):
        raise NotImplementedError

    def run_pass(self, j: int) -> Pass:
        raise NotImplementedError

    def run_once(self) -> List[Op]:
        """Operations run once per run, before the passes: they count in
        done_ratio and in the result's `attempted`, not in the times."""
        return []

    def finish(self):
        """Called once after the last pass, to add summary notes."""


# --------------------------------------------------------------------- suite

class Suite(Workload):
    """`dgdm suite --seed 42` in-process, stdout captured, once per pass.
    An operation is one `verify.run_check` call made by the suite.

    The suite seed is the reference seed 42 whatever the workload seed:
    suite seeds do different amounts of work (51,657 to 73,980 mono_mul
    calls over seeds 0-9 and 42), and a 30 s run holds only four to six
    passes, too few to average that out.  Gates: exit code 0,
    no `fail` verdict, identical stdout bytes on every pass, and equality
    with the digest pinned at the reference commit.
    """

    name = "suite"
    SUITE_SEED = 42

    def setup(self):
        from dgdm import cli, verify

        self.cli, self.verify = cli, verify
        argv = ["suite", "--seed", str(self.SUITE_SEED)]
        if self.tiny:
            argv += ["--filter", "f"]  # the two cheap checks whose names start with f
        self.key = f"{'f' if self.tiny else 'all'}:{self.SUITE_SEED}"
        self.argv = argv
        self.digest = None

    def run_pass(self, j: int) -> Pass:
        key, argv, speed = self.key, self.argv, self.speed
        ops = []
        run_check = self.verify.run_check

        def timed_check(*args, **kwargs):
            mark = speed.mark()
            report = run_check(*args, **kwargs)
            status = OK if report.verdict in ("pass", "bounded-pass") else WRONG
            ops.append(Op(report.name, status, speed.since(mark)))
            return report

        patch = Patcher()
        patch.function(run_check, timed_check)
        out, err = io.StringIO(), io.StringIO()
        code = None
        mark = speed.mark()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed pass, not a crash of the benchmark
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
        finally:
            wall = speed.since(mark)
            patch.restore()

        digest = sha256(out.getvalue())
        bad = None
        if code != 0:
            bad = f"exit code {code}"
        elif self.digest not in (None, digest):
            bad = "stdout differs from an earlier pass in this run"
        elif self.pins.get(key, digest) != digest:
            bad = f"stdout digest {digest[:12]} != pinned {self.pins[key][:12]}"
        self.digest = self.digest or digest
        if bad:
            self.problems.append(f"suite {key}: {bad}")
            ops = [Op(op.name, WRONG, op.interval) for op in ops] or [Op(key, ERROR, wall)]
        return Pass(wall, ops)

    def finish(self):
        state = "pinned" if self.key in self.pins else "not pinned"
        self.notes.append(f"suite {self.key}: stdout sha256 {self.digest} ({state})")


# -------------------------------------------------------------------- ladder

LADDER_RUNGS = tuple(range(12))
# Rungs that miss the 1 s deadline at the reference commit (the fastest
# of them needs 5 s).  They run once per run, for done_ratio, and stay out
# of the timed passes, whose time would otherwise be mostly deadline.
TAIL_RUNGS = (5, 7, 8, 9)
TINY_RUNGS = (0, 2, 3, 6, 7)


def ladder_matrix(randgen, rung: int):
    """Rung s of the ladder: a 3x2 matrix, entries random_weyl(Random(s), 1, 3, 2)."""
    rng = random.Random(rung)
    return [[randgen.random_weyl(rng, 1, 3, 2) for _ in range(2)] for _ in range(3)]


def kernel_digest(gb) -> str:
    """Digest of a reduced Groebner basis, which is unique for its module."""
    return sha256("\n".join(" ; ".join(c.to_string() for c in g.coords)
                            for g in gb.generators))


class DeadlineMissed(BaseException):
    """Raised by SIGALRM inside a ladder rung.  A BaseException, so no
    `except Exception` in the code under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineMissed()


class Ladder(Workload):
    """`groebner.syzygies` on each rung of the 12-rung ladder.

    The rungs are fixed (the ladder named in ROADMAP.md item 2); the
    workload seed fixes the order in which a pass visits them.  Drawn
    per seed, the family is too heavy-tailed to measure in one run: of 30
    instances per seed, 5 to 8 ran past 5 s and most ended in
    milliseconds.  Every rung runs under a SIGALRM deadline; a rung that
    misses it counts as not done, timed at the moment it was stopped.
    The timed passes run the eight rungs that finish; the four that miss
    (TAIL_RUNGS) run once per run, before the passes, and count only in
    done_ratio.
    Gate: each completed rung's kernel must match its pinned digest.
    """

    name = "groebner_ladder"

    def setup(self):
        from dgdm import groebner, randgen

        self.groebner = groebner
        rungs = TINY_RUNGS if self.tiny else LADDER_RUNGS
        self.matrices = {s: ladder_matrix(randgen, s) for s in rungs}
        self.tail = [s for s in rungs if s in TAIL_RUNGS]
        self.order = [s for s in rungs if s not in TAIL_RUNGS]
        random.Random(f"ladder:{self.seed}").shuffle(self.order)
        self.times: Dict[int, List[float]] = {s: [] for s in rungs}
        self.status: Dict[int, set] = {s: set() for s in rungs}

    def _rung(self, s: int) -> Op:
        mark = self.speed.mark()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            try:
                gb = self.groebner.syzygies(self.matrices[s], 1)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = OK
        except DeadlineMissed:
            status = MISS
        except self.groebner.DegreeGuardExceeded:
            status = GUARD
        except Exception as exc:
            status = ERROR
            self.problems.append(f"rung {s}: {type(exc).__name__}: {exc}")
        interval = self.speed.since(mark)
        if status == OK:
            digest = kernel_digest(gb)
            pinned = self.pins.get(str(s))
            if pinned is None:
                self.notes.append(f"rung {s}: completed, no pinned digest ({digest})")
            elif pinned != digest:
                status = WRONG
                self.problems.append(f"rung {s}: kernel digest {digest[:12]} != pinned {pinned[:12]}")
        self.times[s].append(interval.seconds)
        self.status[s].add(status)
        return Op(f"rung{s}", status, interval)

    def _rungs(self, rungs) -> Pass:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        mark = self.speed.mark()
        try:
            ops = [self._rung(s) for s in rungs]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return Pass(self.speed.since(mark), ops)

    def run_once(self) -> List[Op]:
        return self._rungs(self.tail).ops

    def run_pass(self, j: int) -> Pass:
        return self._rungs(self.order)

    def finish(self):
        for s in sorted(self.times):
            ts = sorted(self.times[s])
            if ts:
                self.notes.append(
                    f"rung {s:2d}: median {statistics.median(ts):.4f} s over {len(ts)} "
                    f"(min {ts[0]:.4f}, max {ts[-1]:.4f}), {'/'.join(sorted(self.status[s]))}"
                    f", deadline {self.deadline} s")
        # stray notes about unpinned rungs repeat once per pass; keep one each
        self.notes = list(dict.fromkeys(self.notes))


# -------------------------------------------------------------- bounded_deep

class BoundedDeep(Workload):
    """The six bounded weak-equivalence entry points at truncation 7.

    One pass runs every call of a fixed set: instance set i (i < 6) is
    drawn from Random(f"bounded_deep:{i}") the way the suite's bounded
    checks build their inputs (trivial_pp, monoid_axiom, properness,
    hac3, hac4), and gives one call to each entry point.  The workload
    seed fixes the order of the 36 calls.  The instances are fixed
    because their cost is heavy-tailed (0.01 to 0.6 s a call), so the
    draw itself would move the quantiles of a run.  Each call gets a deep
    copy of its inputs, so no call finds caches warmed by an earlier one.
    Gate: every verdict is bounded-pass.
    """

    name = "bounded_deep"
    SETS = 6
    TRUNCATION = 7
    WINDOW = 3

    def setup(self):
        from dgdm import amod, dga, model, obasis, randgen as rg
        from dgdm.complexes import disk

        self.modules = {"obasis": obasis, "dga": dga, "amod": amod}
        trunc, window = (3, 2) if self.tiny else (self.TRUNCATION, self.WINDOW)
        self.calls = []
        for i in range(1 if self.tiny else self.SETS):
            rng = random.Random(f"bounded_deep:{i}")
            # obasis: a pushout-product tensor, and a monoid-axiom inclusion
            m, k = rng.randint(1, 2), rng.randint(0, 2)
            tensor = model.pushout_product(model.zeta(m), model.iota(k)).codomain
            self.calls.append((i, "obasis", "truncated_acyclicity", (tensor, trunc)))
            n = rng.randint(1, 2)
            m_cx = rg.random_complex(rng, max_top=1, max_cells=2, twists=1)
            n_cx = rg.random_complex(rng, max_top=2, max_cells=2, twists=1)
            left = obasis.tensor_free(disk(n), m_cx)
            inc = obasis.obasis_inclusion(left, obasis.obasis_of_free(n_cx), 1)
            self.calls.append((i, "obasis", "is_bounded_weq", (inc, trunc)))
            # dga: the pushout of a weak equivalence along a one-sphere
            x = rg.random_algebra(rng, max_gens=1, max_degree=2)
            y, f = rg.random_algebra_weq(rng, x)
            deg = rng.randint(1, 2)
            w = x.d(rg.random_algebra_element(rng, x, deg, 3))
            po = dga.dga_pushout_gen(x, y, f, deg, w)
            self.calls.append((i, "dga", "algebra_bounded_weq", (po.map, trunc, window)))
            # amod: tensor with a Sullivan module, base change, and the map itself
            a = rg.random_algebra(rng, max_gens=1, max_degree=2)
            p = rg.random_amodule(rng, a, cells=2, max_degree=2)
            _, f = rg.random_amodule_weq(rng, p)
            m_mod = rg.random_amodule(rng, a, cells=rng.randint(1, 3), max_degree=2)
            self.calls.append((i, "amod", "tensor_bounded_weq", (f, m_mod, trunc, window)))
            b = rg.random_algebra(rng, max_gens=1, max_degree=2)
            p2 = rg.random_amodule(rng, b, cells=2, max_degree=2)
            for idx in range(rng.randint(1, 2)):
                deg = rng.randint(1, 2)
                d_assign = b.d(rg.random_algebra_element(rng, b, deg, 2))
                b = b.extended(dga.Generator(f"w{idx}", deg),
                               None if d_assign.is_zero() else d_assign)
            _, f2 = rg.random_amodule_weq(rng, p2)
            self.calls.append((i, "amod", "base_change_bounded_weq", (b, f2, trunc, window)))
            self.calls.append((i, "amod", "amodule_bounded_weq", (f2, trunc, window)))
        random.Random(f"bounded_deep:{self.seed}").shuffle(self.calls)

    def run_pass(self, j: int) -> Pass:
        ops, speed = [], self.speed
        start = speed.mark()
        for i, mod, fname, args in self.calls:
            # The inputs memoise differentials and bases; a fresh copy
            # makes every call start cold, as a call from the suite does.
            args = copy.deepcopy(args)
            mark = speed.mark()
            try:
                verdict = getattr(self.modules[mod], fname)(*args).verdict
                status = OK if verdict == "bounded-pass" else WRONG
            except Exception as exc:
                verdict, status = f"{type(exc).__name__}: {exc}", ERROR
            if status != OK:
                self.problems.append(f"pass {j} {fname}[{i}]: {verdict}")
            ops.append(Op(f"{fname}[{i}]", status, speed.since(mark)))
        # the copies are not part of the work: a pass's wall time is the
        # sum of its calls
        whole = speed.since(start)
        return Pass(Interval(whole.start, whole.end, sum(op.seconds for op in ops)), ops)


WORKLOADS = {w.name: w for w in (Suite, Ladder, BoundedDeep)}
