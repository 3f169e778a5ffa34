"""The three workloads: seeded inputs, the operation each one times, and the
check every operation's output must pass.

A workload is built once (its set-up) into ``rounds`` of operations that the
worker runs in a closed loop: one caller, the next operation starts when the
previous one returns, and the rounds repeat from the first when they run
out.  Each round covers every input stratum (derivation kind x ideal size),
and a timed run measures whole rounds, so runs on different seeds measure
the same mix.  The traced run executes the first round, so its counts repeat
exactly for a given seed.

Program calls go through module attributes (``kf.decompose``, not a name
bound at import) so that the traced run sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from mpmath import mp

import killingtensors.almostabelian as aa
import killingtensors.cli as cli
import killingtensors.fileformats as ff
import killingtensors.killingfields as kf
import killingtensors.tensors as kt

KINDS = ("skew", "symmetric", "nilpotent", "generic")
POOL_SEED = 20250809


@dataclass
class Op:
    """One timed operation.  ``prepare`` runs untimed before it; ``check``
    returns None when the output is correct, else the reason it is not."""

    label: str
    run: Callable
    check: Callable
    prepare: Optional[Callable] = None


# ---------------------------------------------------------------------------
# seeded inputs, drawn like the test suite's derivation suite
# ---------------------------------------------------------------------------

def rational_entry(rng):
    return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))


def random_derivation(rng, n, kind):
    """Derivation matrix of the given kind, drawn like the test suite's."""
    e = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if kind == "generic" or (kind == "nilpotent" and i < j):
                e[i][j] = rational_entry(rng)
            elif kind in ("skew", "symmetric") and i <= j:
                if i == j and kind == "skew":
                    continue
                x = rational_entry(rng)
                e[i][j] = x
                e[j][i] = -x if kind == "skew" else x
    return kt.Endomorphism.from_rows(e)


def relabel(d, rng):
    """The same derivation in the ideal basis with seeded signs flipped:
    ``S D S`` for a diagonal ``S`` of signs.  Each kind keeps its kind, and
    the entries keep their magnitudes and positions, so the exact solvers do
    the same elimination, while the matrices differ from seed to seed."""
    signs = [rng.choice((1, -1)) for _ in range(d.dim)]
    return kt.Endomorphism.from_rows(
        [[si * sj * x for sj, x in zip(signs, row)] for si, row in zip(signs, d.entries)])


def derivation_pool(sizes, per_stratum):
    """``(kind, n, derivation)`` for ``per_stratum`` draws of every kind and
    size, drawn like the test suite's derivation suite from its seed.  Every
    round of a workload is this pool with fresh seeded signs (``relabel``), so
    all rounds, and runs on all seeds, do the same amount of work."""
    rng = random.Random(POOL_SEED)
    return [(kind, n, random_derivation(rng, n, kind))
            for _ in range(per_stratum) for kind in KINDS for n in sizes]


def basis_vector(dim, i):
    return tuple(Fraction(1 if t == i else 0) for t in range(dim))


HEISENBERG = {"dim": 3, "structure": [[0, 1, 2, "1"]]}
SO3 = {"dim": 3, "structure": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]]}
ROTATION = [[0, -1], [1, 0]]


def _rows_doc(rows):
    return {"n": len(rows), "D": [[str(x) for x in row] for row in rows]}


def adversarial_certificates():
    """``(label, algebra file document, certificate)`` for certificates that
    are exact at w = 0 and wrong away from it; each must be rejected by the
    sampled check."""
    item4_doc = _rows_doc([[1, 0], [0, 2]])
    rot_doc = _rows_doc(ROTATION)
    e1 = kf.RightInvariant(basis_vector(3, 1))
    lone = kf.DerivationField(kf.skew_derivations(ff.algebra_from_dict(rot_doc))[0])
    squares = tuple((Fraction(1), (kf.RightInvariant(basis_vector(3, i)),) * 2)
                    for i in range(3))
    return [
        ("e1^2 vs right:1^2 on diag(1,2)", item4_doc,
         kf.Certificate(kt.SymTensor.monomial(3, (1, 1)), ((Fraction(1), (e1, e1)),))),
        ("lone deriv field, zero target, rotation", rot_doc,
         kf.Certificate(kt.SymTensor.zero(3, 1), ((Fraction(1), (lone,)),))),
        ("sum of squared right fields, Heisenberg", HEISENBERG,
         kf.Certificate(kt.sum_of_squares(3), squares)),
    ]


def moved_square(alg):
    """Target ``e_i^2`` against ``right:i^2`` for the first ideal vector the
    derivation moves (None when it moves none)."""
    for i in range(1, alg.dim):
        if any(x != 0 for x in alg.derivation.column(i - 1)):
            r = kf.RightInvariant(basis_vector(alg.dim, i))
            return kf.Certificate(kt.SymTensor.monomial(alg.dim, (i, i)),
                                  ((Fraction(1), (r, r)),))
    return None


def _verify_kwargs(cache):
    # the generator cache is passed only while verify_certificate accepts it
    if "cache" in inspect.signature(kf.verify_certificate).parameters:
        return {"cache": cache}
    return {}


def _rejected(check):
    if not check.exact_at_zero:
        return "adversarial certificate not exact at w=0"
    if check.passed:
        return "adversarial certificate accepted"
    return None


# ---------------------------------------------------------------------------
# certify-batch
# ---------------------------------------------------------------------------

class CertifyBatch:
    """decompose + verify_certificate of every Killing basis tensor of a
    seeded suite, one generator cache per algebra; plus adversarial
    certificates that must be rejected."""

    ROUNDS = 5
    PER_STRATUM = 2
    SIZES = (1, 2, 3)
    DEGREES = range(5)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        # one generator cache, emptied as each batch starts, as one caller
        # certifying the algebras one after another would keep it
        self.cache = {}
        self.verify_kwargs = _verify_kwargs(self.cache)
        adversarial = [(label, ff.algebra_from_dict(doc), cert)
                       for label, doc, cert in adversarial_certificates()]
        pool = derivation_pool(self.SIZES, self.PER_STRATUM)
        self.rounds = []
        for _ in range(self.ROUNDS):
            ops = []
            for label, alg, cert in adversarial:
                ops += self._batch(alg, [], [cert], f"adversarial: {label}")
            for kind, n, d in pool:
                alg = aa.AlmostAbelianAlgebra(relabel(d, rng))
                tensors = [k for p in self.DEGREES for k in alg.killing_space_structured(p).basis]
                bad = moved_square(alg)
                ops += self._batch(alg, tensors, [bad] if bad else [], f"{kind} n={n}")
            self.rounds.append(ops)

    def _batch(self, alg, tensors, bad_certs, label):
        """The ops of one algebra; the first empties the cache, so every pass
        over the batch starts cold, also when the rounds repeat."""
        cache, kwargs = self.cache, self.verify_kwargs
        ops = [self._certify(alg, k, cache, kwargs, label, t == 0)
               for t, k in enumerate(tensors)]
        ops += [self._reject(alg, cert, cache, kwargs, label, not tensors and t == 0)
                for t, cert in enumerate(bad_certs)]
        return ops

    @staticmethod
    def _certify(alg, k, cache, kwargs, label, fresh):
        def prepare():
            if fresh:
                cache.clear()
            if not alg.killing_operator_via_nabla(k).is_zero():
                raise ValueError("input tensor fails the nabla Killing check")

        def run():
            cert = kf.decompose(alg, k)
            return cert, kf.verify_certificate(alg, cert, **kwargs)

        def check(out):
            cert, chk = out
            if cert.target != k:
                return "certificate target differs from the input tensor"
            if not chk.exact_at_zero:
                return "certificate not exact at w=0"
            return None if chk.passed else "valid certificate rejected"

        return Op(f"certify {label} p={k.degree}", run, check, prepare)

    @staticmethod
    def _reject(alg, cert, cache, kwargs, label, fresh):
        return Op(f"reject {label}", lambda: kf.verify_certificate(alg, cert, **kwargs),
                  _rejected, cache.clear if fresh else None)


# ---------------------------------------------------------------------------
# solve-exact
# ---------------------------------------------------------------------------

class SolveExact:
    """One Killing-space solve by one method; each (algebra, degree) is solved
    structured, then brute force, and the two echelon bases must agree."""

    ROUNDS = 4
    PER_STRATUM = 2
    PLAN = ((3, (2, 3, 4, 5)), (4, (2, 3, 4)))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        degrees = dict(self.PLAN)
        pool = derivation_pool(degrees, self.PER_STRATUM)
        self.rounds = []
        for _ in range(self.ROUNDS):
            ops = []
            for kind, n, d in pool:
                alg = aa.AlmostAbelianAlgebra(relabel(d, rng))
                for p in degrees[n]:
                    ops += self._pair(alg, p, f"{kind} n={n} p={p}")
            self.rounds.append(ops)

    @staticmethod
    def _pair(alg, p, label):
        solved = {}

        def structured():
            solved["structured"] = alg.killing_space_structured(p)
            return solved["structured"]

        def brute():
            solved["brute"] = alg.killing_space_bruteforce(p)
            return solved["brute"]

        def check_structured(space):
            if alg.killing_dimension(p) != space.dimension:
                return "killing_dimension differs from the structured basis size"
            return None

        def check_brute(space):
            if solved.get("structured") is None or solved["structured"].basis != space.basis:
                return "structured and brute-force bases differ"
            return None

        return [Op(f"structured {label}", structured, check_structured, solved.clear),
                Op(f"bruteforce {label}", brute, check_brute)]


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

GALLERY = [
    ("abelian", [[0, 0], [0, 0]]),
    ("rotation", ROTATION),
    ("stretch", [[1, 0], [0, -1]]),
    ("shear", [[0, 1], [0, 0]]),
    ("hyperbolic", [[1, 0], [0, 1]]),
    ("identity-rotation", [[1, -1], [1, 1]]),
    ("rotation3", [[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
    ("mixed3", [[2, 0, 0], [0, -1, 0], [0, 0, -1]]),
]
GENERAL = [("so3", SO3), ("heisenberg", HEISENBERG)]
# answers fixed at the commit that introduced the benchmark, where the
# structured and brute-force solvers agree on every almost abelian entry
KILLING_DIMS = {
    "abelian": [1, 3, 6, 10, 15], "rotation": [1, 1, 2, 2, 3], "stretch": [1, 0, 2, 0, 3],
    "shear": [1, 1, 2, 2, 3], "hyperbolic": [1, 0, 1, 0, 1],
    "identity-rotation": [1, 0, 1, 0, 1], "rotation3": [1, 2, 4, 6, 9],
    "mixed3": [1, 0, 1, 3, 1], "so3": [1, 3, 6, 10, 15], "heisenberg": [1, 1, 2, 2, 3],
}
DERIVATION_DIMS = {
    "abelian": 3, "rotation": 1, "stretch": 0, "shear": 1, "hyperbolic": 1,
    "identity-rotation": 1, "rotation3": 1, "mixed3": 1, "so3": 3, "heisenberg": 1,
}
CURVATURE = {
    "abelian": "flat", "rotation": "flat", "stretch": "not_constant",
    "shear": "not_constant", "hyperbolic": "constant_negative",
    "identity-rotation": "constant_negative", "rotation3": "flat", "mixed3": "not_constant",
}
SAMPLE_DPS = 40
SAMPLE_RTOL = 1e-12


def _mpf(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def _ad_matrix(alg, w):
    """``ad_w`` from the structure constants, as an mpmath matrix."""
    n = alg.dim
    m = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = alg.structure[i][j][k]
                if c:
                    m[k, j] += _mpf(w[i]) * _mpf(c)
    return m


def reference_pullback(alg, w, column=None, derivation=None):
    """Independent pullback value by matrix exponential: ``exp(-ad_w) e_i``
    for a right-invariant field, and for a derivation field the top-right
    block of ``exp([[-ad_w, T w], [0, 0]])``, which is ``phi(-ad_w) T w``
    with ``phi(z) = (e^z - 1)/z`` (Van Loan 1978)."""
    n = alg.dim
    with mp.workdps(SAMPLE_DPS):
        a = -_ad_matrix(alg, w)
        if derivation is None:
            e = mp.expm(a)
            return [e[k, column] for k in range(n)]
        block = mp.matrix(n + 1, n + 1)
        for k in range(n):
            for j in range(n):
                block[k, j] = a[k, j]
            block[k, n] = _mpf(sum(derivation[k][j] * w[j] for j in range(n)))
        e = mp.expm(block)
        return [e[k, n] for k in range(n)]


class CliSession:
    """``killingtensors.cli.main(argv)`` in-process, one command at a time,
    on JSON files written during set-up; no state is shared across calls."""

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.dir = Path(workdir)
        self.seed = rng.randrange(1, 2**31)
        blocks = []
        algebras = {}
        for name, rows in GALLERY:
            algebras[name] = aa.AlmostAbelianAlgebra(kt.Endomorphism.from_rows(rows))
        for name, doc in GENERAL:
            algebras[name] = ff.algebra_from_dict(doc)
        paths = {name: self._write(f"{name}.algebra.json", ff.algebra_to_dict(alg))
                 for name, alg in algebras.items()}

        for name, alg in algebras.items():
            for p in range(5):
                blocks.append([self._killing_basis(name, paths[name], p, alg)])
            blocks.append([self._derivations(name, paths[name])])
            if name in CURVATURE:
                blocks.append([self._curvature(name, paths[name])])
            blocks.append([self._omega(name, paths[name], alg, f"right:{rng.randrange(alg.dim)}",
                                       rng)])
            if DERIVATION_DIMS[name]:
                blocks.append([self._omega(name, paths[name], alg, "deriv:0", rng)])

        for name, _ in GALLERY:
            alg = algebras[name]
            for p in (2, 3):
                for t, k in enumerate(alg.killing_space_structured(p).basis):
                    stem = f"{name}-p{p}-{t}"
                    tensor = self._write(f"{stem}.tensor.json", ff.tensor_to_dict(k))
                    cert = str(self.dir / f"{stem}.cert.json")
                    blocks.append([self._decompose(paths[name], tensor, cert),
                                   self._verify(paths[name], cert, True)])
            bad = moved_square(alg)
            if bad is not None:
                blocks.append([self._verify(paths[name], self._cert_file(f"{name}-moved", bad),
                                            False)])

        for t, (_, doc, cert) in enumerate(adversarial_certificates()):
            path = self._write(f"adversarial-{t}.algebra.json", doc)
            blocks.append([self._verify(path, self._cert_file(f"adversarial-{t}", cert), False)])

        # expected failures: a non-Killing tensor (exit 4), structured on a general algebra (3)
        for name in ("stretch", "shear", "mixed3"):
            alg = algebras[name]
            k = self._non_killing(alg, rng)
            tensor = self._write(f"{name}-nonkilling.tensor.json", ff.tensor_to_dict(k))
            blocks.append([self._expect_exit(
                ["decompose", "--algebra", paths[name], "--tensor", tensor,
                 "--certificate-out", str(self.dir / f"{name}-nonkilling.cert.json")],
                cli.EXIT_NOT_KILLING)])
        for name, _ in GENERAL:
            blocks.append([self._expect_exit(
                ["killing-basis", "--algebra", paths[name], "--degree", "2",
                 "--method", "structured"], cli.EXIT_KIND)])

        rng.shuffle(blocks)
        self.rounds = [[op for block in blocks for op in block]]

    # -- set-up helpers ------------------------------------------------------

    def _write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def _cert_file(self, stem, cert):
        return self._write(f"{stem}.cert.json", ff.certificate_to_dict(cert))

    @staticmethod
    def _non_killing(alg, rng):
        monos = kt.basis_monomials(alg.dim, 2)
        while True:
            items = [(rng.choice(monos), rational_entry(rng)) for _ in range(3)]
            k = kt.SymTensor.build(alg.dim, 2, items)
            if not alg.killing_operator_via_nabla(k).is_zero():
                return k

    # -- commands ------------------------------------------------------------

    def _command(self, argv, expected_exit, check_result):
        """Run one command; its stdout must repeat byte for byte."""
        argv = list(argv) + ["--seed", str(self.seed)]
        first_digest = []

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, stdout, stderr = result
            if code != expected_exit:
                return f"exit {code}, expected {expected_exit}: {stderr.strip()[:200]}"
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if not first_digest:
                first_digest.append(digest)
            elif digest != first_digest[0]:
                return "stdout differs from the first run of the same command"
            if expected_exit != cli.EXIT_OK:
                return None
            return check_result(json.loads(stdout)["result"])

        return Op(" ".join(argv), run, check)

    def _expect_exit(self, argv, code):
        return self._command(argv, code, None)

    def _killing_basis(self, name, path, p, alg):
        def check(res):
            if res["dimension"] != KILLING_DIMS[name][p]:
                return f"dimension {res['dimension']}, expected {KILLING_DIMS[name][p]}"
            if isinstance(alg, aa.AlmostAbelianAlgebra) and res.get("agree") is not True:
                return "structured and brute-force bases disagree"
            return None

        return self._command(["killing-basis", "--algebra", path, "--degree", str(p)],
                             cli.EXIT_OK, check)

    def _derivations(self, name, path):
        def check(res):
            if res["dimension"] != DERIVATION_DIMS[name]:
                return f"derivation dimension {res['dimension']}"
            return None

        return self._command(["derivations", "--algebra", path], cli.EXIT_OK, check)

    def _curvature(self, name, path):
        def check(res):
            if res["class"] != CURVATURE[name]:
                return f"class {res['class']}, expected {CURVATURE[name]}"
            if res["class"] == "flat" and res["verification"]["passed"] is not True:
                return "flat metric certificate rejected"
            if res["class"] == "constant_negative" and res["obstruction"]["obstructed"] is not True:
                return "metric obstruction not found"
            return None

        return self._command(["curvature", "--algebra", path], cli.EXIT_OK, check)

    def _decompose(self, path, tensor, cert):
        def check(res):
            return None if res["verification"]["passed"] is True else "valid tensor rejected"

        return self._command(["decompose", "--algebra", path, "--tensor", tensor,
                              "--certificate-out", cert], cli.EXIT_OK, check)

    def _verify(self, path, cert, expected):
        def check(res):
            if res["passed"] is not expected:
                return f"passed={res['passed']}, expected {expected}"
            if not res["verification"]["exact_at_zero"]:
                return "certificate not exact at w=0"
            return None

        return self._command(["verify", "--algebra", path, "--certificate", cert],
                             cli.EXIT_OK, check)

    def _omega(self, name, path, alg, generator, rng):
        w = [rational_entry(rng) for _ in range(alg.dim)]
        if generator.startswith("right:"):
            ref = reference_pullback(alg, w, column=int(generator[6:]))
        elif isinstance(alg, aa.AlmostAbelianAlgebra):
            ref = reference_pullback(alg, w, derivation=kf.skew_derivations(alg)[0]
                                     .full_matrix().entries)
        else:
            ref = reference_pullback(alg, w, derivation=kf.skew_derivation_basis(alg)[0].entries)

        def check(res):
            got = [0.0] * alg.dim
            for term in res["value"]["terms"]:
                got[term["monomial"][0]] = term["coeff"]
            scale = max(1.0, max(abs(float(x)) for x in ref))
            if any(abs(g - float(r)) > SAMPLE_RTOL * scale for g, r in zip(got, ref)):
                return f"{generator} value differs from the matrix-exponential reference"
            return None

        at = ",".join(str(x) for x in w)
        return self._command(["omega-sample", "--algebra", path, "--generator", generator,
                              f"--at={at}"], cli.EXIT_OK, check)


WORKLOADS = {"certify-batch": CertifyBatch, "solve-exact": SolveExact, "cli-session": CliSession}
