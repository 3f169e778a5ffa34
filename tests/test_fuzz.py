"""A property over the whole CLI: ``cli.main`` in process on small generated
JSON files and argv, within and just past every size bound of ``limits.py``
(dimensions, degrees, factor counts, samples and series orders), and on
documents with one value replaced by arbitrary JSON.  Every call must exit
0, 2, 3 or 4 with exactly one JSON line (the report on stdout or the error
on stderr), raise nothing and finish within ``BUDGET_S``."""
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from killingtensors import (BRUTE_FORCE_MAX_DEGREE, DERIVATION_DIM_CAP, MAX_DIMENSION,
                            MAX_SAMPLES, cli)
from killingtensors.limits import _MAX_TERMS

# per call; the slowest calls drawn here (10^4 samples, decompose of
# e0^2826, the skew derivations of a 24-dimensional abelian algebra) took
# up to 0.7 s on one core of a shared 2-core machine
BUDGET_S = 5.0

ROT = {"n": 2, "D": [["0", "-1"], ["1", "0"]]}
ONE = {"n": 1, "D": [["1"]]}
LINE = {"n": 0, "D": []}
HEISENBERG = {"dim": 3, "structure": [[0, 1, 2, "1"]]}

ENTRIES = ["0", "1", "-1", "2", "1/2", "-3/2"]


def _dim(algebra) -> int:
    return algebra["n"] + 1 if "n" in algebra else algebra["dim"]


def _abelian(dim):
    return {"dim": dim, "structure": []}


# algebras: random almost abelian ones of dimension 1 to 4, fixed ones, and
# abelian ones at and just past the dimension and skew-derivation caps
ALGEBRAS = st.one_of(
    st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n), min_size=n, max_size=n)
        .map(lambda rows: {"n": len(rows), "D": rows})),
    st.sampled_from([ROT, ONE, LINE, HEISENBERG, _abelian(DERIVATION_DIM_CAP),
                     _abelian(DERIVATION_DIM_CAP + 1), _abelian(MAX_DIMENSION),
                     _abelian(MAX_DIMENSION + 1)]))

JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers(-3, 10 ** 7)
                           | st.sampled_from(ENTRIES + ["x", ""]),
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.sampled_from(["n", "D", "degree", "terms"]), inner,
                                             max_size=2),
                           max_leaves=6)


@st.composite
def _damaged(draw, doc):
    """``doc`` in three draws of four; else ``doc`` with one top-level value
    replaced by arbitrary JSON, or a file that holds no JSON object."""
    kind = draw(st.sampled_from(["keep"] * 6 + ["value", "text"]))
    if kind == "keep" or not isinstance(doc, dict) or not doc:
        return doc
    if kind == "text":
        return draw(st.sampled_from(["{", "[]", "null", "1e999", "9" * 5000]))
    key = draw(st.sampled_from(sorted(doc)))
    return {**doc, key: draw(JSON_VALUES)}


def _vector(dim, i, scale="1"):
    return [scale if t == i % dim else "0" for t in range(dim)]


@st.composite
def _factor(draw, dim):
    kind = draw(st.sampled_from(["metric", "left", "right", "right", "deriv"]))
    if kind == "metric":
        return {"kind": "metric"}
    if kind in ("left", "right"):
        return {"kind": kind, "vector": _vector(dim, draw(st.integers(0, 3)),
                                                draw(st.sampled_from(ENTRIES)))}
    n = dim - 1
    entry = st.sampled_from(["0", "0", "1", "-1"])
    return {"kind": "deriv", "b_image": draw(st.lists(entry, min_size=n, max_size=n)),
            "ideal_block": draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                         min_size=n, max_size=n))}


@st.composite
def _tensor(draw, dim, degree):
    monomials = draw(st.lists(st.lists(st.integers(0, dim - 1), min_size=degree,
                                       max_size=degree).map(sorted),
                              max_size=3, unique_by=tuple))
    return {"degree": degree, "terms": [{"coeff": draw(st.sampled_from(ENTRIES)), "monomial": m}
                                        for m in monomials]}


@st.composite
def _term(draw, dim, degree):
    factors = []
    while degree > 0:
        f = draw(_factor(dim))
        if f["kind"] == "metric" and degree < 2:
            continue
        degree -= 2 if f["kind"] == "metric" else 1
        factors.append(f)
    return {"coeff": draw(st.sampled_from(ENTRIES)), "factors": factors}


def _chain(dim, p, vector=None):
    """One term of ``p`` right-invariant fields of ``vector``, by default ``e_1``."""
    factor = {"kind": "right", "vector": vector or _vector(dim, 1)}
    return {"target": {"degree": p, "terms": []},
            "terms": [{"coeff": "1", "factors": [factor] * p}]}


def _power_of_e0(p):
    return {"degree": p, "terms": [{"coeff": "1", "monomial": [0] * p}]}


@st.composite
def _killing_basis(draw, algebra):
    dim = _dim(algebra)
    # degree 141 on dimension 2 is within the structured solver's monomial
    # cap and past it on dimension 3 or more
    degrees = [0, 1, 2, BRUTE_FORCE_MAX_DEGREE, BRUTE_FORCE_MAX_DEGREE + 1]
    if dim <= 2:
        degrees.append(141)
    elif dim == 3:
        degrees += [141, 3000]
    argv = ["--degree", str(draw(st.sampled_from(degrees if dim <= 4 else [0, 1, 9])))]
    method = draw(st.sampled_from([None, "structured", "brute", "both"]))
    return {}, argv + ([] if method is None else ["--method", method])


@st.composite
def _decompose(draw, algebra):
    dim = _dim(algebra)
    # e0^2826 on one dimension is a certificate within the trie-level cap,
    # e0^2828 just past it; degree 10^7 is past the evaluation cap
    tensor = draw(st.one_of(st.integers(0, 4).flatmap(lambda p: _tensor(dim, p)),
                            st.sampled_from([_power_of_e0(2), _power_of_e0(1000),
                                             _power_of_e0(2826), _power_of_e0(2828),
                                             {"degree": 999999, "terms": []},
                                             {"degree": 10 ** 7, "terms": []}])))
    files = {"tensor": draw(_damaged(tensor))}
    return files, ["--tensor", "{tensor}", "--certificate-out", "{dir}/out.cert.json"]


@st.composite
def _verify(draw, algebra):
    dim = _dim(algebra)
    degree = draw(st.integers(0, 3))
    cert = draw(st.one_of(
        st.builds(lambda target, terms: {"target": target, "terms": terms},
                  _tensor(dim, degree), st.lists(_term(dim, degree), max_size=3)),
        # zero certificates within and past the evaluation cap on three dimensions
        st.sampled_from([{"target": {"degree": p, "terms": []}, "terms": []}
                         for p in (0, 124, 125)]),
        # chains within and past the trie-level cap on the rotation algebra
        st.sampled_from([_chain(3, 61), _chain(3, 62)])))
    # 210 samples of the 61-field chain are just past the sampled-check cap
    samples = [1, 2, 20, 210]
    if not cert["terms"]:
        samples += [MAX_SAMPLES, MAX_SAMPLES + 1]
    argv = ["--certificate", "{certificate}", "--samples", str(draw(st.sampled_from(samples)))]
    return {"certificate": draw(_damaged(cert))}, argv


@st.composite
def _omega_sample(draw, algebra):
    dim = _dim(algebra)
    generator = draw(st.sampled_from(["metric", "left:0", "right:1", "deriv:0", "right:9"]))
    entries = ["0", "1", "-1/2", "2"] * 3 + ["1e30", "x"]
    at = ",".join(draw(st.lists(st.sampled_from(entries), min_size=dim, max_size=dim)))
    # every order within the term cap is summed in full: at 1e30 the 5000
    # terms of the cap took up to 6 s, so there only the cap is drawn past
    orders = [None, 0, 3, _MAX_TERMS + 1] + ([] if "1e30" in at else [_MAX_TERMS])
    order = draw(st.sampled_from(orders))
    argv = ["--generator", generator, f"--at={at}"]
    return {}, argv + ([] if order is None else ["--order", str(order)])


COMMANDS = {"killing-basis": _killing_basis, "decompose": _decompose, "verify": _verify,
            "curvature": lambda algebra: st.just(({}, [])),
            "derivations": lambda algebra: st.just(({}, [])),
            "omega-sample": _omega_sample}


@st.composite
def cli_calls(draw):
    """``(files, argv)``: the documents to write, by name, and the argv with
    ``{name}`` standing for each file's path and ``{dir}`` for their folder."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    algebra = draw(ALGEBRAS)
    # the other inputs of a wide algebra are drawn for the rotation algebra:
    # vectors and points of 10^4 entries would test nothing more
    files, argv = draw(COMMANDS[command](algebra if _dim(algebra) <= 30 else ROT))
    files["algebra"] = draw(_damaged(algebra))
    return files, [command, "--algebra", "{algebra}", *argv]


def _call(files, argv):
    """``cli.main`` on ``argv`` with the files written to a fresh folder:
    the exit code, stdout, stderr and seconds taken."""
    with tempfile.TemporaryDirectory() as folder:
        paths = {"dir": folder}
        for name, doc in files.items():
            path = Path(folder) / f"{name}.json"
            if isinstance(doc, bytes):
                path.write_bytes(doc)
            else:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            paths[name] = str(path)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(**paths) for a in argv])
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_calls())
# one term of 900 right-invariant factors, and e0^1000 on one dimension,
# which ended in a RecursionError traceback
@example(({"algebra": ONE, "certificate": _chain(2, 900)},
          ["verify", "--algebra", "{algebra}", "--certificate", "{certificate}"]))
@example(({"algebra": LINE, "tensor": _power_of_e0(1000)},
          ["decompose", "--algebra", "{algebra}", "--tensor", "{tensor}",
           "--certificate-out", "{dir}/out.cert.json"]))
# the 61-field chain at 2000 samples, and 80 right-invariant fields on an
# algebra of series gain 66 digits per field, 5310 digits: past the
# sampled-check and working-digit caps, they took 5 s and 17 s
@example(({"algebra": ROT, "certificate": _chain(3, 61)},
          ["verify", "--algebra", "{algebra}", "--certificate", "{certificate}",
           "--samples", "2000"]))
@example(({"algebra": {"n": 1, "D": [["100"]]}, "certificate": _chain(2, 80, ["1", "1"])},
          ["verify", "--algebra", "{algebra}", "--certificate", "{certificate}"]))
# 30 such fields at 200 samples (2640 digits) and 61 at 20 (4060 digits),
# within those caps and past the sampled-work cap: they took 21 s and 10 s
@example(({"algebra": {"n": 1, "D": [["100"]]}, "certificate": _chain(2, 30, ["1", "1"])},
          ["verify", "--algebra", "{algebra}", "--certificate", "{certificate}",
           "--samples", "200"]))
@example(({"algebra": {"n": 1, "D": [["100"]]}, "certificate": _chain(2, 61, ["1", "1"])},
          ["verify", "--algebra", "{algebra}", "--certificate", "{certificate}"]))
# a deriv factor whose block is not skew, on an algebra where every matrix is
# a derivation: only the skewness check of the generator refuses it
@example(({"algebra": {"n": 1, "D": [["0"]]}, "certificate": {
    "target": {"degree": 1, "terms": []}, "terms": [{"coeff": "1", "factors": [
        {"kind": "deriv", "b_image": ["0"], "ideal_block": [["1"]]}]}]}},
          ["verify", "--algebra", "{algebra}", "--certificate", "{certificate}"]))
# a file that is not UTF-8, which ended in a UnicodeDecodeError traceback
@example(({"algebra": b'{"n": 1, "D": [["1\xff"]]}'}, ["derivations", "--algebra", "{algebra}"]))
def test_every_call_exits_with_one_json_line(call):
    code, out, err, seconds = _call(*call)
    assert code in (0, 2, 3, 4)
    lines = (out + err).splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    assert "Traceback" not in out + err
    assert seconds < BUDGET_S
