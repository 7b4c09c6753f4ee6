"""Regenerate the golden output corpus next to this script.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python fixtures/golden/regen.py

Each case runs ``subsidy-fairdiv allocate`` twice, with the tree method
and with ``--baseline``, and keeps the allocation document, the
certificate and (tree method only) the DOT forest byte for byte.
``tests/test_golden.py`` requires every later version of the code to
write exactly these bytes.  Regenerate only from code whose outputs are
known good, and say why in the change that does it.

Cases: the two instance fixtures (the reference one also with
``--decimal 6``), 200 instances of the acceptance-suite shape (seed k has
n = 2 + k mod 9 and m = n + 7k mod (21 - n), kinds and distributions
alternating), 20 larger ones with n = 30..49 and m = 2n, 10 tie-heavy
instances on the 1/2 grid (many equal costs, some all-zero rows, some with
fewer items than agents), and 2 instances with n = 10 and m = 100 whose
every cost has its own prime denominator of at least 1000.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from subsidy_fairdiv.cli import main
from subsidy_fairdiv.model import CHORES, GOODS, Instance, serialize_instance
from subsidy_fairdiv.oracle import CORRELATED, UNIFORM, gen_random_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CASES = HERE / "cases"
MANIFEST = HERE / "manifest.json"
OUTPUTS = ("tree.json", "tree.cert.json", "tree.dot", "baseline.json", "baseline.cert.json")


def allocate_runs(instance: Path, args: list[str], out: Path) -> list[tuple[str, list[str]]]:
    """The two ``allocate`` command lines of one case, with their output files.

    Returns ``(method, argv)`` pairs; every output path lies under ``out``.
    """
    return [
        (
            "tree",
            ["allocate", "--input", str(instance), *args,
             "--out", str(out / "tree.json"),
             "--certificate", str(out / "tree.cert.json"),
             "--emit-graph", str(out / "tree.dot")],
        ),
        (
            "baseline",
            ["allocate", "--input", str(instance), *args, "--baseline",
             "--out", str(out / "baseline.json"),
             "--certificate", str(out / "baseline.cert.json")],
        ),
    ]


def manifest() -> list[dict]:
    """Every case: a fixture file or generator parameters, plus extra flags."""
    cases = [
        {"name": "reference_6x6", "input": "fixtures/reference_6x6.json", "args": []},
        {"name": "reference_6x6_decimal6", "input": "fixtures/reference_6x6.json",
         "args": ["--decimal", "6"]},
        {"name": "gen_n2_m2_seed0", "input": "fixtures/gen_n2_m2_seed0.json", "args": []},
    ]
    for k in range(200):
        n = 2 + k % 9
        gen = {"n": n, "m": n + (7 * k) % (21 - n), "kind": (CHORES, GOODS)[k % 2],
               "seed": k, "dist": (UNIFORM, CORRELATED)[(k // 2) % 2]}
        cases.append({"name": f"seed{k:03d}", "gen": gen, "args": []})
    for n in range(30, 50):
        gen = {"n": n, "m": 2 * n, "kind": (CHORES, GOODS)[n % 2],
               "seed": n, "dist": (UNIFORM, CORRELATED)[(n // 2) % 2]}
        cases.append({"name": f"large_n{n}", "gen": gen, "args": []})
    for k in range(10):
        n = 3 + k
        gen = {"n": n, "m": (2, 2 * n, 3 * n + 1)[k % 3], "kind": (CHORES, GOODS)[k % 2],
               "seed": k, "dist": (UNIFORM, CORRELATED)[(k // 2) % 2], "denominator": 2}
        cases.append({"name": f"ties{k:02d}", "gen": gen, "args": []})
    for k, kind in enumerate((CHORES, GOODS)):
        primes = {"n": 10, "m": 100, "kind": kind, "seed": k}
        cases.append({"name": f"primes{k}", "primes": primes, "args": []})
    return cases


def prime_instance(n: int, m: int, kind: str, seed: int) -> Instance:
    """Costs q/p with a distinct prime p >= 1000 per entry and q uniform in 0..p."""
    rng = random.Random(f"primes|{n}|{m}|{kind}|{seed}")
    primes: list[int] = []
    candidate = 1000
    while len(primes) < n * m:
        candidate += 1
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            primes.append(candidate)
    rng.shuffle(primes)
    raw = [rng.randint(1, 9) for _ in range(n)]
    weights = tuple(Fraction(w, sum(raw)) for w in raw)
    costs = tuple(
        tuple(Fraction(rng.randint(0, p), p) for p in primes[i * m:(i + 1) * m])
        for i in range(n)
    )
    return Instance(kind=kind, weights=weights, costs=costs)


def instance_text(case: dict) -> str:
    """The instance document a case feeds to ``allocate``."""
    if "input" in case:
        return (ROOT / case["input"]).read_text(encoding="utf-8")
    if "primes" in case:
        return serialize_instance(prime_instance(**case["primes"]))
    return serialize_instance(gen_random_instance(**case["gen"]))


def regenerate() -> None:
    if CASES.exists():
        shutil.rmtree(CASES)
    cases = manifest()
    with tempfile.TemporaryDirectory() as scratch:
        instance = Path(scratch) / "instance.json"
        for case in cases:
            out = CASES / case["name"]
            out.mkdir(parents=True)
            instance.write_text(instance_text(case), encoding="utf-8")
            for method, argv in allocate_runs(instance, case["args"], out):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    sys.exit(f"{case['name']} ({method}): allocate exited with {code}")
    MANIFEST.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {CASES.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
