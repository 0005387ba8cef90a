"""Pinned payloads: each file a fixed call writes, and the sha256 of the bytes it must keep.
``check(name, dir)`` writes one into dir and returns its problems; ``python tests/pins.py DIR``
checks them all against the importable package, prints each problem and exits 1 if any."""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

GEOMETRIC = '{"type": "geometric", "q": 0.5, "truncate": 60}'
ZIPF = '{"type": "zipf", "s": 3, "truncate": 10000}'
SIMULATE = ("simulate", "--law", ZIPF, "--length", "2000", "--seed", "0")
REPS = ("--replicates", "2")


def _events(tag, law):
    def write(file):  # repr(run_scheme(...)) on one seeded 2000-bit path
        from renewalbench import SchemeConfig, StartMode, make_law, run_scheme, sample_path
        bits = sample_path(make_law(json.loads(law)), 2000, StartMode.STATIONARY, seed=0).bits
        file.write_text(repr(run_scheme(tag, bits, SchemeConfig(gamma=0.3, epsilon=0.1))))

    return write


def _evaluate(scheme, *flags, law=GEOMETRIC, length="2000"):
    return ("evaluate", "--scheme", scheme, *flags, "--law", law, "--length", length, "--seed", "0")


def _adversary(scheme, seed, reps):
    return ("adversary", "--scheme", scheme, "--seed", seed, "--replicates", reps)


# file name: (a CLI argv, run with "--out FILE" appended, or a writer of FILE; its sha256)
PINS = {
    # estimates as run_scheme returns them: the bytes written while three generators walked the columns in lockstep
    "tiny-events-poly.txt": (_events("poly", GEOMETRIC), "4778dd8173a0c7cd97ec3049239d41812c35daf63f039ed2990ad233ccafed74"),
    "tiny-events-log.txt": (_events("log", GEOMETRIC), "8798cd79b3141fffa36c98145eddffc7b5e285e9abc9ef002f887281dfdc0a32"),
    "tiny-events-offline.txt": (_events("offline", GEOMETRIC), "9f8609c069b52884cc92d505569b668cdb23043e0739b97056e6cccd906f38bb"),
    "tiny-events-eps.txt": (_events("eps", ZIPF), "61c7c27dcb6d2cdd1a81ea4181378f79e62fe30d0398ffea4349f81df797be7e"),
    # text, and a path drawn through the sampler's CDFs: the bytes written while a law's tables were Python floats
    "law-info-geometric.txt": (("law-info", "--law", GEOMETRIC), "70e2bacbf835cbf07223c40adc33ec84732e6f0ab351fd46da278bdb1d183c7d"),
    "law-info-zipf.txt": (("law-info", "--law", ZIPF), "cca3cab35565700f40d6dc97962d5972bde2bb220d4479aac9b289a95afb56aa"),
    "tiny-path.txt": (SIMULATE, "6ab677518941d2899a529f85d521be4d4886c90409e10eb52198c3931cd82c12"),
    "tiny-path.txt.json": (lambda file: _run(SIMULATE, file.with_suffix("")), "aaa1381c67d793d374dcecd7a2988dcc1750c059de821e7a2307a9231125a7ad"),
    # JSON reports gather the final decile's columns only: the bytes written while every row's columns were gathered
    "tiny-poly.json": (_evaluate("poly", "--gamma", "0.3", *REPS), "d7dc25ea6698b68edfda26c2b979881816c1607aa0e545397dea697138f2f7dd"),
    "tiny-eps.json": (_evaluate("eps", "--epsilon", "0.1", *REPS), "9d9b0bab8d72a8d66c2fec349707150e7e6207369d1ab2473b28e8f6316f6c9e"),
    "tiny-log.json": (_evaluate("log", "--gamma", "0.3", *REPS), "6125325dda27f506064f804bc12bca27072e2c7af9eb051bd379152781d7e8dd"),
    # offline scores every row: the bytes written while the scan held every column in 8 bytes
    "tiny-offline.json": (_evaluate("offline", *REPS), "bdcdbb3ebf9a94f903be5c4d420b676471c9e80256cfd3327d583e0e2736ea76"),
    # poly's window table and cut go a slice at a time, and 100k bits span several: the bytes of whole-table, every-firing runs
    "long-poly.json": (_evaluate("poly", "--gamma", "0.3", *REPS, length="100000"), "7c5c0510136e3f61f8d7b02294b810c5f95406120e7f3401a553f4cae840966f"),
    # CSV imports orjson lazily: the bytes float.__repr__ writes, 50 floats in exponent form
    "tiny.csv": (_evaluate("offline", "--format", "csv"), "27f1061e721a80719dc7ec8b4c7f4bc75056f1a4f65fe2fec9b852fed26bce5e"),
    # eps's ordinal column, unlike offline's, is not the time column
    "tiny-eps.csv": (_evaluate("eps", "--epsilon", "0.1", "--format", "csv", law=ZIPF), "2cc7e9d98eba0600f74633e72ae518ac42bd0bba4882e0b5e5f86d15f4b467c5"),
    # the exact prefix distance sums in chunks, as numpy adds the full enumeration: the bytes the full enumeration wrote
    "tiny-adversary-poly.json": (_adversary("poly", "0", "100"), "4052b063904aa458d11259441e888ab64d9167d04202b3b86743bae52d7afafd"),
    # the same bytes as poly's, since the payload names no scheme
    "tiny-adversary-eps.json": (_adversary("eps", "0", "100"), "4052b063904aa458d11259441e888ab64d9167d04202b3b86743bae52d7afafd"),
    "tiny-adversary-log.json": (_adversary("log", "0", "100"), "8f1f1d57715c8b460c04eb8f514b1afd50d3ea11d7adf298071f60c046b1b9e4"),
    # the bytes written before the delta search screened a shorter prefix and the sampler converted short paths by the block
    "adversary-poly-0.json": (_adversary("poly", "0", "1000"), "3e0adb656fb5ce77e3610e0a1018144cdab433820d896c6578156c9324a9b2f6"),
    "adversary-poly-42.json": (_adversary("poly", "42", "1000"), "2cd9498b7f9460b2153d427fd4e9bdcbb6f43da2be6fe155c3f9c68c0e8ef36b"),
    "adversary-log-0.json": (_adversary("log", "0", "1000"), "5abcdb6d6435cc282dc6119f461c355732d3001ac33c3545358103f953d52997"),
    # and before the search and the verification shared one Monte Carlo routine
    "adversary-eps-42.json": (_adversary("eps", "42", "1000"), "65e588831c50e5d66985dc42b022313c888a0bb401c10afe86e1b6370eaf09a1"),
}


def _run(argv, file):
    from renewalbench.cli import main
    with redirect_stdout(io.StringIO()):  # the config echo
        return main([*argv, "--out", str(file)])


def check(name, directory):
    """The problems of the pinned file name, written into directory."""
    make, digest = PINS[name]
    file = Path(directory) / name
    code = make(file) if callable(make) else _run(make, file)
    if code:
        return [f"{name}: exit {code}"]
    data = file.read_bytes()
    actual = hashlib.sha256(data).hexdigest()
    problems = [] if actual == digest else [f"{name}: sha256 {actual}, pinned {digest}"]
    if file.suffix == ".json":  # strict readers refuse NaN and Infinity
        json.loads(data, parse_constant=lambda token: problems.append(f"{name}: {token} is not JSON"))
    return problems


def main(directory):
    problems = [problem for name in PINS for problem in check(name, directory)]
    print("\n".join(problems) or f"all {len(PINS)} pinned files hold their recorded bytes")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
