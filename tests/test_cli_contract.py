"""The CLI contract on a seeded draw of inputs, valid and not.

Every run of ``cli.main`` writes exactly one JSON document that parses with
NaN and the infinities rejected, and answers within a second.  The draw
mixes valid parameters and their partners, wrong lengths, wrong parity and
mixed classes, malformed text, huge exponents and huge digit strings,
through occurs, correspond, dims and dist on both members: each run exits
0, 1 or 2, never writes Python's own "Exceeds the limit" refusal of a long
integer, and writes the same bytes when the interpreter has no
integer-string limit as at the default of 4300.  A second draw runs
``verify`` on suite subsets, small sample budgets and seeds: each run exits
0 or 3.

Run as a script, ``python tests/test_cli_contract.py`` prints one sha256
over (argv, exit code, stdout) of every contract run at the default
integer-string limit and with none, and of every verify run.  Two
checkouts print the same digest exactly when their CLIs write the same
bytes on these inputs; ``PYTHONPATH`` picks the ``src`` tree to hash.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import time

from howedual import cli
from howedual.verify import SUITES

SEED = 17
COUNT = 2000
VERIFY_COUNT = 12
SECONDS_PER_RUN = 1.0

MALFORMED = ["1/3", "1/0", "", "x", "3,,1", "1,", "nan", "inf", "1.25", "--1", "1e", "1/2e5"]
HUGE = [
    "1e5000",
    "-1e5000",
    "2.5e4301",
    "1e10000000",
    "1e-10000000",
    "0e10000000",
    "1e" + "9" * 400,
    "9" * 4300,
    "9" * 4400,
    "1" * 5000 + "/2",
    "1/" + "3" * 4400,
    "4" * 4300 + ".5",
    "1e4000,1e3999",
    "1e300,1e299",
]

# always run: an exponent that took 12 s to build, an entry, a term count and
# a G' prefactor (of the partner of mu = 860) that were refused in Python's words
FIXED = [
    ["occurs", "--l", "1", "--lp", "2", "--mu", "1e10000000"],
    ["occurs", "--l", "1", "--lp", "2", "--mu", "9" * 4400],
    ["dist", "--l", "2", "--lp", "3", "--mu", "1e4000,1e3999"],
    ["dist", "--l", "1", "--lp", "1720", "--side", "gprime", f"--mu-prime={','.join(map(str, range(859, -861, -1)))}"],
]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _text(doubled) -> str:
    return ",".join(str(x // 2) if x % 2 == 0 else f"{x}/2" for x in doubled)


def _draw(rng: random.Random) -> list[str]:
    l = rng.randint(1, 3)
    lp = l + rng.randint(0, 2)
    d2 = lp - l + 1  # 2 delta
    mu = sorted(rng.sample(range(d2, d2 + 20, 2), l), reverse=True)
    partner = [*range(lp - l - 1, l - lp, -2), *(-x for x in reversed(mu))]
    kind = rng.randrange(7)
    if kind == 0:  # a valid parameter of either member
        side, doubled = rng.choice([("g", mu), ("gprime", partner)])
        text = _text(doubled)
    elif kind == 1:  # any strictly decreasing entries of one class
        side = rng.choice(["g", "gprime"])
        n = l if side == "g" else lp
        text = _text(sorted(rng.sample(range(-12 + rng.randint(0, 1), 13, 2), n), reverse=True))
    elif kind == 2:  # one entry too many or too few
        side = rng.choice(["g", "gprime"])
        n = (l if side == "g" else lp) + rng.choice([-1, 1])
        text = _text(range(d2 + 2 * n, d2, -2))  # empty text when n = 0
    elif kind == 3:  # wrong parity, or both classes
        side, doubled = rng.choice([("g", mu), ("gprime", partner)])
        doubled = list(doubled)
        doubled[rng.randrange(len(doubled))] += rng.choice([-1, 1])
        text = _text(doubled)
    elif kind == 4:  # malformed text
        side, text = rng.choice(["g", "gprime"]), rng.choice(MALFORMED)
    else:  # huge exponents and huge digit strings
        side, text = rng.choice(["g", "gprime"]), rng.choice(HUGE)
    pair = ["--l", str(l), "--lp", str(lp)]
    command = rng.choice(["occurs", "correspond", "dims", "dist"])
    if side == "gprime":
        extra = {"occurs": ["--side", "gprime"], "correspond": ["--back"], "dims": [], "dist": ["--side", "gprime"]}
        return [command, *pair, *extra[command], f"--mu-prime={text}"]
    flag = rng.choice(["--mu", "--mu", "--hw"])
    return [command, *pair, f"{flag}={text}"]


def _draw_verify(rng: random.Random) -> list[str]:
    names = rng.sample(SUITES, rng.randint(1, len(SUITES))) if rng.randrange(8) else ["all"]
    samples, seed = rng.randint(1, 64), rng.randrange(2**128)
    return ["verify", "--suite", ",".join(names), "--samples", str(samples), "--seed", str(seed)]


def _verify_argv() -> list[list[str]]:
    rng = random.Random(SEED)
    return [_draw_verify(rng) for _ in range(VERIFY_COUNT)]


def _shown(argv) -> list[str]:
    return [a if len(a) < 80 else a[:40] + "..." for a in argv]


def _run(argv) -> tuple[int, str]:
    """(exit code, stdout) of one run, which must write one strict JSON
    document within SECONDS_PER_RUN."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    elapsed = time.perf_counter() - start
    json.loads(out.getvalue(), parse_constant=_reject_constant)  # exactly one document, or this raises
    assert elapsed < SECONDS_PER_RUN, (_shown(argv), elapsed)
    return code, out.getvalue()


def _contract_argv() -> list[list[str]]:
    rng = random.Random(SEED)
    return FIXED + [_draw(rng) for _ in range(COUNT)]


def _runs_at_print_limit(limit: int) -> list[tuple[int, str]]:
    """Every contract run with the interpreter's integer-string limit set to ``limit``."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return [_run(argv) for argv in _contract_argv()]
    finally:
        sys.set_int_max_str_digits(old)


def test_every_drawn_input_keeps_the_cli_contract():
    codes = set()
    for argv in _contract_argv():
        code, out = _run(argv)
        assert code in (0, 1, 2), _shown(argv)
        assert "Exceeds the limit" not in out, _shown(argv)
        codes.add(code)
    assert codes == {0, 1, 2}


def test_no_integer_string_limit_gives_the_output_of_the_default_limit():
    # a limit of 0 turns off Python's own check; the guards then hold the default of 4300
    default = _runs_at_print_limit(4300)
    unlimited = _runs_at_print_limit(0)
    for argv, want, got in zip(_contract_argv(), default, unlimited):
        assert got == want, _shown(argv)


def test_every_drawn_verify_run_exits_0_or_3():
    codes = set()
    for argv in _verify_argv():
        code, _ = _run(argv)
        assert code in (0, 3), argv
        codes.add(code)
    assert codes == {0, 3}


if __name__ == "__main__":
    digest = hashlib.sha256()
    runs = [
        *zip(_contract_argv(), _runs_at_print_limit(4300)),
        *zip(_contract_argv(), _runs_at_print_limit(0)),
        *((argv, _run(argv)) for argv in _verify_argv()),
    ]
    for argv, (code, out) in runs:
        digest.update(json.dumps([argv, code, out]).encode() + b"\n")
    print(digest.hexdigest())
