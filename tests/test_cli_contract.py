"""The CLI contract on a seeded draw of inputs, valid and not.

Every run of ``cli.main`` exits 0, 1 or 2, writes exactly one JSON document
that parses with NaN and the infinities rejected, never writes Python's own
"Exceeds the limit" refusal of a long integer, and answers within a second.
The draw mixes valid parameters and their partners, wrong lengths, wrong
parity and mixed classes, malformed text, huge exponents and huge digit
strings, through occurs, correspond, dims and dist on both members.
"""

import contextlib
import io
import json
import random
import time

from howedual import cli

SEED = 17
COUNT = 2000
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

# always run: an exponent that took 12 s to build, an entry and a term count
# that were refused in Python's words
FIXED = [
    ["occurs", "--l", "1", "--lp", "2", "--mu", "1e10000000"],
    ["occurs", "--l", "1", "--lp", "2", "--mu", "9" * 4400],
    ["dist", "--l", "2", "--lp", "3", "--mu", "1e4000,1e3999"],
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


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue()


def test_every_drawn_input_keeps_the_cli_contract():
    rng = random.Random(SEED)
    codes = set()
    for argv in FIXED + [_draw(rng) for _ in range(COUNT)]:
        start = time.perf_counter()
        code, out = _run(argv)
        elapsed = time.perf_counter() - start
        shown = [a if len(a) < 80 else a[:40] + "..." for a in argv]
        assert code in (0, 1, 2), shown
        json.loads(out, parse_constant=_reject_constant)  # exactly one document, or this raises
        assert "Exceeds the limit" not in out, shown
        assert elapsed < SECONDS_PER_RUN, (shown, elapsed)
        codes.add(code)
    assert codes == {0, 1, 2}
