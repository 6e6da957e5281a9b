"""Mutated instance files through the command line, in the default e-mode.

A fixed seed makes token and byte mutations of serialized desk and ward
instances.  Each mutated file runs through cli.main as `solve --max-iters
20` and as `exact --node-budget 2000`, each under an alarm.  Every run must
end with an exit code in {0, 1, 2, 3} and print to stderr only lines that
start with "error:" or "warning:": a bad file is one line and exit 1, never
a traceback or a hang.  Among the tokens are demands of 10**6 and more,
which the solver meets with packed fields some fifty bits wide.
"""

from __future__ import annotations

import random
import signal

import pytest

from nrp import cli
from nrp.instance_io import GeneratorParams, generate_instance, serialize_instance

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.SIGALRM")

TOKENS = (
    "0", "1", "-1", "2", "3", "14", "100", "101", "x", "1.5", "", ":", "0:0", "2:101",
    "NRP", "PATTERNS", "DEMAND", "NURSES", "OPTIMAL", "#", "1_0", "+4", "٣",
    "1000000", "99999999", "10000000000000", "99999999999999", "1" * 40,
    "11111111111111", "00000000000000", "0101010101010101",
)
NUMBERS = (0, 1, 2, 3, 5, 9, 30, 100, 10**6, 10**8, 10**13, 10**14 - 1, 10**40)
COMMANDS = (("solve", "--max-iters", "20"), ("exact", "--node-budget", "2000"))
ALARM_S = 20  # per run; a run takes milliseconds


class Alarm(Exception):
    """A command line run outlasted its alarm."""


def _ring(signum, frame):
    raise Alarm


def sources() -> list[bytes]:
    """Serialized desk instances at g = 1-3, one with an optimum line and
    one whose proof takes more than 2000 nodes, and one instance of the
    paper's ward shape."""
    texts = [
        serialize_instance(generate_instance(GeneratorParams(
            n=4 + seed, m=12, g=1 + seed % 3, feasible_min=2, feasible_max=6, seed=4800 + seed,
        )))
        for seed in range(3)
    ]
    texts[0] += "OPTIMAL 120\n"
    texts.append(serialize_instance(generate_instance(GeneratorParams(  # past 2000 nodes
        n=14, m=12, g=3, feasible_min=4, feasible_max=8, seed=4820,
    ))))
    texts.append(serialize_instance(generate_instance(GeneratorParams(
        n=30, m=411, g=3, feasible_min=75, feasible_max=150, seed=4810,
    ))))
    return [text.encode() for text in texts]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded edit: a token replaced, or a byte changed, inserted or dropped.

    Half the token edits fall in the demand rows, and a number there is
    mostly replaced by another number, so that many edited files still
    parse and reach the solver and the oracle.
    """
    if rng.random() < 0.6:
        lines = data.split(b"\n")
        rows = lines.index(b"DEMAND") + 1 if b"DEMAND" in lines else 0
        in_rows = rows and rng.random() < 0.5
        k = rng.randrange(rows, min(rows + 14, len(lines))) if in_rows else rng.randrange(len(lines))
        tokens = lines[k].split(b" ")
        at = rng.randrange(len(tokens))
        numbers = tokens[at].isdigit() and rng.random() < 0.7
        tokens[at] = (str(rng.choice(NUMBERS)) if numbers else rng.choice(TOKENS)).encode()
        lines[k] = b" ".join(tokens)
        return b"\n".join(lines)
    at, byte = rng.randrange(len(data)), bytes([rng.randrange(256)])
    return data[:at] + (byte, byte + data[at:at + 1], b"")[rng.randrange(3)] + data[at + 1:]


def test_mutated_files_end_in_an_exit_code_and_one_line_messages(tmp_path, capsys):
    rng, texts = random.Random(4848), sources()
    path = tmp_path / "case.nrp"
    codes: dict[int, int] = {}
    previous = signal.signal(signal.SIGALRM, _ring)
    try:
        for case in range(300):
            data = texts[-1] if case % 10 == 9 else rng.choice(texts[:-1])
            for _ in range(rng.randint(1, 2)):
                data = mutate(data, rng)
            path.write_bytes(data)
            for command in COMMANDS:
                signal.alarm(ALARM_S)
                try:
                    code = cli.main([command[0], str(path), *command[1:]])
                except Alarm:
                    pytest.fail(f"case {case}: {command[0]} ran past {ALARM_S} s on {data!r}")
                finally:
                    signal.alarm(0)
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (case, command, code, data)
                for line in err.splitlines():
                    assert line.startswith(("error:", "warning:")), (case, command, line, data)
                codes[code] = codes.get(code, 0) + 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # every outcome was met: ran fine, a bad file, infeasible, a timeout
    assert all(codes.get(code, 0) >= 10 for code in (0, 1, 2, 3)), codes
