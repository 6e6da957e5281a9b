import math
import random
import warnings
from dataclasses import replace

import pytest

from nrp.instance_io import (
    GeneratorParams,
    InstanceParseError,
    generate_instance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from nrp.oracle import OPTIMAL, exact_solve

MINIMAL = """\
NRP 1
n 1
m 1
g 1
PATTERNS
0 10000000000000
DEMAND
""" + "0\n" * 14 + """\
NURSES
0 1 1 0:5
"""


class TestParse:
    def test_minimal_file(self):
        inst = parse_instance(MINIMAL)
        assert inst.n == 1 and inst.m == 1 and inst.g == 1
        assert inst.nurses[0].pref_cost == {0: 5}
        assert inst.known_optimal is None

    def test_optional_optimal_trailer(self):
        inst = parse_instance(MINIMAL + "OPTIMAL 5\n")
        assert inst.known_optimal == 5

    @pytest.mark.parametrize("value", [0, 100])
    def test_optimal_at_either_end_of_the_cost_range_accepted(self, value):
        assert parse_instance(MINIMAL + f"OPTIMAL {value}\n").known_optimal == value

    @pytest.mark.parametrize("value", [-5, -1, 101, 999999])
    def test_optimal_no_roster_can_cost_rejected(self, value):
        with pytest.raises(InstanceParseError, match=r"OPTIMAL .* outside \[0, 100\]") as err:
            parse_instance(MINIMAL + f"OPTIMAL {value}\n")
        assert err.value.line == 24  # the OPTIMAL line

    def test_comments_and_blank_lines_ignored(self):
        noisy = "# header comment\n\n" + MINIMAL.replace(
            "PATTERNS", "PATTERNS\n# the patterns"
        )
        assert parse_instance(noisy) == parse_instance(MINIMAL)

    def test_a_comment_may_follow_every_kind_of_line(self):
        # as in the format examples: "n 2   # nurses"
        text = MINIMAL + "OPTIMAL 5\n"
        lines = text.splitlines()
        commented = "".join(f"{line}   # note {k}\n" for k, line in enumerate(lines))
        assert parse_instance(commented) == parse_instance(text)
        assert parse_instance(text.replace("0:5", "0:5#no space")).nurses[0].pref_cost == {0: 5}
        # a comment that hides the value leaves the line short, on its own number
        with pytest.raises(InstanceParseError, match="expected 'n <int>'") as err:
            parse_instance(commented.replace("n 1", "n # 1"))
        assert err.value.line == 2

    def test_dangling_pattern_reference_names_the_line(self):
        text = MINIMAL.replace("0 1 1 0:5", "0 1 1 99:5")
        with pytest.raises(InstanceParseError, match="unknown pattern 99") as err:
            parse_instance(text)
        assert err.value.line == 23  # the nurse line

    def test_cost_out_of_range_rejected(self):
        text = MINIMAL.replace("0 1 1 0:5", "0 1 1 0:101")
        with pytest.raises(InstanceParseError, match=r"\[0, 100\]"):
            parse_instance(text)

    def test_truncated_file_reports_expected_item(self):
        # the end of file is the line after the last meaningful one, here demand row 13's
        truncated = MINIMAL.rsplit("NURSES", 1)[0]
        for text, line in [
            (truncated, 22),
            (truncated + "# trailing\n\n   # comments\n", 22),
            ("", 1),
            ("# nothing but a comment\n", 1),
        ]:
            with pytest.raises(InstanceParseError, match="unexpected end") as err:
                parse_instance(text)
            assert err.value.line == line

    def test_zero_mask_pattern_accepted_with_warning(self):
        text = MINIMAL.replace("0 10000000000000", "0 00000000000000")
        with pytest.warns(UserWarning, match="covers no periods"):
            inst = parse_instance(text)
        assert inst.patterns[0] == ()

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (("NRP 1", "NRP 2"), "header"),
            (("n 1", "n 0"), "n must be"),
            (("0 10000000000000", "1 10000000000000"), "dense"),
            (("0 10000000000000", "0 100000000000001"), "14 characters"),
            (("0 10000000000000", "0 1000000000000x"), "14 characters"),
            (("0 1 1 0:5", "0 2 1 0:5"), "grade"),
            (("0 1 1 0:5", "0 1 2 0:5"), "pairs"),
            (("0 1 1 0:5", "0 1 0"), "nonempty"),
            (("0 1 1 0:5", "0 1 1 0=5"), "pattern>:<cost"),
            (("0 1 1 0:5", "1 1 1 0:5"), "dense"),
        ],
    )
    def test_invariant_violations_are_rejected(self, mutation, message):
        old, new = mutation
        with pytest.raises(InstanceParseError, match=message):
            parse_instance(MINIMAL.replace(old, new))

    def test_duplicate_pattern_in_feasible_set_rejected(self):
        text = MINIMAL.replace("0 1 1 0:5", "0 1 2 0:5 0:5")
        with pytest.raises(InstanceParseError, match="twice"):
            parse_instance(text)

    def test_non_cumulative_demand_warns_but_parses(self):
        text = MINIMAL.replace("g 1", "g 2")
        text = text.replace("0 1 1 0:5", "0 1 1 0:5")
        text = text.replace("0\n" * 14, "2 1\n" + "0 0\n" * 13)
        with pytest.warns(UserWarning, match="non-decreasing"):
            parse_instance(text)

    def test_each_non_cumulative_demand_row_warns_once_naming_its_line(self):
        # demand rows 0 and 13 fall across the bands; they sit on lines 8 and 21
        text = MINIMAL.replace("g 1", "g 2")
        text = text.replace("0\n" * 14, "2 1\n" + "0 0\n" * 11 + "0 3\n1 0\n")
        text = text.replace("0 0\n0 3\n", "0 0\n0 3 # rises, which is fine\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_instance(text)
        assert [str(w.message) for w in caught] == [
            "line 8: demand row 0 is not non-decreasing across grade bands;"
            " demands are interpreted as cumulative",
            "line 21: demand row 13 is not non-decreasing across grade bands;"
            " demands are interpreted as cumulative",
        ]

    def test_a_file_with_a_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        plain, marked = tmp_path / "plain.nrp", tmp_path / "marked.nrp"
        save_instance(generate_instance(GeneratorParams(seed=3)), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_instance(marked) == load_instance(plain)
        save_instance(load_instance(marked), marked)  # written back without the mark
        assert marked.read_bytes() == plain.read_bytes()


FUZZ_TOKENS = (
    "0", "1", "-1", "2", "14", "100", "101", "99999", "x", "1.5", "", ":", "0:0", "1:-3",
    "2:101", "7:", ":4", "NRP", "PATTERNS", "DEMAND", "NURSES", "OPTIMAL", "#",
    "11111111111111", "1111111111111", "00000000000000", "0101010101010101",
)


def mutate(text: str, rng: random.Random) -> str:
    """One seeded edit: replace a token, drop or duplicate a line, or cut one short."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    kind = rng.randrange(4)
    if kind == 0:
        tokens = lines[k].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
        lines[k] = " ".join(tokens)
    elif kind == 1:
        del lines[k]
    elif kind == 2:
        lines.insert(k, lines[k])
    else:
        lines[k] = lines[k][: rng.randrange(len(lines[k]) + 1)]
    return "\n".join(lines)


class TestParseFuzz:
    def test_mutated_files_parse_or_raise_parse_error(self):
        rng = random.Random(2024)
        sources = []
        for trial in range(30):
            inst = generate_instance(
                GeneratorParams(
                    n=rng.randint(1, 5),
                    m=rng.randint(1, 8),
                    g=1 + trial % 3,
                    feasible_min=1,
                    feasible_max=4,
                    seed=7000 + trial,
                )
            )
            text = serialize_instance(inst)
            if trial % 2:  # an optimum up to 300, outside some instances' range
                text += f"OPTIMAL {rng.randint(0, 300)}\n"
            sources.append(text)
        parsed = rejected = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-mask patterns, non-cumulative demand
            for _ in range(3000):
                text = rng.choice(sources)
                for _ in range(rng.randint(1, 3)):
                    text = mutate(text, rng)
                try:
                    parse_instance(text)
                except InstanceParseError:
                    rejected += 1
                else:
                    parsed += 1
        assert parsed > 100 and rejected > 1000  # both outcomes were exercised


class TestSerialize:
    def test_round_trip_identity_on_generated_instances(self):
        rng = random.Random(101)
        for trial in range(1000):
            inst = generate_instance(
                GeneratorParams(
                    n=rng.randint(1, 8),
                    m=rng.randint(1, 14),
                    g=rng.randint(1, 3),
                    feasible_min=1,
                    feasible_max=6,
                    tightness=rng.choice([0.5, 0.8, 1.0]),
                    seed=trial,
                )
            )
            assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_keeps_known_optimal(self):
        inst = parse_instance(MINIMAL + "OPTIMAL 5\n")
        assert parse_instance(serialize_instance(inst)) == inst

    def test_known_optimal_is_held_to_the_range_the_file_accepts(self, tmp_path):
        inst = generate_instance(GeneratorParams(n=3, seed=6))
        for value in (-1, 100 * inst.n + 1):
            with pytest.raises(ValueError, match=rf"known_optimal {value} outside \[0, 300\]"):
                replace(inst, known_optimal=value)
        for value in (0, 100 * inst.n):
            annotated = replace(inst, known_optimal=value)
            save_instance(annotated, tmp_path / "x.nrp")
            assert load_instance(tmp_path / "x.nrp") == annotated

    def test_serialization_is_byte_stable(self):
        inst = generate_instance(GeneratorParams(seed=3))
        assert serialize_instance(inst) == serialize_instance(inst)

    def test_canonical_form_is_fixed_point(self):
        text = serialize_instance(generate_instance(GeneratorParams(seed=4)))
        assert serialize_instance(parse_instance(text)) == text


class TestGenerator:
    def test_same_params_same_instance(self):
        params = GeneratorParams(n=6, m=12, g=3, seed=99)
        assert generate_instance(params) == generate_instance(params)

    def test_costs_within_range_and_biased_low(self):
        costs = []
        for seed in range(50):
            inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=seed))
            for nurse in inst.nurses:
                costs.extend(nurse.pref_cost.values())
        assert all(0 <= c <= 100 for c in costs)
        assert sum(costs) / len(costs) < 50  # exponent 2 pulls the mean down

    def test_nurses_work_days_or_nights_not_both(self):
        for seed in range(30):
            inst = generate_instance(GeneratorParams(n=8, m=12, g=3, seed=seed))
            for nurse in inst.nurses:
                kinds = {
                    "day" if all(k < 7 for k in inst.patterns[j]) else "night"
                    for j in nurse.feasible
                }
                assert len(kinds) == 1

    def test_demand_is_cumulative_across_bands(self):
        for seed in range(30):
            inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=seed))
            for row in inst.demand:
                assert all(row[s] <= row[s + 1] for s in range(inst.g - 1))

    def test_mostly_solvable_at_default_tightness(self):
        # the hidden witness roster keeps generated instances feasible
        solved = 0
        for seed in range(100):
            inst = generate_instance(
                GeneratorParams(n=6, m=12, g=3, feasible_max=8, tightness=0.8, seed=seed)
            )
            if exact_solve(inst).status == OPTIMAL:
                solved += 1
        assert solved >= 80

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GeneratorParams(tightness=0.0)
        with pytest.raises(ValueError):
            GeneratorParams(feasible_min=0)
        with pytest.raises(ValueError):
            GeneratorParams(n=0)
        for exponent in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="cost_exponent"):
                GeneratorParams(cost_exponent=exponent)
