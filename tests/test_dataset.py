import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from policyforest.dataset import (IG_NAMES, PA_LABELS, PA_TO_PD, PD_LABELS,
                                  AlignmentTally, DatasetError, FeatureSetSpec,
                                  PolicyCase, canonical_header, domain_counts,
                                  dump_cases, encode, load_cases, net_iga,
                                  parse_name_map, random_split,
                                  retrodiction_split, splitmix64,
                                  tally_alignments)
from policyforest.cli import main
from policyforest.experiments import _stance_correlations
from conftest import make_cases, splitmix64_draw


def _row(case_id="c1", year=1983, outcome=1, p90="0.6", p50="", p10="",
         alignments=None, pa="Guns", pd_label="Guns"):
    alignments = alignments or ["0"] * 43
    return ",".join([case_id, str(year), str(outcome), p90, p50, p10]
                    + alignments + [pa, pd_label])


def _aligns(column, cell):
    """All-neutral alignment cells but cell in the named IG column."""
    aligns = ["0"] * 43
    aligns[IG_NAMES.index(column)] = cell
    return aligns


def _csv(*rows):
    return ",".join(canonical_header()) + "\n" + "\n".join(rows) + "\n"


class TestLoadCases:
    def test_single_valid_row(self):
        cases = load_cases(_csv(_row()))
        assert len(cases) == 1
        assert cases[0].outcome == 1
        assert cases[0].year == 1983
        assert cases[0].p90 == 0.6
        assert cases[0].p50 is None

    def test_out_of_range_alignment_names_row_and_column(self):
        aligns = ["0"] * 43
        aligns[2] = "3"
        with pytest.raises(DatasetError, match="row 2.*Airlines"):
            load_cases(_csv(_row(alignments=aligns)))

    def test_unknown_policy_area(self):
        with pytest.raises(DatasetError, match="unknown policy area"):
            load_cases(_csv(_row(pa="Space", pd_label="Misc")))

    def test_mismatched_domain(self):
        with pytest.raises(DatasetError, match="belongs to domain"):
            load_cases(_csv(_row(pa="Guns", pd_label="Foreign")))

    def test_duplicate_case_id(self):
        with pytest.raises(DatasetError, match="duplicate case_id"):
            load_cases(_csv(_row(), _row()))

    def test_wrong_arity(self):
        bad = _row() + ",extra"
        with pytest.raises(DatasetError, match="row 2"):
            load_cases(_csv(bad))

    # (rows, bad row, column the message names or None). Every message
    # names its row once, and the column of the cell at fault.
    BAD_CELLS = {
        "non-integer alignment": (
            [_row(alignments=_aligns("Airlines", "x"))], 2, "Airlines"),
        "alignment out of range": (
            [_row(), _row("c2", alignments=_aligns("AARP", "-3"))], 3,
            "AARP"),
        "non-integer year": ([_row(year="1983.5")], 2, "year"),
        "non-integer outcome": ([_row(outcome="yes")], 2, "outcome"),
        "outcome 2": ([_row(outcome=2)], 2, "outcome"),
        "non-numeric p90": ([_row(p90="high")], 2, "p90"),
        "non-numeric p50": ([_row(p50="n/a")], 2, "p50"),
        "p10 above 1": ([_row(p10="1.5")], 2, "p10"),
        "p90 below 0": ([_row(p90="-0.1")], 2, "p90"),
        "unknown policy area": ([_row(pa="Space", pd_label="Misc")], 2,
                                "policy_area"),
        "mismatched domain": ([_row(pa="Guns", pd_label="Foreign")], 2,
                              "policy_domain"),
        "duplicate case_id": ([_row(), _row()], 3, "case_id"),
        "wrong cell count": ([_row(), _row("c2") + ",extra"], 3, None),
    }

    @pytest.mark.parametrize("name", sorted(BAD_CELLS))
    def test_bad_cell_names_row_and_column(self, name):
        rows, row, column = self.BAD_CELLS[name]
        with pytest.raises(DatasetError) as err:
            load_cases(_csv(*rows))
        message = str(err.value)
        assert message.count("row ") == 1 and f"row {row}" in message
        if column is not None:
            assert column in message

    def test_other_integer_spellings_read_as_int(self):
        aligns = ["0"] * 43
        aligns[:4] = ["+1", " 2", "-0", "-02"]
        [case] = load_cases(_csv(_row(alignments=aligns)))
        assert case.ig_alignments[:5] == (1, 2, 0, -2, 0)

    def test_non_numeric_cell(self):
        with pytest.raises(DatasetError, match="p90"):
            load_cases(_csv(_row(p90="high")))

    def test_unknown_column_rejected(self):
        text = _csv(_row()).replace("AARP", "AARPX")
        with pytest.raises(DatasetError, match="unknown columns"):
            load_cases(text)

    def test_repeated_column_named(self):
        # AARP twice, and no canonical column missing.
        text = (",".join(canonical_header() + ["AARP"]) + "\n"
                + _row() + ",0\n")
        with pytest.raises(DatasetError, match=re.escape(
                "header mismatch: duplicate columns ['AARP']")):
            load_cases(text)

    def test_two_columns_mapped_onto_one_named(self, tmp_path, capsys):
        text = _csv(_row()).replace("AFL-CIO", "unions")
        expected = ("header mismatch: missing columns ['AFL-CIO']; "
                    "duplicate columns ['AARP']")
        with pytest.raises(DatasetError, match=re.escape(expected)):
            load_cases(text, name_map={"unions": "AARP"})
        data = tmp_path / "cases.csv"
        data.write_text(text)
        map_file = tmp_path / "map.txt"
        map_file.write_text("unions=AARP\n")
        assert main(["validate", "--data", str(data),
                     "--map", str(map_file)]) == 1
        assert expected in capsys.readouterr().err

    def test_round_trip(self):
        cases = make_cases(50, seed=3, missing_p90_every=7)
        assert load_cases(dump_cases(cases)) == cases

    def test_name_map_adapter(self):
        mapping = parse_name_map(io.StringIO(
            "# comment\nid = case_id\nretired_persons=AARP\n"))
        assert mapping == {"id": "case_id", "retired_persons": "AARP"}
        text = _csv(_row()).replace("case_id", "id").replace("AARP",
                                                             "retired_persons")
        cases = load_cases(text, name_map=mapping)
        assert cases[0].case_id == "c1"

    def test_name_map_bad_line(self):
        with pytest.raises(DatasetError, match="line 1"):
            parse_name_map(io.StringIO("no separator here\n"))


class TestNetIga:
    def test_empty_tally(self):
        assert net_iga(AlignmentTally(0, 0, 0, 0)) == 0.0

    def test_single_strong_favor(self):
        assert net_iga(AlignmentTally(1, 0, 0, 0)) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_mixed_tally(self):
        # f2=2, f1=1, o2=1, o1=2 -> log(3.5) - log(3)
        expected = math.log(3.5) - math.log(3.0)
        assert net_iga(AlignmentTally(2, 1, 1, 2)) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.1542, abs=1e-4)

    @given(st.tuples(*[st.integers(0, 10)] * 4))
    def test_antisymmetry(self, t):
        f2, f1, o2, o1 = t
        if f2 + f1 + o2 + o1 > 43:
            return
        a = net_iga(AlignmentTally(f2, f1, o2, o1))
        b = net_iga(AlignmentTally(o2, o1, f2, f1))
        assert a == pytest.approx(-b, abs=1e-12)

    @given(st.tuples(*[st.integers(0, 9)] * 4))
    def test_monotone(self, t):
        f2, f1, o2, o1 = t
        if f2 + f1 + o2 + o1 > 39:
            return
        base = net_iga(AlignmentTally(f2, f1, o2, o1))
        assert net_iga(AlignmentTally(f2 + 1, f1, o2, o1)) > base
        assert net_iga(AlignmentTally(f2, f1 + 1, o2, o1)) > base
        assert net_iga(AlignmentTally(f2, f1, o2 + 1, o1)) < base
        assert net_iga(AlignmentTally(f2, f1, o2, o1 + 1)) < base


class TestTally:
    def test_all_neutral(self):
        case = make_cases(1, seed=0)[0]
        case = PolicyCase(case.case_id, case.year, case.outcome,
                          (0,) * 43, case.policy_area, case.policy_domain)
        assert tally_alignments(case) == AlignmentTally(0, 0, 0, 0)

    def test_direct_count(self):
        aligns = [0] * 43
        aligns[0], aligns[1], aligns[2] = 2, 2, -1
        case = PolicyCase("x", 1990, 0, tuple(aligns), "Guns", "Guns")
        assert tally_alignments(case) == AlignmentTally(2, 0, 0, 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            aligns = tuple(int(v) for v in rng.integers(-2, 3, size=43))
            case = PolicyCase("x", 1990, 0, aligns, "Guns", "Guns")
            t = tally_alignments(case)
            counts = {v: 0 for v in (-2, -1, 1, 2)}
            for v in aligns:
                if v != 0:
                    counts[v] += 1
            assert (t.f2, t.f1, t.o2, t.o1) == (
                counts[2], counts[1], counts[-2], counts[-1])


def p90_stance(p):
    """The stance a P90 value p takes in rank's correlations: twice the
    correlation of one adopted case."""
    corr, _ = _stance_correlations(np.array([[p]]), np.array([1]), ["P90"])
    return 2.0 * corr[0]


class TestRescaleAndBand:
    """A P90 fraction maps onto the IG scale [-2, 2], and stances in the
    noncommittal band [-0.4, 0.4] count as no stance."""

    @pytest.mark.parametrize("p,expected", [(0.5, 0.0), (1.0, 2.0),
                                            (0.25, -1.0), (0.0, -2.0)])
    def test_rescale(self, p, expected):
        assert p90_stance(p) == expected

    @pytest.mark.parametrize("v,expected", [(0.3, 0.0), (-0.4, 0.0),
                                            (0.4, 0.0), (1.5, 1.5),
                                            (-0.41, -0.41)])
    def test_band(self, v, expected):
        # The P90 fraction whose rescaled value is v, up to rounding.
        assert p90_stance((v + 2) / 4) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0, 1))
    def test_rescale_affine(self, p):
        v = 4.0 * p - 2.0
        assert p90_stance(p) == (0.0 if abs(v) <= 0.4 else v)


class TestEncode:
    def test_set_a_columns(self, cases_200):
        m = encode(cases_200[:3], FeatureSetSpec.set_a())
        assert m.column_names == ["P90", "netIGA"]
        assert m.X.shape == (3, 2)

    def test_set_d_column_count(self, cases_200):
        m = encode(cases_200, FeatureSetSpec.set_d())
        assert m.n_features == 1 + 43 + 19

    def test_set_c_column_count(self, cases_200):
        spec = FeatureSetSpec("C", use_p90=True, use_net_iga=False,
                              ig_subset=IG_NAMES[:14], policy_encoding="pd")
        m = encode(cases_200, spec)
        assert m.n_features == 1 + 14 + 6

    def test_one_hot_rows_sum_to_one(self, cases_200):
        m = encode(cases_200, FeatureSetSpec.set_d())
        pa_cols = [i for i, c in enumerate(m.column_names)
                   if c.startswith("PA:")]
        assert np.all(m.X[:, pa_cols].sum(axis=1) == 1.0)
        assert set(np.unique(m.X[:, pa_cols])) <= {0.0, 1.0}

    def test_ig_columns_keep_ordinals(self, cases_200):
        m = encode(cases_200, FeatureSetSpec.set_b())
        ig_cols = [i for i, c in enumerate(m.column_names) if c in IG_NAMES]
        assert np.all(np.abs(m.X[:, ig_cols]) <= 2)

    def test_unknown_ig_rejected(self):
        with pytest.raises(DatasetError, match="unknown IG"):
            FeatureSetSpec("custom", True, False, ("Nonexistent Group",),
                           "none")

    def test_missing_p90_dropped_with_count(self):
        cases = make_cases(40, seed=1, missing_p90_every=4)
        m = encode(cases, FeatureSetSpec.set_a())
        assert m.n_dropped_missing_p90 == 10
        assert m.n_samples == 30

    def test_netiga_matches_formula(self, cases_200):
        m = encode(cases_200[:5], FeatureSetSpec.set_a())
        for r, i in enumerate(m.case_indices):
            expected = net_iga(tally_alignments(cases_200[i]))
            assert m.X[r, 1] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("rows", [np.arange(12) % 3 == 0,
                                      [0.5, 1.9, 2.2, 3.7]],
                             ids=["mask", "floats"])
    def test_subset_rejects_what_is_not_row_numbers(self, cases_200, rows):
        # int conversion would read the mask as rows 0 and 1, and the
        # floats as rows 0-3.
        m = encode(cases_200[:12], FeatureSetSpec.set_a())
        with pytest.raises(DatasetError,
                           match="subset indices must be integer row "
                                 f"numbers, got {np.asarray(rows).dtype}"):
            m.subset(rows)
        assert m.subset([]).n_samples == 0
        picked = m.subset(np.array([3, 1], dtype=np.int32))
        assert picked.case_indices.tolist() == [3, 1]


class TestSplits:
    def test_small_split(self):
        train, test = random_split(3, 0.67, seed=1)
        assert len(train) == 2
        assert len(test) == 1
        assert not set(train) & set(test)

    def test_determinism(self):
        for a, b in zip(random_split(100, 0.67, 9),
                        random_split(100, 0.67, 9)):
            assert np.array_equal(a, b)

    def test_floor_convention_full_size(self):
        train, test = random_split(1836, 0.67, seed=0)
        assert len(train) == 1230
        assert len(test) == 606

    def test_too_few_cases(self):
        with pytest.raises(DatasetError):
            random_split(1, 0.67, 0)

    def test_bad_fraction(self):
        with pytest.raises(DatasetError):
            random_split(10, 1.0, 0)

    @pytest.mark.parametrize("n,f", [(10, 0.5), (17, 0.67), (101, 0.9)])
    def test_partition_property(self, n, f):
        # The cases in the order of their draws from the seed's stream,
        # the first floor(f * n) of them trained on.
        train, test = random_split(n, f, seed=3)
        assert sorted([*train, *test]) == list(range(n))
        assert len(train) == math.floor(f * n)
        order = sorted(range(n), key=lambda i: splitmix64_draw(3, i))
        assert [*train, *test] == order

    def test_retrodiction_inclusive_cutoff(self):
        cases = make_cases(30, seed=2)
        cases = [c for c in cases]
        # force two known years
        a = cases[0]
        b = cases[1]
        a = PolicyCase(a.case_id, 1990, a.outcome, a.ig_alignments,
                       a.policy_area, a.policy_domain, p90=a.p90)
        b = PolicyCase(b.case_id, 1997, b.outcome, b.ig_alignments,
                       b.policy_area, b.policy_domain, p90=b.p90)
        train, test = retrodiction_split([a, b])
        assert train.tolist() == [0]
        assert test.tolist() == [1]

    def test_retrodiction_empty_side(self):
        cases = [PolicyCase(f"c{i}", 1985, i % 2, (0,) * 43, "Guns", "Guns")
                 for i in range(4)]
        with pytest.raises(DatasetError, match="empty test"):
            retrodiction_split(cases)


class TestSplitMix64:
    SEEDS = [0, 1, 2**63, 2**64 - 1]
    COUNTERS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 12345,
                2**63, 2**64 - 1]

    def test_oracle_gives_the_published_stream(self):
        # The first outputs of SplitMix64 seeded with 0.
        assert [splitmix64_draw(0, i) for i in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_oracle(self, seed):
        counters = np.array(self.COUNTERS, dtype=np.uint64)
        assert splitmix64(seed, counters).tolist() == [
            splitmix64_draw(seed, i) for i in self.COUNTERS]

    def test_seed_array_broadcasts(self):
        seeds = np.array(self.SEEDS, dtype=np.uint64)[:, None]
        counters = np.add.outer(np.arange(len(self.SEEDS)) * 2**33,
                                np.arange(5))
        assert splitmix64(seeds, counters).tolist() == [
            [splitmix64_draw(s, int(i)) for i in row]
            for s, row in zip(self.SEEDS, counters)]

    def test_seed_reduced_mod_2_64(self):
        counters = np.arange(4)
        assert np.array_equal(splitmix64(-1, counters),
                              splitmix64(2**64 - 1, counters))
        assert np.array_equal(splitmix64(2**64 + 5, counters),
                              splitmix64(5, counters))


class TestDomainCounts:
    def test_empty(self):
        rows = domain_counts([])
        assert all(r.pos == 0 and r.neg == 0 for r in rows)
        assert rows[-1].domain == "Total"

    def test_totals_add_up(self, cases_200):
        rows = domain_counts(cases_200)
        total = rows[-1]
        assert total.pos == sum(c.outcome for c in cases_200)
        assert total.pos + total.neg == len(cases_200)
        assert sum(r.pos for r in rows[:-1]) == total.pos
