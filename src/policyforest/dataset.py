"""Policy-case table: loading, validation, feature encoding, seeded
draws, and splits.

The canonical CSV schema is one row per policy case:

    case_id,year,outcome,p90,p50,p10,<43 IG columns>,policy_area,policy_domain

IG columns carry ordinal alignments in {-2,-1,0,1,2}; voter-preference
columns (p90/p50/p10) are fractions in [0,1] and may be empty (missing).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TextIO

from . import PolicyforestError

# NumPy is imported inside the functions that build or read arrays, so that
# loading and checking a CSV (schema, validate, summarize) never imports it.

# Canonical interest-group names, kept alphabetical so column order is
# deterministic everywhere.
IG_NAMES: tuple[str, ...] = tuple(sorted([
    "AARP",
    "AFL-CIO",
    "Airlines",
    "American Bankers Association",
    "American Farm Bureau Federation",
    "American Federation of State County and Municipal Employees",
    "American Hospital Association",
    "American Israel Public Affairs Committee",
    "American Legion",
    "American Medical Association",
    "Association of Trial Lawyers",
    "Automobile Companies",
    "Beer Wine and Liquor Companies",
    "Chamber of Commerce",
    "Christian Coalition",
    "Computer Software and Hardware",
    "Credit Union National Association",
    "Defense Contractors",
    "Electric Companies",
    "Health Insurance Association",
    "Independent Insurance Agents of America",
    "International Brotherhood of Teamsters",
    "Motion Picture Association of America",
    "National Association of Broadcasters",
    "National Association of Home Builders",
    "National Association of Manufacturers",
    "National Association of Realtors",
    "National Beer Wholesalers Association",
    "National Education Association",
    "National Federation of Independent Business",
    "National Governors Association",
    "National Restaurant Association",
    "National Rifle Association",
    "National Right to Life Committee",
    "Oil Companies",
    "Pharmaceutical Companies",
    "Recording Industry Association of America",
    "Securities and Investment Companies",
    "Telephone Companies",
    "Tobacco Companies",
    "United Auto Workers Union",
    "Universities",
    "Veterans of Foreign Wars",
]))

assert len(IG_NAMES) == 43

# Column of each IG in PolicyCase.ig_alignments; a dict lookup in place of
# IG_NAMES.index, which scans the tuple on every call.
_IG_INDEX: dict[str, int] = {name: i for i, name in enumerate(IG_NAMES)}

# Policy-area labels and the fixed PA -> PD assignment (each case carries
# exactly one PA; its domain must agree with this table).
PA_TO_PD: dict[str, str] = {
    "Budget": "Economic",
    "Campaign Finance": "Misc",
    "Civil Rights": "Misc",
    "Defense": "Foreign",
    "Economics and Labor": "Economic",
    "Education": "Social Welfare",
    "Environment": "Economic",
    "Foreign Policy": "Foreign",
    "Government Reform": "Misc",
    "Guns": "Guns",
    "Health": "Social Welfare",
    "Immigration": "Foreign",
    "Miscellaneous": "Misc",
    "Race": "Misc",
    "Religion": "Religious",
    "Social Welfare": "Social Welfare",
    "Taxation": "Economic",
    "Terrorism": "Foreign",
    "Welfare Reform": "Social Welfare",
}

PA_LABELS: tuple[str, ...] = tuple(sorted(PA_TO_PD))
PD_LABELS: tuple[str, ...] = ("Economic", "Foreign", "Social Welfare",
                              "Religious", "Guns", "Misc")

assert len(PA_LABELS) == 19

VALID_ALIGNMENTS = frozenset((-2, -1, 0, 1, 2))
# The alignment each canonical spelling of a valid alignment cell reads as.
_ALIGNMENT_OF = {str(v): v for v in VALID_ALIGNMENTS}


class DatasetError(PolicyforestError):
    """Raised for malformed input files or invalid field values."""


@dataclass(frozen=True)
class PolicyCase:
    """One policy case: outcome, voter preferences, and IG alignments."""

    case_id: str
    year: int
    outcome: int
    ig_alignments: tuple[int, ...]  # length 43, canonical IG order
    policy_area: str
    policy_domain: str
    p90: float | None = None
    p50: float | None = None
    p10: float | None = None

    def __post_init__(self):
        # The one check of each field's value, also for load_cases, which
        # adds the row to the message.
        if self.outcome not in (0, 1):
            raise self._error("outcome", f"must be 0 or 1, got "
                                         f"{self.outcome!r}")
        if len(self.ig_alignments) != len(IG_NAMES):
            raise DatasetError(f"case {self.case_id!r}: expected "
                               f"{len(IG_NAMES)} IG alignments, got "
                               f"{len(self.ig_alignments)}")
        if not VALID_ALIGNMENTS.issuperset(self.ig_alignments):
            name, v = next((name, v) for name, v in zip(IG_NAMES,
                                                        self.ig_alignments)
                           if v not in VALID_ALIGNMENTS)
            raise self._error(name, f"alignment {v!r} outside {{-2..2}}")
        expected_pd = PA_TO_PD.get(self.policy_area)
        if expected_pd is None:
            raise self._error("policy_area", f"unknown policy area "
                                             f"{self.policy_area!r}")
        if self.policy_domain != expected_pd:
            raise self._error("policy_domain", f"policy area "
                                               f"{self.policy_area!r} belongs "
                                               f"to domain {expected_pd!r}, "
                                               f"not {self.policy_domain!r}")
        for name in ("p90", "p50", "p10"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise self._error(name, f"value {v!r} outside [0,1]")

    def _error(self, column: str, problem: str) -> DatasetError:
        return DatasetError(f"case {self.case_id!r}, column {column!r}: "
                            f"{problem}")

    def alignment(self, ig_name: str) -> int:
        return self.ig_alignments[_IG_INDEX[ig_name]]


@dataclass(frozen=True)
class AlignmentTally:
    """Counts of IGs in each non-neutral stance on one case."""

    f2: int  # strongly in favor
    f1: int  # somewhat in favor
    o2: int  # strongly opposed
    o1: int  # somewhat opposed

    def __post_init__(self):
        if min(self.f2, self.f1, self.o2, self.o1) < 0:
            raise DatasetError("tally counts must be non-negative")
        if self.f2 + self.f1 + self.o2 + self.o1 > len(IG_NAMES):
            raise DatasetError("tally counts exceed number of IGs")


def tally_alignments(case: PolicyCase) -> AlignmentTally:
    """Count IGs by stance."""
    a = case.ig_alignments
    return AlignmentTally(
        f2=sum(1 for v in a if v == 2),
        f1=sum(1 for v in a if v == 1),
        o2=sum(1 for v in a if v == -2),
        o1=sum(1 for v in a if v == -1),
    )


def net_iga(tally: AlignmentTally) -> float:
    """Net interest-group alignment: log-difference of weighted stance counts.

    Strong stances count fully and weak stances count half on each side;
    the log damps the marginal effect of many IGs piling onto one side.
    """
    return (math.log(tally.f2 + 0.5 * tally.f1 + 1.0)
            - math.log(tally.o2 + 0.5 * tally.o1 + 1.0))


# ---------------------------------------------------------------------------
# Feature-set specifications and encoding


@dataclass(frozen=True)
class FeatureSetSpec:
    """Declarative description of the model input columns.

    policy_encoding: "none", "pd" (6 one-hot columns), or "pa" (19 columns).
    """

    id: str
    use_p90: bool
    use_net_iga: bool
    ig_subset: tuple[str, ...]
    policy_encoding: str

    def __post_init__(self):
        if self.policy_encoding not in ("none", "pd", "pa"):
            raise DatasetError(f"unknown policy encoding "
                               f"{self.policy_encoding!r}")
        for name in self.ig_subset:
            if name not in IG_NAMES:
                raise DatasetError(f"unknown IG column {name!r}")

    @classmethod
    def set_a(cls) -> "FeatureSetSpec":
        return cls("A", use_p90=True, use_net_iga=True, ig_subset=(),
                   policy_encoding="none")

    @classmethod
    def set_b(cls) -> "FeatureSetSpec":
        return cls("B", use_p90=True, use_net_iga=False, ig_subset=IG_NAMES,
                   policy_encoding="pd")

    @classmethod
    def set_d(cls) -> "FeatureSetSpec":
        return cls("D", use_p90=True, use_net_iga=False, ig_subset=IG_NAMES,
                   policy_encoding="pa")

    def column_names(self) -> list[str]:
        cols: list[str] = []
        if self.use_p90:
            cols.append("P90")
        if self.use_net_iga:
            cols.append("netIGA")
        cols.extend(name for name in IG_NAMES if name in set(self.ig_subset))
        if self.policy_encoding == "pd":
            cols.extend(f"PD:{d}" for d in sorted(PD_LABELS))
        elif self.policy_encoding == "pa":
            cols.extend(f"PA:{a}" for a in PA_LABELS)
        return cols


def check_finite(X: np.ndarray, error: type[Exception]) -> None:
    """Raise `error` if X is not a 2-D matrix, or naming its first row and
    column that holds NaN or +-inf."""
    import numpy as np
    if X.ndim != 2:
        raise error(f"expected a 2-D matrix of rows, got a {X.ndim}-D array")
    finite = np.isfinite(X)
    if not finite.all():
        r, c = (int(i) for i in np.argwhere(~finite)[0])
        raise error(f"row {r}, column {c}: non-finite value {X[r, c]}")


def row_numbers(indices, error: type[Exception], what: str) -> np.ndarray:
    """indices as an int array of row numbers, an empty sequence being no
    rows. Raise `error` naming what for a boolean mask or non-integer
    values, which an int conversion would silently read as row numbers."""
    import numpy as np
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise error(f"{what} must be integer row numbers, got {idx.dtype}")
    return idx.astype(int, copy=False)


@dataclass
class EncodedMatrix:
    """Feature matrix plus labels for a list of cases.

    case_indices maps each row back to its index in the input case list
    (cases missing p90 are dropped when the spec uses p90).
    """

    X: np.ndarray          # shape (n, F), float64
    y: np.ndarray          # shape (n,), int
    column_names: list[str]
    case_indices: np.ndarray  # shape (n,), int
    n_dropped_missing_p90: int = 0

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "EncodedMatrix":
        idx = row_numbers(indices, DatasetError, "subset indices")
        return EncodedMatrix(self.X[idx], self.y[idx], self.column_names,
                             self.case_indices[idx],
                             self.n_dropped_missing_p90)


def _column(cases: list[PolicyCase], name: str) -> list:
    """The values over cases of the column named name by column_names()."""
    if name == "P90":
        return [c.p90 for c in cases]
    if name == "netIGA":
        return [net_iga(tally_alignments(c)) for c in cases]
    kind, _, label = name.partition(":")
    if kind == "PD":
        return [c.policy_domain == label for c in cases]
    if kind == "PA":
        return [c.policy_area == label for c in cases]
    k = _IG_INDEX[name]
    return [c.ig_alignments[k] for c in cases]


def encode(cases: list[PolicyCase], spec: FeatureSetSpec) -> EncodedMatrix:
    """Build the feature matrix for a spec: one float64 column per name in
    spec.column_names(), P90 raw in [0,1], policy one-hots as 0/1."""
    import numpy as np
    cols = spec.column_names()
    kept = [i for i, c in enumerate(cases)
            if not (spec.use_p90 and c.p90 is None)]
    kept_cases = [cases[i] for i in kept]
    X = np.zeros((len(kept), len(cols)))
    for j, name in enumerate(cols):
        X[:, j] = _column(kept_cases, name)
    y = np.array([c.outcome for c in kept_cases], dtype=int)
    return EncodedMatrix(X, y, cols, np.asarray(kept, dtype=int),
                         len(cases) - len(kept))


# ---------------------------------------------------------------------------
# Seeded draws

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(seed: int, index: int) -> int:
    """Derive a stream seed from (seed, index) via a splitmix64 round.

    Stable by construction: adding trees or runs never reshuffles the
    seeds of earlier ones.
    """
    z = (seed * _GOLDEN + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def splitmix64(seed, counter):
    """Draw counter of the SplitMix64 stream seeded by seed, as uint64:
    mix(seed + (counter + 1) * golden), mix being the three steps that
    end mix_seed.

    Every seeded draw of the package is a value of such a stream. seed is
    an integer, reduced mod 2**64, or a uint64 array; counter an array of
    non-negative ints whose shape, seed broadcast against it, is the
    result's. Distinct counters of one seed give distinct values, since
    both the step and the mix are bijections of the uint64s, so the values
    serve as sort keys without ties. The ops are in place on uint64, whose
    arrays wrap without a warning.
    """
    import numpy as np
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(int(seed) & _MASK64)
    z = np.array(counter, dtype=np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += seed
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


# ---------------------------------------------------------------------------
# Train/test splits


# Retrodiction trains on the cases before this year and tests on the rest.
CUTOFF_YEAR = 1997
REGIMES = ("random_draw", "retrodiction")
MODEL_KINDS = ("forest", "logistic")
# Share of cases each random draw trains on; only run_feature_set_eval
# takes another.
TRAIN_FRACTION = 0.67


def random_split(n_cases: int, train_fraction: float, seed: int):
    """Seeded uniform split of range(n_cases) into disjoint (train, test)
    int arrays; train size is floor(train_fraction * n). The cases come
    in the order of draws 0..n_cases-1 of seed's stream."""
    if n_cases < 2:
        raise DatasetError(f"need at least 2 cases to split, got {n_cases}")
    if not (0.0 < train_fraction < 1.0):
        raise DatasetError(f"train_fraction must be in (0,1), got "
                           f"{train_fraction}")
    import numpy as np
    perm = np.argsort(splitmix64(seed, np.arange(n_cases)))
    n_train = int(math.floor(train_fraction * n_cases))
    return perm[:n_train], perm[n_train:]


def retrodiction_split(cases: list[PolicyCase]):
    """(train, test) int arrays of the indices of cases before
    CUTOFF_YEAR and of the rest (inclusive)."""
    import numpy as np
    before = np.array([c.year < CUTOFF_YEAR for c in cases], dtype=bool)
    if not before.any():
        raise DatasetError(f"no cases before {CUTOFF_YEAR}: empty training "
                           f"set")
    if before.all():
        raise DatasetError(f"no cases in or after {CUTOFF_YEAR}: empty test "
                           f"set")
    return np.flatnonzero(before), np.flatnonzero(~before)


# ---------------------------------------------------------------------------
# Summaries


@dataclass(frozen=True)
class DomainCountRow:
    domain: str
    pos: int
    neg: int
    pos_post_cutoff: int
    neg_post_cutoff: int

    @property
    def pos_fraction(self) -> float:
        total = self.pos + self.neg
        return self.pos / total if total else 0.0

    @property
    def pos_fraction_post_cutoff(self) -> float:
        total = self.pos_post_cutoff + self.neg_post_cutoff
        return self.pos_post_cutoff / total if total else 0.0


def domain_counts(cases: list[PolicyCase]) -> list[DomainCountRow]:
    """Positive/negative counts per policy domain, plus a Total row.

    Post-cutoff columns cover cases with year >= CUTOFF_YEAR.
    """
    rows = []
    for d in list(PD_LABELS) + ["Total"]:
        sub = cases if d == "Total" else [c for c in cases
                                          if c.policy_domain == d]
        post = [c for c in sub if c.year >= CUTOFF_YEAR]
        rows.append(DomainCountRow(
            domain=d,
            pos=sum(c.outcome for c in sub),
            neg=sum(1 - c.outcome for c in sub),
            pos_post_cutoff=sum(c.outcome for c in post),
            neg_post_cutoff=sum(1 - c.outcome for c in post),
        ))
    return rows


# ---------------------------------------------------------------------------
# CSV I/O


def canonical_header() -> list[str]:
    return (["case_id", "year", "outcome", "p90", "p50", "p10"]
            + list(IG_NAMES) + ["policy_area", "policy_domain"])


def parse_name_map(stream: TextIO) -> dict[str, str]:
    """Parse `source_name=canonical_name` lines for the adapter mode."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"name map line {lineno}: expected "
                               f"source=canonical, got {line!r}")
        src, dst = (part.strip() for part in line.split("=", 1))
        mapping[src] = dst
    return mapping


def _parse_optional_fraction(cell: str, row: int, col: str) -> float | None:
    """A p90/p50/p10 cell as a float, or None when empty; PolicyCase
    checks its range."""
    if cell.strip() == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise DatasetError(f"row {row}, column {col!r}: non-numeric value "
                           f"{cell!r}") from None


def _parse_int(cell: str, row: int, col: str, what: str = "") -> int:
    try:
        return int(cell)
    except ValueError:
        raise DatasetError(f"row {row}, column {col!r}: non-integer "
                           f"{what}{cell!r}") from None


def _parse_alignments(cells: tuple[str, ...], row: int) -> tuple[int, ...]:
    """A row's IG cells as ints: the canonical spellings by one lookup,
    any other by int(); PolicyCase checks their range."""
    try:
        return tuple(map(_ALIGNMENT_OF.__getitem__, cells))
    except KeyError:
        return tuple(_parse_int(cell, row, name, "alignment ")
                     for name, cell in zip(IG_NAMES, cells))


def load_cases(source: TextIO | str,
               name_map: dict[str, str] | None = None) -> list[PolicyCase]:
    """Load and validate the canonical CSV; returns one PolicyCase per row.

    name_map optionally renames source columns to canonical names before
    validation (adapter mode for files with foreign headers). Every error
    names its row, and its column where one cell is at fault.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty input: no header row") from None
    if name_map:
        header = [name_map.get(h, h) for h in header]

    expected = canonical_header()
    if sorted(header) != sorted(expected):
        unknown = sorted(set(header) - set(expected))
        missing = sorted(set(expected) - set(header))
        parts = []
        if unknown:
            parts.append(f"unknown columns {unknown}")
        if missing:
            parts.append(f"missing columns {missing}")
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            parts.append(f"duplicate columns {repeated}")
        raise DatasetError("header mismatch: " + "; ".join(parts))
    pos = {name: header.index(name) for name in expected}
    ig_cells = itemgetter(*(pos[name] for name in IG_NAMES))

    cases: list[PolicyCase] = []
    seen_ids: set[str] = set()
    for rowno, row in enumerate(reader, start=2):
        if len(row) != len(expected):
            raise DatasetError(f"row {rowno}: expected {len(expected)} cells, "
                               f"got {len(row)}")
        case_id = row[pos["case_id"]]
        if case_id in seen_ids:
            raise DatasetError(f"row {rowno}: duplicate case_id {case_id!r}")
        seen_ids.add(case_id)
        year = _parse_int(row[pos["year"]], rowno, "year")
        outcome = _parse_int(row[pos["outcome"]], rowno, "outcome")
        alignments = _parse_alignments(ig_cells(row), rowno)
        p90 = _parse_optional_fraction(row[pos["p90"]], rowno, "p90")
        p50 = _parse_optional_fraction(row[pos["p50"]], rowno, "p50")
        p10 = _parse_optional_fraction(row[pos["p10"]], rowno, "p10")
        try:
            cases.append(PolicyCase(
                case_id=case_id,
                year=year,
                outcome=outcome,
                p90=p90,
                p50=p50,
                p10=p10,
                ig_alignments=alignments,
                policy_area=row[pos["policy_area"]],
                policy_domain=row[pos["policy_domain"]],
            ))
        except DatasetError as e:
            raise DatasetError(f"row {rowno}: {e}") from None
    return cases


def dump_cases(cases: list[PolicyCase]) -> str:
    """Serialize cases back to canonical CSV (round-trips load_cases)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(canonical_header())
    for c in cases:
        def fmt(v):
            return "" if v is None else repr(v)
        writer.writerow([c.case_id, c.year, c.outcome,
                         fmt(c.p90), fmt(c.p50), fmt(c.p10)]
                        + list(c.ig_alignments)
                        + [c.policy_area, c.policy_domain])
    return out.getvalue()
