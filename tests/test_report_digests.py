"""Report bytes pinned by a committed digest table.

Each configuration below runs through cli.main at --trees 4 on one
synthetic CSV, at --jobs 1 and at --jobs 2. Its digest is a sha256 over
the exit code, stdout without its `wrote` lines, and each report file's
name and body without its provenance (`#`) lines. Both job counts must
match report_digests.json. A change that declares a new model rewrites
that table in the same commit; a failure prints every computed digest in
the table's form.
"""

import hashlib
import json
from pathlib import Path

import pytest

from policyforest.cli import main
from policyforest.dataset import dump_cases
from conftest import make_cases

TABLE = Path(__file__).with_name("report_digests.json")

CONFIGS = {
    "eval_D": ["eval", "--set", "D"],
    "eval_A": ["eval", "--set", "A"],
    "eval_B": ["eval", "--set", "B"],
    "eval_C": ["eval", "--set", "C"],
    "eval_D_retrodiction": ["eval", "--regime", "retrodiction"],
    "eval_D_logistic": ["eval", "--model", "logistic"],
    "rank": ["rank"],
    "set_c": ["set-c"],
    "gains": ["gains"],
    "compare_selectors": ["compare-selectors"],
    "case_study": ["case-study"],
}


@pytest.fixture(scope="module")
def cases_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests") / "cases.csv"
    path.write_text(dump_cases(make_cases(400, seed=1, missing_p90_every=20)),
                    encoding="utf-8")
    return path


def _digest(argv, out, capsys):
    code = main(argv + ["--trees", "4", "--out", str(out)])
    stdout = capsys.readouterr().out.splitlines(keepends=True)
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update("".join(l for l in stdout
                     if not l.startswith("wrote ")).encode("utf-8"))
    for path in sorted(out.iterdir()) if out.exists() else ():
        h.update(path.name.encode("utf-8") + b"\n")
        h.update(b"".join(l for l in path.read_bytes().splitlines(True)
                          if not l.startswith(b"#")))
    return h.hexdigest()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reports_match_committed_digests(jobs, cases_csv, tmp_path, capsys):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    computed = {"cases_csv": hashlib.sha256(cases_csv.read_bytes())
                .hexdigest()}
    # Data that differ on this platform fail here, before any report does.
    assert computed["cases_csv"] == table["cases_csv"], \
        "the synthetic CSV differs from the one the table was written for"
    computed["reports"] = {
        name: _digest(argv + ["--data", str(cases_csv), "--jobs", jobs],
                      tmp_path / name, capsys)
        for name, argv in CONFIGS.items()}
    assert computed == table, \
        f"--jobs {jobs} digests:\n{json.dumps(computed, indent=2)}"
