"""Behaviour gate: --zero-timings CSVs must match the checked-in files byte for byte.

Each file under tests/data/ is the output of
``privtri run --graph <clique_hub_proxy edge list> ARGS --zero-timings``
for the ARGS listed here. The CSV carries reconstructed counts and noise
but never shares, so a refactor of the protocol, the dealer layout or the
harness must leave every byte in place.
"""

from pathlib import Path

import pytest

from privtri.cli import main

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = {
    "cargo_and.csv": ["--mechanism", "cargo", "--n", "60", "--epsilon", "1",
                      "--trials", "4", "--seed", "5"],
    "central.csv": ["--mechanism", "central", "--n", "60", "--epsilon", "1",
                    "--trials", "4", "--seed", "5"],
    "exact.csv": ["--mechanism", "exact", "--n", "60", "--trials", "2"],
    "project_compare.csv": ["--mechanism", "project-compare", "--n", "100",
                            "--theta", "5,20,99", "--trials", "3", "--seed", "5"],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_zero_timings_csv_matches_golden(name, proxy_graph_file, tmp_path):
    out = tmp_path / name
    argv = ["run", "--graph", str(proxy_graph_file), *GOLDEN[name],
            "--zero-timings", "--output", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
