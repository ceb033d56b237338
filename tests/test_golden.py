"""Golden SHA-256 digests of the CLI's output bytes for small configs.

Every refactor must leave these bytes unchanged. Each config runs in its
own empty directory with a relative --out, so the digests do not depend on
where the test runs. Stdout is pinned too; stderr carries only timings.
"""

import hashlib

import pytest

from eil.cli import main

CONFIGS = {
    "incidence-q7-t3-seed42-json": [
        ["construct", "incidence", "--q", "7", "--t", "3", "--seed", "42", "--out", "out"],
    ],
    "incidence-q11-t4-csv": [
        ["construct", "incidence", "--q", "11", "--t", "4", "--out", "out",
         "--format", "csv"],
    ],
    "montecarlo-q5-t3-seed7": [
        ["montecarlo", "--q", "5", "--t", "3", "--seed", "7", "--trials", "150",
         "--out", "out"],
    ],
    "sweep-q5-7-t3": [
        ["sweep", "--q", "5,7", "--t", "3", "--trials", "100", "--out", "out"],
    ],
    # t = q: one trial restricts to the zero polynomial on the reference
    # line, while 9 have all 3 of its points in X0
    "montecarlo-q3-t3-seed7": [
        ["montecarlo", "--q", "3", "--t", "3", "--seed", "7", "--trials", "300",
         "--out", "out"],
    ],
    "furedi-q13-t4-and-verify": [
        ["construct", "furedi", "--q", "13", "--t", "4", "--out", "out"],
        ["verify", "out/furedi-q13-t4.graph.txt", "--s", "2", "--m", "5"],
    ],
}

# computed before the array line table replaced the object-per-line one
GOLDEN = {
    "furedi-q13-t4-and-verify": {
        "stdout0": "3fd97fcce2f9aa19535ca1c04e6b828471e2b619de55c76e4ed0e5b05fac5d07",
        "stdout1": "a4c161aa00f35bfb448d4d2fd5b9d9f45a8d37f050578201cb4c6ea1b6ee90df",
        "furedi-q13-t4.classes.txt": "38f56ba045d0ead8b8d4bbb2ba901e79b7385f917624002d466a190cc6558fa2",
        "furedi-q13-t4.graph.txt": "9a4489aec6e67631a429afddce25c65e98f8cfd5c9653e7d09f21adf248167a9",
        "furedi-q13-t4.report.json": "25765a2117dd1db779acbe2f0ce54fe2c95a51d8681d6d8b5c124e10a798ee60",
    },
    "incidence-q11-t4-csv": {
        "stdout0": "4012e6f911f389343b873052a30b4a2119de988f3560934fc94e497970571498",
        "incidence-q11-t4-seed1.graph.txt": "1f6820397c4e4cea1f092438f8c29ae81110800d9d4a50c3d56fb96adf4504dd",
        "incidence-q11-t4-seed1.report.csv": "46048553ea1e545215e894448c81fce0a9ac7c66d382449a89dbb5d3f3030eac",
        "incidence-q11-t4-seed1.x.txt": "1bee21171f9b21dbe337fefbe1b885cce9e08734ab23311ba6caab017406e249",
        "incidence-q11-t4-seed1.y.txt": "99b0a171e198e26b6a646881cb1ba0a1625197943135acf453a7d350875febad",
    },
    "incidence-q7-t3-seed42-json": {
        "stdout0": "40b094dc5b3ea6ba3d8ed89b62d1ebb65fe8171c3f787df2ad9835d849c371b4",
        "incidence-q7-t3-seed42.graph.txt": "73d39f67f5281137a64c0ed328c90beb93c5689f21178b7812787ed0f8d7118b",
        "incidence-q7-t3-seed42.report.json": "a52fa21e93cea4e9a7307da3a94e3b6dffd92279f53487d33d9f4720ddcddbfe",
        "incidence-q7-t3-seed42.x.txt": "dd027c627a0219dc13901c259617f3e5b2bd9ff97f69aecb1c0bf6e564bc8e6c",
        "incidence-q7-t3-seed42.y.txt": "eb8ef74496039352ddacab1613caebfbbe4d83953cac8ed0634a2bca06abc22e",
    },
    "montecarlo-q5-t3-seed7": {
        "stdout0": "888fb988847d9446fbf4f5f2f5e41a9d7cec13b0fbb805ad33e23e9a3d9a5466",
        "montecarlo-q5-t3-seed7-trials150.report.json": "c52c9a77fa7412a647bca578d036fa5502a13cbbb7692a72594f21c67efae39a",
    },
    "sweep-q5-7-t3": {
        "stdout0": "f1c071e1c128af147e7eb59473bfe00be9fe163894b77dbc65952d8fc51f2e8a",
        "sweep-q5-7-t3-seed1-trials100.report.json": "139706028c7b99bd2fa56988a263b90a7dd590937e8b73963a8a3c8665ba6cb9",
    },
}

# pinned again when p_exact_t at t = q became q^-q: of the bytes pinned
# before, only p_exact_t, exact_t_se and the exact_t_rate_z target and z changed
GOLDEN["montecarlo-q3-t3-seed7"] = {
    "stdout0": "f23f6652b1683059e79c85372b0310430407f3403c923b7c7b8660627afc8071",
    "montecarlo-q3-t3-seed7-trials300.report.json": "6cd5fdbcec7310446860f7657d15662b9abd390972c4440952ee60c6998e5930",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(argvs, capsysbinary) -> dict[str, str]:
    """Digest of each command's stdout and of every file written under out/."""
    digests = {}
    for i, argv in enumerate(argvs):
        assert main(argv) == 0, argv
        digests[f"stdout{i}"] = sha256(capsysbinary.readouterr().out)
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    digests = run_config(CONFIGS[name], capsysbinary)
    for path in sorted((tmp_path / "out").iterdir()):
        digests[path.name] = sha256(path.read_bytes())
    assert digests == GOLDEN[name]
