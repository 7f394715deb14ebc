"""Pinned output digests: Latinization and the CLI's CSV bytes at fixed seeds.

A ``latinize`` digest is the sha256 of the output points followed by the
caller's next ``random()`` draw, so a shifted RNG stream is caught as well as
a changed value.  A CLI digest is the sha256 of the ``--out`` file.  A digest
may change only in a change that says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from spacefill import cli
from spacefill.adapt import CurveRegionSpec, curve_region_sample
from spacefill.core import Domain, RngState, SampleSet
from spacefill.samplers import latinize


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _box(d: int, unit: bool) -> Domain:
    if unit:
        return Domain.unit(d)
    k = np.arange(d)
    return Domain(-1.5 - 0.25 * k, 2.0 + 0.75 * k)


def _latinize_case(name: str) -> SampleSet:
    """Case names are ``<kind>-<unit|box>-<n>x<d>``; kind is ``plain``,
    ``corner`` (one point at the upper corner) or ``dup`` (every row
    repeated, 50 distinct)."""
    kind, box, shape = name.split("-")
    n, d = (int(v) for v in shape.split("x"))
    dom = _box(d, box == "unit")
    u = np.random.default_rng(1000 * n + d).random((n, d))
    if kind == "corner":
        u[n // 2] = 1.0
    elif kind == "dup":
        u = u[np.arange(n) % 50]
    return SampleSet(dom, np.minimum(dom.from_unit(u), dom.upper))


def latinize_digest(name: str) -> str:
    sample_set = _latinize_case(name)
    rng = RngState(7 + sum(sample_set.points.shape))
    out = latinize(sample_set, rng)
    return _sha(out.points.tobytes() + np.float64(rng.random()).tobytes())


def _write_csv(path, points) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(f"x{j}" for j in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _cli_inputs(tmp) -> dict:
    rs = np.random.default_rng(2024)
    files = {"design": tmp / "design.csv", "records": tmp / "records.csv",
             "anchors": tmp / "anchors.csv"}
    _write_csv(files["design"], rs.random((300, 3)))
    blobs = 0.2 + 0.6 * rs.random((6, 3))
    records = blobs[rs.integers(6, size=3000)] + 0.05 * rs.standard_normal((3000, 3))
    _write_csv(files["records"], np.clip(records, 0.0, 1.0))
    s = np.linspace(0.05, 0.95, 30)
    _write_csv(files["anchors"], np.column_stack([s, 0.5 + 0.3 * np.sin(6.0 * s)]))
    return {k: str(v) for k, v in files.items()}


CLI_CASES = {
    "generate-latinize": lambda f: ["generate", "--algo", "random", "--dim", "4", "--n", "500",
                                    "--latinize", "--seed", "5"],
    "generate-latinize-box": lambda f: ["generate", "--algo", "random", "--dim", "3", "--n", "200",
                                        "--lower=-1,0,2", "--upper=1,0.5,3", "--latinize",
                                        "--seed", "6"],
    "latinize": lambda f: ["latinize", "--in", f["design"], "--seed", "9"],
    "subset": lambda f: ["subset", "--in", f["records"], "--n", "60", "--segment", "400",
                         "--seed", "11"],
    "subset-total": lambda f: ["subset", "--in", f["records"], "--n", "25", "--segment", "700",
                               "--total", "3000", "--seed", "12"],
    "append-region": lambda f: ["append-region", "--anchors", f["anchors"], "--n", "50",
                                "--cands-per-anchor", "10", "--seed", "13"],
    "append-region-anchors": lambda f: ["append-region", "--anchors", f["anchors"], "--n", "40",
                                        "--cands-per-anchor", "8", "--halfwidth", "0.05",
                                        "--include-anchors", "--seed", "14"],
}


def cli_digest(name: str, tmp) -> str:
    out = tmp / f"{name}.out.csv"
    assert cli.main(CLI_CASES[name](_cli_inputs(tmp)) + ["--out", str(out)]) == 0
    return _sha(out.read_bytes())


LATINIZE_DIGESTS = {
    "corner-box-2x10": "40efcf08b753630f71354cb0df6c6065a637520230a993a2a70c64b814047ba7",
    "corner-box-500x4": "279d32ccbac1de9ec2ab4e1eaa4e61388b039e966f755a21f4d7200ce8758111",
    "corner-unit-500x4": "b53241250d81a96051d456bc1747268d0e1ddfb099879ab355f127053b32cdba",
    "dup-box-500x4": "601baffb4a0fc94f920d55ef1bccbd4934a3018be1dfacec50d9f4aee2edaa26",
    "dup-unit-500x4": "e0ff97e408fd8a692d7776085891c45971b4e0c710e34a57b1df375699d3a9f2",
    "plain-box-1x1": "31f972b0894bf47091a69ffb08ce36c7ccb79379b863234ff1f7977f6aab4fd3",
    "plain-box-1x10": "a4565c8f39aa655aa18a33687efa606cdd1fd5a2471137718886082373f17d99",
    "plain-box-1x4": "1ae05d9695fdd7d05d607a2cd404bb9da0eb9acf5ae0efc432c825ab26684bdb",
    "plain-box-2x1": "c53c58119a22c25d1fd900a34736b7d730c61a97866f9431ec21d4b8fce3e0da",
    "plain-box-2x10": "f94538b3d6cf27cc2e0bdb79695fb4b466cf0c7b7f6db1e48a624898bcf2b005",
    "plain-box-2x4": "6987c2739ab9f7ca54a5f9b009b1873511977e14b1baa6e4f10615bb63913009",
    "plain-box-500x1": "9aae8cd398dc036bdce463123a00426f039e39f430f4090f95a8d487f0e604bf",
    "plain-box-500x10": "fe80054f561d67d90c1a190baee7bc1917194f67e3945485354629066dcf0328",
    "plain-box-500x4": "98f72c8eee2f767875c7770862144dc354d5c1ce6ac547fb888054e82a076f49",
    "plain-unit-1x1": "5ab6f1b7aaab122e9a9f8a037313e6c629c3b8e337805f01e616ff3eca84e55f",
    "plain-unit-1x10": "73a94d91033e5fb5ebb0c1c462ff13371bcc746cedc235c568ecf5056441a238",
    "plain-unit-1x4": "417984d78cda970451b943f89bcb43ce6a17617f1ac8e5b25a15d8f1f6f0373e",
    "plain-unit-2x1": "310b5cbf8c45269074c3d286cb634d18064a93246d4ffe5f8aa512330115fbf1",
    "plain-unit-2x10": "f5553a22d11aeab6eb05568e9066b60e1c9972da75e28b12e5f91d6999c44558",
    "plain-unit-2x4": "9140a5b9877e3e388971246b0dacc42dbf0f057091dde6f7ed770926f0448ee7",
    "plain-unit-500x1": "9fca1d52d990a4ba8ae0480882c8a28f5631c6d778c297e690114a4f6965f899",
    "plain-unit-500x10": "61fac3d45d33347e86b918f4b641deb3738b9c9c79fcdc21d5423b11837d915f",
    "plain-unit-500x4": "b5b97cd2b4997661d91908925c346bf3f24579348f3d8a7b8bc9978924252ac4",
}

CLI_DIGESTS = {
    "append-region": "eb54aafeb9174167183383e2a650fcd96d66bf61ac06a3f9707b5f5f1b7146be",
    "append-region-anchors": "bcb485700cc341d1de18db78dc8a86d4912993625eca56213db95ab857684856",
    "generate-latinize": "7708b1d894115fd5490087773616f804b44d14b69d5539785c35f005827973db",
    "generate-latinize-box": "35a40f05fd1dfd5bab254b69044fc5b93236e6161ea3edf2f0f20f778aa4a546",
    "latinize": "f921be0954911e66718042af45da796f8689d7b74d3facf8c3e97510189dfe62",
    "subset": "537474accb518599640085a5028cd97f607218e9e7c4fc825a8708bbf5dcbaa0",
    "subset-total": "e3f0fce7e10da1955cb85d738427106f66086da0985ee6e50f6e1bbd78f6a984",
}


def test_curve_region_viable_digest():
    """The rejection-drawn candidate path, which the CLI cannot reach."""
    dom = Domain([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0], viability=lambda p: p[0] + 2 * p[1] > -0.7)
    s = np.linspace(-0.9, 0.9, 25)
    anchors = SampleSet(dom, np.column_stack([s, 0.25 + 0.2 * np.sin(3 * s), 2.5 + 0.3 * np.cos(s)]))
    h = hashlib.sha256()
    for include_anchors in (False, True):
        region = CurveRegionSpec(anchors, 0.05, 7, include_anchors)
        for seed in range(5):
            h.update(curve_region_sample(region, 60, RngState(seed)).points.tobytes())
    assert h.hexdigest() == "cfad7021e17d4696f0971602904c2c932e71938ced70c82c05c66e8b07aa34f1"


@pytest.mark.parametrize("name", sorted(LATINIZE_DIGESTS))
def test_latinize_digest(name):
    assert latinize_digest(name) == LATINIZE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_digest(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SPACEFILL_SEED", raising=False)
    assert cli_digest(name, tmp_path) == CLI_DIGESTS[name]
