"""Pinned output digests: Latinization, generation on plain, non-unit,
viability and density domains (with and without an existing prefix), domain
expansion, density rejection draws, the viability calls they make, maximin
LHS with a few hundred interchanges, the CLI's CSV bytes at fixed seeds, and
the quality metrics of fixed sets.

A ``latinize`` digest is the sha256 of the output points followed by the
caller's next ``random()`` draw, so a shifted RNG stream is caught as well as
a changed value.  A ``generate``, ``expand_domain`` or
``rejection_sample_density`` digest adds the next ``integers(1000)`` draw
before that ``random()``.  A viability-call digest covers every point the
predicate receives, in order.  A CLI digest is the sha256 of the ``--out``
file.  A quality digest is the sha256 of a ``quality_report``'s nn min,
mean and max, phi_p and CL2 as float64.  A digest may change only in a
change that says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from spacefill import cli, presets
from spacefill.adapt import (
    CurveRegionSpec,
    curve_region_sample,
    expand_domain,
    rejection_sample_density,
)
from spacefill.core import Domain, RngState, SampleSet
from spacefill.metrics import quality_report
from spacefill.samplers import generate, latinize


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


# ---------------------------------------------------------------------------
# Viability-filtered generation and domain expansion
# ---------------------------------------------------------------------------

VIABILITIES = {
    "parabola": presets.viability_by_name("parabola-above"),
    "lambda": lambda p: abs(p[0] - p[-1]) < 0.4 + 0.1 * p[0],
}

GENERATE_PARAMS = {
    "random": None,
    "greedyfp": {"scale": 5},
    "bc": {"ncand": 60},
    "hybrid": {"scale": 4, "refresh": 15},
    "cvt": {"niter": 3, "ppi": 300},
}
POISSON_RADIUS = {2: 0.12, 4: 0.3}


class RecordingViability:
    """Wraps a predicate and hashes every point it receives, in call order."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.hash = hashlib.sha256()

    def __call__(self, p):
        self.calls += 1
        self.hash.update(np.asarray(p, dtype=float).tobytes())
        return self.fn(p)


def _stream_tail(rng: RngState) -> bytes:
    return np.int64(rng.integers(1000)).tobytes() + np.float64(rng.random()).tobytes()


def _generate(name: str, viability):
    """Case names are ``<algo>-<parabola|lambda>-<d>d``."""
    algo, _, dim = name.split("-")
    d = int(dim[:-1])
    rng = RngState(31 + d)
    dom = Domain.unit(d, viability=viability)
    if algo == "poisson":
        out = generate(algo, dom, None, rng, {"r": POISSON_RADIUS[d]})
    else:
        out = generate(algo, dom, 40, rng, GENERATE_PARAMS[algo])
    return out, rng


def _expand(name: str, viability):
    """Case names are ``<algo>-<plain|viable>-<d>d``; the existing set is 30
    points in the unit box, expanded into [-0.25, 1.5]^d."""
    algo, _, dim = name.split("-")
    d = int(dim[:-1])
    u = np.random.default_rng(77 + d).random((30, d))
    existing = SampleSet(Domain.unit(d), u, frozen_count=30)
    wider = Domain(np.full(d, -0.25), np.full(d, 1.5), viability=viability)
    rng = RngState(41 + d)
    params = None if algo == "random" else GENERATE_PARAMS[algo]
    return expand_domain(existing, wider, 25, algo, params, rng), rng


def _expand_viability(p):
    return p[0] + p[1] < 2.2


def generate_digest(name: str) -> str:
    out, rng = _generate(name, VIABILITIES[name.split("-")[1]])
    return _sha(out.points.tobytes() + _stream_tail(rng))


def expand_digest(name: str) -> str:
    viability = _expand_viability if name.split("-")[1] == "viable" else None
    out, rng = _expand(name, viability)
    return _sha(out.points.tobytes() + _stream_tail(rng))


def viability_calls_digest(name: str) -> str:
    """``generate:<case>``, ``expand:<case>`` or ``curve``: the points the
    predicate receives, then the call count."""
    kind, _, case = name.partition(":")
    if kind == "generate":
        record = RecordingViability(VIABILITIES[case.split("-")[1]])
        _generate(case, record)
    elif kind == "expand":
        record = RecordingViability(_expand_viability)
        _expand(case, record)
    else:
        record = RecordingViability(VIABILITIES["parabola"])
        s = np.linspace(0.1, 0.9, 12)
        dom = Domain.unit(2, viability=record)
        anchors = SampleSet(dom, np.column_stack([s, 0.2 + 3.0 * (s - 0.5) ** 2]))
        curve_region_sample(CurveRegionSpec(anchors, 0.05, 9), 40, RngState(5))
    record.hash.update(np.int64(record.calls).tobytes())
    return record.hash.hexdigest()


GENERATE_DIGESTS = {
    "bc-lambda-2d": "d67698df4c07bb67714307986c18c763906fa474fe6fef1b255b36a98120abc5",
    "bc-lambda-4d": "96d0df7ac13a27b11ff89ec2ade42ea907e5139b5ea123c9830b21ebc0a38e7b",
    "bc-parabola-2d": "a6ec1abde912cda5bb9ff43f8aae40608950a4afcf4436df67c6e793b0073db3",
    "bc-parabola-4d": "658b41ba8d9fbefc8fb915bf784122b286aa78432df18bbd322284b06d21478e",
    "cvt-lambda-2d": "34108eaf7b5af7bc3957dec477449197b1a8265200c9aa7ceaa655a2775aca87",
    "cvt-lambda-4d": "d4d4f1e1add07da6f342143ec7ec38a0147ab332ec2612daeb00106110a4a77f",
    "cvt-parabola-2d": "8898bf0ef82ad6f1f769f65827eb2a54baff67512ff8e7d13b29b77964d730f6",
    "cvt-parabola-4d": "56ca24ea8c2073719dea1b0fa9481d85fb2176c79cedff9d7263533643ea3b2e",
    "greedyfp-lambda-2d": "f28368412bbc163bd97ae652ba88ca2a76b51924631dc8af224a7d691d86bc74",
    "greedyfp-lambda-4d": "f886f48121ffcf99af09fc27271ff1e4bcc733b53fdea834f58bbfc9f3775354",
    "greedyfp-parabola-2d": "2925afda0514d09d82fe6b5eff1e09a9d0b1779164934d19c1ed5e49ae031423",
    "greedyfp-parabola-4d": "4585e04b361b4cfbc3aa719829a535487d4a73b69c172334fe9aa7807d9f2acd",
    "hybrid-lambda-2d": "cb154467b8bc72806b41712953e3b6b4e20516ccec409135eb24108acd41b1c3",
    "hybrid-lambda-4d": "6523e803bc6376fbf3484fcd95a44dd9b83aea44c5a866ec3ea3817e2fcee73d",
    "hybrid-parabola-2d": "576651699bb710ac990a7a8af71edd58f7d2ac3ffd0e3160224d2185ea3a8b0d",
    "hybrid-parabola-4d": "5601868e500297d1eb40f8ff0329bc35ce415f2360eee95ca6f89194b439b21e",
    "poisson-lambda-2d": "60259208a2ceb2c27af751f3eda3eeb10159c0473b5c077ce59fd4f98d8d2894",
    "poisson-lambda-4d": "aafb2bd93dc4a1fa58b80eeb81351397d637ec200c42e5b1f21083e952ced053",
    "poisson-parabola-2d": "185a39f6bf5a8e829292c0b954e6cb2b1800ed6c0a42d8ef8fd0dd2e9a20274f",
    "poisson-parabola-4d": "d2631ecf8d0c5d61d75eb027bc7e96a235396d88d7aee72835cc6329e07a5de2",
    "random-lambda-2d": "8b95d2373b46c0da0606d69f135640e51e7f66161533f33eed081972ce783376",
    "random-lambda-4d": "41c29adc5dc72db86c6bd01e6e88eaf675c856551d165a65730a3c7b65cc0ed0",
    "random-parabola-2d": "106120578730cd0f163071470c180ad9ced3d22ce47308c8065c99f7b6befcd8",
    "random-parabola-4d": "a59abc96ad09494430a71b0a0d266309ae8ab92f855ee8dd527e766fd8960382",
}

EXPAND_DIGESTS = {
    "bc-plain-2d": "cf37083ce819635b7f5b2628951a0f28cdc7499f9f4a19b59cb9de60dc01ac68",
    "bc-plain-4d": "b64e89d2cbf8027fb08d4f3d18c9931a8adadcd2dc8c74c093ec4ba8669bc0fc",
    "bc-viable-2d": "48b8c008a7f5272ddbe41e9c086ee701c633940d310c69cd94c1f34c1f3e8b98",
    "bc-viable-4d": "7a4af26264347fde1a6b66a87a4abf10d14c90e556b933a9d898ba03868c7752",
    "greedyfp-plain-2d": "f1df87a5b40c24b4c7ee60fa8e83cf52a1cdb1442dabf7b8073ffa0acfb5548c",
    "greedyfp-plain-4d": "2b6e3490d791f08a867e0278434dc84c6a8e943121eae121f122f6e099b17626",
    "greedyfp-viable-2d": "65faa40618b8535527818ecc3e1b51a0aed29dcf699c853c1027b751d096999d",
    "greedyfp-viable-4d": "c53400bc91fa89093fb95bb4f4e605a05c3be678f8fc17a2a3d3a220540e1925",
    "hybrid-plain-2d": "d928041e67c4335788cf64c9bf564fe6ddc39ebc24f41eeead8d14b2454ae3e3",
    "hybrid-plain-4d": "ee3574fa27cc3760bf7f9ec91647864c26c4b2b50a18c7a78a67378414b1d70c",
    "hybrid-viable-2d": "40161cfd9fd78ed8d3bfa4a1be92687e80bd66bafd57f203ab1c4d71a550881d",
    "hybrid-viable-4d": "a39e24fb4feb8e5560e0c937b122818941d7f334f336e85e9bd99fdb911c2a63",
    "random-plain-2d": "ace99be97f39cbaf68bd242d85c79ae5d6aa8cdde56c506599f6b2bd4a94d058",
    "random-plain-4d": "403fbe4b927c5e19d49ca32e95ec85d2b3b1a86d415426dc5a7f38713162fc3a",
    "random-viable-2d": "03095a92c25401faa87f18ab6be70b8b4f47388185fbdb0220365ae2f388e6ab",
    "random-viable-4d": "4d786a21709f10b200e06ceb61a89c3fa5689006f9e880fc5336b8537ee4c2c4",
}

VIABILITY_CALL_DIGESTS = {
    "curve": "9a76bb3b456c399e549be31d173f6d80b65706919de1614b6be2f105ade8b699",
    "expand:bc-viable-2d": "3556d77d9b5d72d06869755b0f101ce103fcff402d1188eff5df7410176c1c40",
    "expand:bc-viable-4d": "818dc204fbe39c07cf2940d50efa3a72ea99e8614e72851701d1eb845e229046",
    "expand:greedyfp-viable-2d": "fc65d5b613cf7162041f60d70cb6a651816c63a22a8bb5edd154e89f3b9c644f",
    "expand:greedyfp-viable-4d": "a8bce380f1a0e85d8b1028c60520df3c79622dd02fab8e4f6a7a06dc3c871cf2",
    "expand:hybrid-viable-2d": "541511adb110628665ecfb655cde0814de97acbd2682899fc6ff0766eec5adf7",
    "expand:hybrid-viable-4d": "d6d7ad66e9cfe6a34184aaf6bf0f4ccb9813462682c798dce87e405d5775eb7d",
    "expand:random-viable-2d": "2cecfb0f4dd7c6f3ce5ed3343c64f6007580cff15d4505cbb11095fa669d7be4",
    "expand:random-viable-4d": "e5d98ecd180b0b6be6167ec2b5c21a7742d50f7667ff52f6089b649b2628618b",
    "generate:bc-lambda-2d": "d3d3a8d0f61bca4c6c4e10e95615a7c72429dd9c2b00c60b3f0419322d67c659",
    "generate:bc-lambda-4d": "db01d33fb0ddeddfb39072330441889cf809cf8fe54a4a66b011c5dac9e6c712",
    "generate:bc-parabola-2d": "c198d19c789a1b83858a2e35f2f027cce9285bc2569e32e18cc8e87ead96e965",
    "generate:bc-parabola-4d": "4ac2fb790c4c187e117a733743cb494c128b03209e028446f807f71da6f59b62",
    "generate:cvt-lambda-2d": "b97ae018029fa657a2904634a3361a817e9a35a3a6b78937d1a0f60b10ca9bdb",
    "generate:cvt-lambda-4d": "9c8b8183ef34c64bd4ee1aad0bdc88c3373344e0ca0a996142e912ced0f33540",
    "generate:cvt-parabola-2d": "ce33de45a56563d4a8f0ca83ad9a093770efa9729479082a53fb5259468879ca",
    "generate:cvt-parabola-4d": "2b06d76f18b2a0f0506080d0544e759bedcde79d742318fb9db84887e902986e",
    "generate:greedyfp-lambda-2d": "2c702e5e17fecc61fbd493dcf175f8d1ea2770e2764a97e8d26c6f2c2a450ccb",
    "generate:greedyfp-lambda-4d": "f213b11bf498244731ce3a664cfef98b977072f67f6bf5c6c653a987657f297c",
    "generate:greedyfp-parabola-2d": "59e20a23011f3cbdecfb2e9d94aded023c02d74f7fdcf8899b71f332eb0f9ecc",
    "generate:greedyfp-parabola-4d": "158cd1188ccb0226579fd81908553fff2f50385b606f811be47a0ec7e30f00cb",
    "generate:hybrid-lambda-2d": "46b7393ee24f59f511e8db904d8b71623a4075ea9e6ad0b06fa4a2a9ad6d9482",
    "generate:hybrid-lambda-4d": "601d905ecd928741a40d3869a101572a3a9a3a0c9b0f66492fc9b461018dd6d8",
    "generate:hybrid-parabola-2d": "f3dbb0d947e59fb38ef673e44ea6cc5644bb8389eddc60cd443846f3207503ef",
    "generate:hybrid-parabola-4d": "fd898a6612ce53e3841d927514bc720b2eed152fa345ee4f34061a8b5efc93a2",
    "generate:poisson-lambda-2d": "13188b17c0a8c61c88207e92ef5ed06e4ba26387ecb7e07890fc52ed4d386a6d",
    "generate:poisson-lambda-4d": "9cbfef8934fb8c4956cb290b36ef0826f13797b39397443d26d525d360d58109",
    "generate:poisson-parabola-2d": "fb5e4575697349b0b2c3b422b031ca141081baee20185e3cde537699c262cd02",
    "generate:poisson-parabola-4d": "1fd6a43130745119df12ac29164c375c57f6cc6946e99bf73f01047f7ee756d3",
    "generate:random-lambda-2d": "33c1b83d46ad9c68040abbb1dbc1232443566266492ab7f7da3e80212baaceb8",
    "generate:random-lambda-4d": "5ae08813e4e3014dc9440c78c2dcda67f897ea4a68c9396e020727e6b50186c4",
    "generate:random-parabola-2d": "b18256bf1a79b7ef1eeca277388247dda11f4562c348d9b99ba4cd58ba58fd12",
    "generate:random-parabola-4d": "05d75ff931977312ce262e474048907e65dfb6f43a2073f70fb7de64eeaad5ff",
}


@pytest.mark.parametrize("name", sorted(GENERATE_DIGESTS))
def test_generate_viability_digest(name):
    assert generate_digest(name) == GENERATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXPAND_DIGESTS))
def test_expand_domain_digest(name):
    assert expand_digest(name) == EXPAND_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(VIABILITY_CALL_DIGESTS))
def test_viability_call_digest(name):
    """Same predicate calls, on the same points, in the same order."""
    assert viability_calls_digest(name) == VIABILITY_CALL_DIGESTS[name]


# ---------------------------------------------------------------------------
# Plain, non-unit and density domains, existing prefixes, density draws
# ---------------------------------------------------------------------------

GAUSS, GAUSS_MAX = presets.density_by_name("gauss-center")

PLAIN_PARAMS = dict(GENERATE_PARAMS, **{
    "lhs-maximin": {"ntries": 2, "ninterchanges": 30},
    "lhs-basic": None,
})
STRATIFIED_BINS = {2: 6, 4: 3}


def _domain(kind: str, d: int) -> Domain:
    """``unit``, ``box`` (non-unit bounds) or ``density`` (the unit cube
    weighted by the gauss-center preset)."""
    if kind == "density":
        return Domain.unit(d, density=GAUSS, density_max=GAUSS_MAX)
    return _box(d, kind == "unit")


def plain_generate_digest(name: str) -> str:
    """Case names are ``<algo>-<unit|box|density>-<d>d``."""
    algo, kind, dim = name.rsplit("-", 2)
    d = int(dim[:-1])
    rng = RngState(51 + d)
    dom = _domain(kind, d)
    if algo == "poisson":
        out = generate(algo, dom, None, rng, {"r": POISSON_RADIUS[d]})
    elif algo == "stratified":
        out = generate(algo, dom, None, rng, {"bins": STRATIFIED_BINS[d]})
    else:
        out = generate(algo, dom, 40, rng, PLAIN_PARAMS[algo])
    return _sha(out.points.tobytes() + _stream_tail(rng))


def existing_generate_digest(name: str) -> str:
    """Case names are ``<algo>-<unit|box|density>-<d>d``: 25 points added
    to a 30-point existing prefix."""
    algo, kind, dim = name.rsplit("-", 2)
    d = int(dim[:-1])
    dom = _domain(kind, d)
    u = np.random.default_rng(88 + d).random((30, d))
    existing = SampleSet(dom, dom.from_unit(u), frozen_count=30)
    rng = RngState(61 + d)
    out = generate(algo, dom, 25, rng, PLAIN_PARAMS[algo], existing=existing)
    return _sha(out.points.tobytes() + _stream_tail(rng))


def density_expand_digest(name: str) -> str:
    """Case names are ``<algo>-<full|empty>-<d>d``: 25 points added to 30
    unit-box points (or to none) in [-0.25, 1.5]^d weighted by gauss-center."""
    algo, prefix, dim = name.split("-")
    d = int(dim[:-1])
    u = np.random.default_rng(77 + d).random((30 if prefix == "full" else 0, d))
    existing = SampleSet(Domain.unit(d), u, frozen_count=len(u))
    wider = Domain(np.full(d, -0.25), np.full(d, 1.5), density=GAUSS, density_max=GAUSS_MAX)
    rng = RngState(71 + d)
    params = None if algo == "random" else GENERATE_PARAMS[algo]
    out = expand_domain(existing, wider, 25, algo, params, rng)
    return _sha(out.points.tobytes() + _stream_tail(rng))


def rejection_density_digest(name: str) -> str:
    """Case names are ``<unit|box>-<d>d``; the box is a little wider than
    the unit cube, so that the acceptance rate stays practical in 4D."""
    kind, dim = name.split("-")
    d = int(dim[:-1])
    if kind == "unit":
        lower, upper = np.zeros(d), np.ones(d)
    else:
        k = np.arange(d)
        lower, upper = -0.25 - 0.05 * k, 1.2 + 0.1 * k
    dom = Domain(lower, upper, density=GAUSS, density_max=GAUSS_MAX)
    rng = RngState(81 + d)
    out = rejection_sample_density(dom, 50, rng)
    return _sha(out.points.tobytes() + _stream_tail(rng))


PLAIN_GENERATE_DIGESTS = {
    "bc-box-2d": "97119811f83ec646698146f34d3b5e65bce1b4efc829b0d39714b62f2ec07e58",
    "bc-box-4d": "d672380b5fd3eef3a9175654a1452dcec9d9e0795e25874ba6a771c4e4d6c009",
    "bc-density-2d": "01dd340f71c97179cd2ba6d06c5ba6893ff4707170533e942a68adfe07da4cc1",
    "bc-density-4d": "442cfdee7275d2623c6e892bde4fb873dc1b594e895995ff1022cadfeeed4f53",
    "bc-unit-2d": "ef70c6caf28915f8f2b5dbc7f639eab851ee3328afdb800213a864dfdf1277ea",
    "bc-unit-4d": "0dbf4fc10f2f47a1478a1d591bfaad48974da79a0d8bd9eb7196f233baa12f1b",
    "cvt-box-2d": "6723b77c9569d25ee6308935b957faad4ee81005faa555a2d07a922fb9005743",
    "cvt-box-4d": "78a669486c48c53ecab0ccc02556c37fe7ebcbc2f0fef3313ffa556c00dc226e",
    "cvt-density-2d": "0c1d9fea7173e060293620e32fbc96124ebdcf381274f66edd0370d2c5844b93",
    "cvt-density-4d": "bc7ce42322fb4db9d7989b652dfb001eca42cdc213c4492d31fb738d9f517e85",
    "cvt-unit-2d": "86d79ff7b2a4da3fb9c73f203c1ddb0b3d3885a7b5366925d2e407e1345f258a",
    "cvt-unit-4d": "22232f3d34aabdb492c2aed8796f577f7ac6a559a5ced35e9e17c09afc4d436e",
    "greedyfp-box-2d": "0024f33e4a70ab662fdd60fc49d4dc8a3a358619ac79ca26275c9c17eb10c08f",
    "greedyfp-box-4d": "910e277e16653607713e4f6340bf750b674579f7e38e87ec1503d54e29d3b41c",
    "greedyfp-density-2d": "27a5d952db6f28acab99f947236d3a3430b3101b5a0e40520c708f1ffc786b2c",
    "greedyfp-density-4d": "2049a28f8caa84177f17d7de8d8ee03436c4565b002e1bb749c121c162136bbd",
    "greedyfp-unit-2d": "872249ee48a2733292f6ca643989956f15352655733770f3b4494dd62e748e7d",
    "greedyfp-unit-4d": "fc3390c88acb609b086fa75ec23075cbd0acbd219f5c44651e9bd636a9eb194f",
    "hybrid-box-2d": "27a3923e0abc5e27de2481fd9f2e8a31082566c0f5327cac9284c5c45e624cad",
    "hybrid-box-4d": "26ab02aabae8da449966c484cb46d95280c165e70ffcd079d4db6a5090d15d93",
    "hybrid-density-2d": "3116f0386bb05f968666665e0998a9d0f777c011a4a37b3d72e27ec2967a66df",
    "hybrid-density-4d": "f8312318a1318718529e81b93a2a46bd91f059f43c47bbc297978ed73d072ab1",
    "hybrid-unit-2d": "084e7a2d69bd285c9ce65fbe0e123f82ae276f46a9b7e422e437acdc6d694bc2",
    "hybrid-unit-4d": "d272b06bcb20459b49a28566d3640afff5956324bac6c673dad6e09a274a7393",
    "lhs-basic-box-2d": "2606909ce8222466573be33e23f03a560e8ebd725afd0605e21cc4c9128e4f56",
    "lhs-basic-box-4d": "18f58e424e488d3448dbe5438579f5817ab6452b8466b7aef2f95b3111ad5aa4",
    "lhs-basic-density-2d": "97bf46ea491ae43590564e6775d7e42f88e1444e1b76c3158cafc2bcc3083f98",
    "lhs-basic-density-4d": "af226605e96507bed1dba0c931042df80932b527e41462ef17ed8a2cd7caf652",
    "lhs-basic-unit-2d": "97bf46ea491ae43590564e6775d7e42f88e1444e1b76c3158cafc2bcc3083f98",
    "lhs-basic-unit-4d": "af226605e96507bed1dba0c931042df80932b527e41462ef17ed8a2cd7caf652",
    "lhs-maximin-box-2d": "a000f93360eaafac6ca8acec84b2c539709f2218eb94cba98188e1e55ec8d9a8",
    "lhs-maximin-box-4d": "f4b1ea62d79117693bb1fe811d01f5df262e4ae79bfd87fd95c3aa10e9790b8e",
    "lhs-maximin-density-2d": "c34c6c367dc84273f51f57aa1e507e1753fdf31de727193478dfc0491652f4b3",
    "lhs-maximin-density-4d": "2c3d6510aea4d422b8629704ebfb79da839839e033f7166575864827d58a40cd",
    "lhs-maximin-unit-2d": "c34c6c367dc84273f51f57aa1e507e1753fdf31de727193478dfc0491652f4b3",
    "lhs-maximin-unit-4d": "2c3d6510aea4d422b8629704ebfb79da839839e033f7166575864827d58a40cd",
    "poisson-box-2d": "1902146fad08f3aef3480f2eaa206f9b70641a6f0a7c84cc89621e0a27e41044",
    "poisson-box-4d": "0d712540636fcf6b8d8b8c286c32b3c4ae909104d1ca602943546bc04daa8927",
    "poisson-unit-2d": "f26d671983e91bd4b751165423700a2c85f151ab01d18253cd2f1ee2b89a269f",
    "poisson-unit-4d": "6be4e3f44697b382edbd94cb4ae553fe45514e0e24676224374922ae2fcc3fcf",
    "random-box-2d": "f8ef54b4e41cef6f63ca791a72c9587a2fd6c5d6b7964d1f4915f64d32838070",
    "random-box-4d": "023937836b17d2805b275fc3bdb80d82d9f7047cc4c474e88c944096f2ea214b",
    "random-density-2d": "6d511764653b8df1e9b04ed5e710376f34e19e7022608cb29e6e8ef3656ad834",
    "random-density-4d": "88a6c68e2a06bb6bf2e62495ccc82a6b6a50ce4fa7a5a6f1f28fcd7fb24d8833",
    "random-unit-2d": "6d511764653b8df1e9b04ed5e710376f34e19e7022608cb29e6e8ef3656ad834",
    "random-unit-4d": "88a6c68e2a06bb6bf2e62495ccc82a6b6a50ce4fa7a5a6f1f28fcd7fb24d8833",
    "stratified-box-2d": "88cb7340b2716f2c6d42ba775d195cb67a3a11026f67682390314cac53240e17",
    "stratified-box-4d": "3afe393f642b473e6cdae54d673e44f4142bbb8ef7e521c43e07979ae82a4ead",
    "stratified-density-2d": "6191ff7988f29ebab68021f4461222cb60409e7c3c3b5dcbd26d30244a0b09f7",
    "stratified-density-4d": "662e423a2741b3ff86bb0c401df723687c6ddf9b3933234f54dae01e5d557857",
    "stratified-unit-2d": "6191ff7988f29ebab68021f4461222cb60409e7c3c3b5dcbd26d30244a0b09f7",
    "stratified-unit-4d": "662e423a2741b3ff86bb0c401df723687c6ddf9b3933234f54dae01e5d557857",
}

EXISTING_GENERATE_DIGESTS = {
    "bc-box-2d": "923085d69cfc27fe39218bbb0b62d72f1872c43a1099beb39d60a2d27412fa47",
    "bc-box-4d": "23b86ec7235c86296eeb55c4094d49c3799de9aa431e5ce6dd5759e825e2946e",
    "bc-density-2d": "188d7bf5439e82575e69fc7ab7dc60898e3442cd100d0f0eac38ac70c42b95e9",
    "bc-density-4d": "e60364348b204e69bf1667b34ab7ef44b995bb1d36135daa342a6df00b6ec69f",
    "bc-unit-2d": "b3580d3fa95b2866cef5be2873cb9e24ad61251428978e94ea546b85b2b4eefa",
    "bc-unit-4d": "5d3ecca9fda134cdcc968f3ac23833f73ff1eee2a0c8a4bb414a8f3ca0cc3ee9",
    "greedyfp-box-2d": "6ff36a173d402ea345682bc29d0351e1267780c2af49d40c88ca54e6e1f09512",
    "greedyfp-box-4d": "638ab737f8f706b59013fcd6b1d1e558c8b1a2154ad7db9bc2a8f877e346a6ea",
    "greedyfp-density-2d": "9aec7c77ed69bf60acbd48332aaa50926a995e9c37c5072e377ff29013046718",
    "greedyfp-density-4d": "4f809439f52686b87fb9399f5e233b7f334ae6943947eaec5db7af1f9f9ff28a",
    "greedyfp-unit-2d": "bb1df2187e173495573f5a022b1ea9b8ac5f6838b321c5d1b6f36540d13387e8",
    "greedyfp-unit-4d": "8d7cc275c8566f4c4260bfa90cb53b108d181f8c6ddf2ffcaa5919e7f61d623e",
    "hybrid-box-2d": "9ea79a00e91097487901b5398f2bad15e1bfe369e3e1749e7d6843eb0c5f97ed",
    "hybrid-box-4d": "d1410f7c0273d9530e8d70568e6720e330569b8368952bf76b6ba157c51de2d7",
    "hybrid-density-2d": "615615c429e435e2edd1f87e55c74b36b250ed573241b77ba04fc8b886a10ff8",
    "hybrid-density-4d": "dc4f652c6f006471d9d3e0fe42b29af54ca936008044ee14cf820f2f60121efb",
    "hybrid-unit-2d": "98b8e514b5f75686980468cfb3872998dca662cfd4ec472076c0724c4c299fd3",
    "hybrid-unit-4d": "768bad5b57a51507ec4d983774ed3cb802112c0c702426703e3e9e330211adbc",
    "random-box-2d": "bc1c618b2c5cf4b4bc8b41b2020181733801c0e0e2f386eff224ef4921985676",
    "random-box-4d": "2329f7414fcb3ef51481f527722ff6b69cb44952c6ded0b443522ffbfe1c038f",
    "random-density-2d": "609a2af97cc9a4de15de5133c69ac5c9419ac32082c469137a5bee691e17bd43",
    "random-density-4d": "870012dd96982a48dc34ad15637e7c2d4f0bf2894033f451df26976363e37bf9",
    "random-unit-2d": "609a2af97cc9a4de15de5133c69ac5c9419ac32082c469137a5bee691e17bd43",
    "random-unit-4d": "870012dd96982a48dc34ad15637e7c2d4f0bf2894033f451df26976363e37bf9",
}

DENSITY_EXPAND_DIGESTS = {
    "bc-empty-2d": "c75a999bb842c75e49d1664c3ab706835e35edc565c458849794ef8bc4e40acf",
    "bc-full-2d": "db1ad4f2f801550653a20d4083596c0e01d91a2ffca7901c5341ca7916a2d554",
    "bc-full-4d": "15ba3bda52e329e386ffd59a23e35b6d261bde104b8da43460fe63e416b389f8",
    "greedyfp-full-2d": "593f1a5d7bd37b5f6880d740a2ca16d58ee9020408cbab97e38bcd654313c3f2",
    "greedyfp-full-4d": "946a6b8f4c5fa139a545140219f238efd109e467fab6295a91f98f6fb2f63b18",
    "hybrid-full-2d": "2d2ec8193fa963242b78129a39462fa6ac8126f3c97150ae24db62739ff491b8",
    "hybrid-full-4d": "decbea5b9002ca0f634bb4d42659f16cf5646625de21698807f2dc901f522c02",
    "random-full-2d": "721f88471a4e5d0bb86a66e4e541e01ed412f83b8657b0cbe92bff4dfa1da3fb",
    "random-full-4d": "c47329642ea4bdb058a97286f02f0f9c7fb87882e61e130d8f5e1734a2d6f496",
}

REJECTION_DENSITY_DIGESTS = {
    "box-2d": "90f23e04b4dbac6ebefde1572b4570ca2f55a37d861a5bdc2348f6e04324cab2",
    "box-4d": "5eee9939180306b5093303520689e2a2d0b4fc0b1f733f467ed6371cd1840f46",
    "unit-2d": "554d5a9403f9616beb41d12c7956e081e248681173a0aca7cf5ccf53feb9411a",
    "unit-4d": "06d6817a65453d1f04e1f5793ad9e55c65924b0a1b3a3b05aee1f58c82f8b086",
}


@pytest.mark.parametrize("name", sorted(PLAIN_GENERATE_DIGESTS))
def test_plain_generate_digest(name):
    assert plain_generate_digest(name) == PLAIN_GENERATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXISTING_GENERATE_DIGESTS))
def test_existing_generate_digest(name):
    assert existing_generate_digest(name) == EXISTING_GENERATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DENSITY_EXPAND_DIGESTS))
def test_density_expand_digest(name):
    assert density_expand_digest(name) == DENSITY_EXPAND_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REJECTION_DENSITY_DIGESTS))
def test_rejection_density_digest(name):
    assert rejection_density_digest(name) == REJECTION_DENSITY_DIGESTS[name]


# ---------------------------------------------------------------------------
# Maximin LHS with a few hundred interchanges
# ---------------------------------------------------------------------------

LHS_MAXIMIN_RUNS = {"center": (3, 150), "random": (2, 200)}


def lhs_maximin_digest(name: str) -> str:
    """Case names are ``<center|random>-<unit|box>-<n>x<d>``.  Center
    placement ties many pair distances, so many attempts are rejected only
    by a tie with a pair that the interchange did not change."""
    placement, kind, shape = name.split("-")
    n, d = (int(v) for v in shape.split("x"))
    tries, interchanges = LHS_MAXIMIN_RUNS[placement]
    rng = RngState(101 + d)
    out = generate("lhs-maximin", _domain(kind, d), n, rng,
                   {"ntries": tries, "ninterchanges": interchanges, "placement": placement})
    return _sha(out.points.tobytes() + _stream_tail(rng))


LHS_MAXIMIN_DIGESTS = {
    "center-box-120x2": "386f14bd7c496348ca4741877eba1adec0e099f2271452bd0fd01b96a72b266b",
    "center-unit-120x2": "598efe53675730dcad2478cae907147b67a2673565d833abe7655cdea6cbaf89",
    "random-box-100x10": "16bde150ec24bacc2e32d7264a7f11e03f20ef2dc287d7f3271c6f5b933d1d05",
    "random-unit-100x10": "3b8e1d1f238fb239ee288080a10bda1e93105a8bcd27c7ef6a8c6d41a0b8bf4f",
}


@pytest.mark.parametrize("name", sorted(LHS_MAXIMIN_DIGESTS))
def test_lhs_maximin_digest(name):
    assert lhs_maximin_digest(name) == LHS_MAXIMIN_DIGESTS[name]


# ---------------------------------------------------------------------------
# Expansion onto a box with both a viability and a density
# ---------------------------------------------------------------------------

def _expand_viability_array(p):
    return _expand_viability(p)


_expand_viability_array.batch = lambda x: x[:, 0] + x[:, 1] < 2.2


def density_viable_expand_digest(name: str) -> str:
    """Case names are ``<algo>-<point|array>-<full|empty>``: 25 points
    added to 30 unit-box points (or to none) in [-0.25, 1.5]^2, weighted by
    gauss-center and restricted by a per-point or an array-form viability."""
    algo, form, prefix = name.split("-")
    viability = _expand_viability if form == "point" else _expand_viability_array
    u = np.random.default_rng(79).random((30 if prefix == "full" else 0, 2))
    existing = SampleSet(Domain.unit(2), u, frozen_count=len(u))
    wider = Domain(np.full(2, -0.25), np.full(2, 1.5), viability=viability,
                   density=GAUSS, density_max=GAUSS_MAX)
    rng = RngState(91)
    params = None if algo == "random" else GENERATE_PARAMS[algo]
    out = expand_domain(existing, wider, 25, algo, params, rng)
    return _sha(out.points.tobytes() + _stream_tail(rng))


DENSITY_VIABLE_EXPAND_DIGESTS = {
    "bc-array-empty": "66c47fc5b71ca5ad6beb498a460fd6867b0503aa3320bf946cec849501b1bc11",
    "bc-array-full": "304524f4101a9d13a90e2a25b4f303a85a2f6e55013e82f8fb622cbbd7ebc8d0",
    "bc-point-empty": "66c47fc5b71ca5ad6beb498a460fd6867b0503aa3320bf946cec849501b1bc11",
    "bc-point-full": "304524f4101a9d13a90e2a25b4f303a85a2f6e55013e82f8fb622cbbd7ebc8d0",
    "greedyfp-array-empty": "01f2d2a218cb36664b081191c2dbbf6b24d9f596935971018519af6335f2891b",
    "greedyfp-array-full": "5b6931b67d96cbd09beea12771a8c5ddd728c231ae5b8b2e0c214ee54d9741f4",
    "greedyfp-point-empty": "01f2d2a218cb36664b081191c2dbbf6b24d9f596935971018519af6335f2891b",
    "greedyfp-point-full": "5b6931b67d96cbd09beea12771a8c5ddd728c231ae5b8b2e0c214ee54d9741f4",
    "hybrid-array-empty": "97f0eee8d4f4c25e9d029350dc88fd19dd71cf4cc5642ca23854572d1d4664a8",
    "hybrid-array-full": "69739ea85eacf848cb8a9796e951fc0c7ed0102cbcfa3459ca18e668897f9289",
    "hybrid-point-empty": "97f0eee8d4f4c25e9d029350dc88fd19dd71cf4cc5642ca23854572d1d4664a8",
    "hybrid-point-full": "69739ea85eacf848cb8a9796e951fc0c7ed0102cbcfa3459ca18e668897f9289",
    "random-array-empty": "69e5e95042c7a4d64ccccc8154967c5c5730526939fdeb30929a5faad7c9561b",
    "random-array-full": "d13027c180f1fc37055011412fa7645b869ecbcd567e3c60d55b0a12c73cc69f",
    "random-point-empty": "69e5e95042c7a4d64ccccc8154967c5c5730526939fdeb30929a5faad7c9561b",
    "random-point-full": "d13027c180f1fc37055011412fa7645b869ecbcd567e3c60d55b0a12c73cc69f",
}


@pytest.mark.parametrize("name", sorted(DENSITY_VIABLE_EXPAND_DIGESTS))
def test_density_viable_expand_digest(name):
    assert density_viable_expand_digest(name) == DENSITY_VIABLE_EXPAND_DIGESTS[name]


# ---------------------------------------------------------------------------
# Quality metrics
# ---------------------------------------------------------------------------

def _metric_case(name: str) -> SampleSet:
    """Case names are ``<kind>-<n>x<d>``; kind is ``plain`` (uniform
    points), ``neardup`` (point 7 is point 3 moved by 1e-9 along the first
    axis) or ``lattice`` (a square grid, so many pair distances tie)."""
    kind, shape = name.split("-")
    n, d = (int(v) for v in shape.split("x"))
    if kind == "lattice":
        side = round(n ** (1.0 / d))
        axes = [(np.arange(side) + 0.5) / side] * d
        u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    else:
        u = np.random.default_rng(3000 * n + d).random((n, d))
    if kind == "neardup":
        u[7] = u[3]
        u[7, 0] += 1e-9 if u[7, 0] < 0.5 else -1e-9
    return SampleSet(Domain.unit(d), u)


def quality_digest(name: str) -> str:
    report = quality_report(_metric_case(name))
    values = [report.nn_min, report.nn_avg, report.nn_max, report.phi_p, report.cl2]
    return _sha(np.array(values, dtype=np.float64).tobytes())


QUALITY_DIGESTS = {
    "lattice-100x2": "15369e495dabe0db9fc3f716272c857b8a43eb666a635a5ce84e6a3075048e35",
    "lattice-64x3": "d675c740deed0e74b9c63bd918f5276a69ad224891d5412b66800e241369bb52",
    "neardup-1000x10": "45dd03c35a0c2a157df4a1734e0cb354f31226b971b35ab1d04ed7070a8ac3fb",
    "neardup-300x4": "efdcfb5b486042181d834ed55a9c00e345e76d87f22f76b9b7e8b16c15899c76",
    "plain-1000x10": "025915b5d45e632ff88f2d5c570772b6c0c68e7d6b8911ba05763db7ced5d2d8",
    "plain-1000x4": "0cb43378beaae62215980ea2585cc62b5a182beb18524ffde0abdeb7d94cee0d",
    "plain-500x2": "9a080540c2ab8dd01610638a8f8475239f1502670fefda77029428e26d93d68a",
}


@pytest.mark.parametrize("name", sorted(QUALITY_DIGESTS))
def test_quality_digest(name):
    assert quality_digest(name) == QUALITY_DIGESTS[name]
