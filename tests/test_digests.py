"""Pinned output digests: Latinization, viability-filtered generation, domain
expansion, the viability calls they make, and the CLI's CSV bytes at fixed
seeds.

A ``latinize`` digest is the sha256 of the output points followed by the
caller's next ``random()`` draw, so a shifted RNG stream is caught as well as
a changed value.  A ``generate`` or ``expand_domain`` digest adds the next
``integers(1000)`` draw before that ``random()``.  A viability-call digest
covers every point the predicate receives, in order.  A CLI digest is the
sha256 of the ``--out`` file.  A digest may change only in a change that says
why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from spacefill import cli, presets
from spacefill.adapt import CurveRegionSpec, curve_region_sample, expand_domain
from spacefill.core import Domain, RngState, SampleSet
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
