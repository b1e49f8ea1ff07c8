"""Byte-identity of the CLI reports across refactors.

Each call's stdout is pinned by its sha256, together with its exit code,
at the default probe budget unless the call sets --budget.  A change that alters any report byte fails
here; when the change is intended, the pinned digest moves with a note in
CHANGES.md saying why.
"""

import hashlib
import sys

import pytest

from nonbasis import cli, gapset, verify
from nonbasis.families import Params, build_gapped

GOLDEN = [
    # thm1 / thm3: d = 1 (coverage and uniqueness) and d >= 2 (residue obstruction)
    ("verify thm1 --h 3 --s 0 --t 1", 0,
     "fdd8008f588fb50744fbf1650f6eed631e4053bfed7cb5829d63b19ab459eb60"),
    ("verify thm1 --h 4 --s 1 --t 3", 0,
     "c71961612b9456a618e483106e33d93729a828d5caab54bd609ad32073556f48"),
    ("verify thm3 --h 3 --s 0 --t 1", 0,
     "3d3000fe436a014b0ad5219b0bbbcc79439e83d3f2217a6414cf43a2f7bbb572"),
    ("verify thm3 --h 4 --s 1 --t 3 --window 0:800", 0,
     "1e13d6ab6659be209e603654458cc9b21971b8113da9655af15db9b5503a0d1f"),
    # a window that ends below the threshold 59 and so below the first
    # checked residue: the coverage above it and uniqueness are unknown
    ("verify thm3 --h 6 --s 10 --t 9 --window 0:50", 3,
     "e60257c1c673cd9565de167c8818f3b3e117119c65baf6892bd52f130aec62f7"),
    ("verify thm2 --h 2 --s 0 --t 1 --gap geometric,2,1", 0,
     "05f3c5876a6e9ae7099446a4ad8b7d43296d85ac715c7595428981fa227b018c"),
    ("verify thm2 --h 3 --s 0 --t 1 --gap triangular --format text", 0,
     "c4c40ad970cf996ce2e24b07c6318fe8605fff71a2245f31415b336859819d59"),
    ("verify thm4 --h 2 --s 0 --t 1 --gap geometric,2,1 --window 0:3000", 0,
     "7c85003f0bb20c0e59ab62b1bfc908b98fc9202a9dcb35ea9ae674274d05009d"),
    ("verify thm4 --h 3 --s 0 --t 1 --gap triangular --window 0:3000 --format text", 0,
     "3075a746993f0c31b286a9aaea0079d0e5965a5e9c63975da0cef80c453a9a5a"),
    ("verify lemma --h 2 --gap geometric,2,1", 0,
     "db975db6cd1c36419a96fd812c9ec6955081e81efcf0ef7b84e896d2095ceebf"),
    ("verify lemma --h 4 --gap triangular --format text", 0,
     "a47b0f8925d10311ac0a42a820b7026168f81bb40a608327655f64e2e5c7e8a4"),
    ("catalog --h 5 --s 0 --t 1 --domain n0 --gap geometric,2,1 --window 0:2000", 0,
     "08e63665399908a7f3f2930760bea43341abe6615e64d32553e032f54e9484b4"),
    ("catalog --h 3 --s 1 --t 0 --domain z --gap factorial --window=-500:500 --format text", 0,
     "bda26a9be4d298f84223123d7b9d1773210b6442811f2d45e485caffe4ea2dd0"),
    # catalog below and at the fixed branch's x0 + 3 probes (x0 = 2 for the
    # triangular gaps, 0 for geometric,2,1), and thm2 on a wide Z window
    ("catalog --h 3 --s 0 --t 1 --domain n0 --gap triangular --window 0:1500 --budget 0", 3,
     "61b9055eb5e2267b9fc7f0a951bf7132fd2b6d6ebd62772d73bd00212b861068"),
    ("catalog --h 3 --s 0 --t 1 --domain n0 --gap triangular --window 0:1500 --budget 4", 3,
     "183675784bfe6a1b02cb501c1247c54100264a24f66c73f658f446ed208d3799"),
    ("catalog --h 4 --s 1 --t 0 --domain n0 --gap geometric,2,1 --window 0:1500 --budget 4"
     " --format text", 3,
     "d70ac7ade4e4cb55b7c4e30e9eb832a0e4649a9e8c244025d121fcc8b229e4a8"),
    ("catalog --h 2 --s 1 --t 0 --domain z --gap triangular --window=-800:800 --budget 0"
     " --format text", 3,
     "96dcc1cf3d2875f4f3d1c9c72792403fd5d763daf0e4f610846872f889e8dcde"),
    ("catalog --h 3 --s 0 --t 1 --domain z --gap geometric,2,1 --window=-800:800 --budget 4", 0,
     "0d62730370a0fef3d5430c0699ae3b7a2475e34f9652217f00f041464bd3fe72"),
    ("verify thm2 --h 2 --s 0 --t 1 --gap geometric,2,1 --window=-10000:10000", 0,
     "b1702792acfbf5015b81b39341cf314e9b343c63af21f09aef16661369bef93a"),
    # many-chain folds, where each step fills the middle of a class sum
    ("verify lemma --h 4 --gap triangular --window 0:200000", 0,
     "14297495641e2adc69f6902216d2a5416155e7eddde2b18ca0e692fc5f4ed51e"),
    ("verify thm4 --h 5 --s 0 --t 1 --gap triangular --window 0:100000", 0,
     "197b72fccaed1a33b6e35d57cdc478e4d9e19e7c2a84cef070c3070271483587"),
    ("verify thm2 --h 3 --s 0 --t 1 --gap triangular --window=-100000:100000", 0,
     "8538d0fd3624ea46c925e59f63f02fba49525c6bbb0f3c6de48f57820f2bfb9f"),
    # the escape prediction loops: at budget 3 the not_st escapes go
    # inconclusive midway, so their partial predicted lists pin the loop order
    ("verify thm4 --h 3 --s 0 --t 1 --gap triangular --budget 3", 3,
     "554316901555927af7a99b76db799c9b5f03fefadf35f4286bd28c6901987b19"),
    ("verify thm4 --h 3 --s 0 --t 1 --gap geometric,2,1 --window 0:3000 --budget 12", 0,
     "2f5eb54c817f16f6a1f755cc8b095b01aa61ea313b3b30775de2396f606a7644"),
    # not_st predictions on either side of x0 + 3 = 5 probes (x0 = 2 for the
    # triangular gaps): at budget 4 every shifted-Y value is decided, at 5
    # only the band's; and Z not_st escapes
    ("verify thm4 --h 5 --s 0 --t 1 --gap triangular --window 0:3000 --budget 4", 3,
     "ee2b5c77a18b67287ac0c56a0f6403bbfd07cb05ba14a85f28c2d08a54cafbb8"),
    ("verify thm4 --h 5 --s 0 --t 1 --gap triangular --window 0:3000 --budget 5", 3,
     "af6ddb40e602ef151e58f1a760640eed3d51af34065dcef79e574f8c17954306"),
    ("verify thm2 --h 3 --s 1 --t 0 --gap factorial --window=-600:600", 0,
     "0049785104700474f8d762cb3eb6619af4dc4a19a56662d23e2e0b76c7e3430d"),
    # points below the structural threshold (h-2)s + ht, whose In witnesses
    # are read off the prefix oracle's partials
    ("classify --h 6 --s 2000 --t 1 --domain n0 --gap geometric,2,1 --n 8002", 0,
     "76b4214830ae9242c7fbec5e3f6c31f139cee0a30b3fd9018229aaf9e0584d74"),
    ("catalog --h 6 --s 300 --t 1 --domain n0 --gap geometric,2,1 --window 0:3000", 0,
     "2f4a1d06707752ef61914b9abdaf96c26cb8d89af7b403d8bd8044f31bff6bb4"),
    # windows whose escape sample range ends below t: no eq_t b is sampled
    ("verify thm4 --h 3 --s 0 --t 7 --gap triangular --window 0:10", 0,
     "12a081fa173933af16393b6a1d59b926ab15b1eb71f7cb7c513c3928bfa4cbfd"),
    # the Z oracle source reaches z_summand_bound of the window ends, 27 here
    ("verify thm2 --h 2 --s 0 --t 1 --gap geometric,2,1 --window 0:0", 3,
     "7e509e9a0a246ab85b651a03a41da47c8bb41af39df186e43da2774d7481cb94"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_bytes_are_pinned(capsys, argv, code, digest):
    assert cli.main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_below_threshold_witness_is_one_walk():
    # n = 2402 lies below (h-2)s + ht = 2406 and off the F1 class, so its In
    # witness comes from the prefix oracle; with that oracle built, the
    # verdict is one walk of its partials, not a search over multisets
    fam = build_gapped(Params(6, 600, 1, "n0"), gapset.Geometric(2, 1))
    want = verify.classify(fam, 2402)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith("nonbasis"):
            calls += 1

    sys.setprofile(count)
    try:
        got = verify.classify(fam, 2402)
    finally:
        sys.setprofile(None)
    assert got == want and isinstance(got, verify.InSumset)
    assert calls <= 1000
