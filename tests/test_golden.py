"""Golden outputs: the exact bytes a fixed set of CLI queries produces.

Each query's stdout and stderr are compared by sha256, together with the
exit code, against recorded digests. Any change to an output byte, a
diagnostic or an exit code fails here; a deliberate output change must
re-record the digest and say why.
"""

import hashlib

import pytest

from weightvar import cli

# sha256 of the empty string: no output on that stream
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (id, argv without --cache-dir, sha256(stdout), sha256(stderr), exit code)
GOLDEN = [
    ("kernel-A2",
     "kernel --type A --rank 2 --lambda 2,1 --mu=418/317,-414/317",
     "3b77b7ed55872b75d1a35be0d0cef499cd77d52f735e0c1e7e3e969833752cf4",
     EMPTY, 0),
    ("betti-A2",
     "betti --type A --rank 2 --lambda 2,1 --mu=85/202,-49/202",
     "ac9eac8b7b605091eda24cd9b171f793ec6ef1638578f2119606619301d5d759",
     EMPTY, 0),
    ("oracle-compare-A2",
     "oracle-compare --type A --rank 2 --lambda 2,1 --mu=112/139,56/139",
     "ad673f5dc09555079b1bc5d7e28ee0db274a05f0014b1c20bd5cae780136745c",
     EMPTY, 0),
    ("kernel-B2",
     "kernel --type B --rank 2 --lambda 1,3 --mu=28/37,-35/37",
     "e2d7a0458fa82944806939d86f6770128ea8cc79544c053e71cccc0d904198f6",
     EMPTY, 0),
    ("betti-B2",
     "betti --type B --rank 2 --lambda 1,3 --mu=-559/873,-785/873",
     "4fc0172c59e4a7c72148d976553cc0e5111c9a79f7037f50c524e0b2d7ea5f7d",
     EMPTY, 0),
    ("oracle-compare-B2",
     "oracle-compare --type B --rank 2 --lambda 1,3 --mu=-35/61,332/183",
     "e8be0f66a9b8789953e3a2aee0c682544e8164032645542bc3e2ee23bc469bb2",
     EMPTY, 0),
    ("kernel-G2",
     "kernel --type G --rank 2 --lambda 1,1 --mu=479/1004,-59/251",
     "e2c21216677e63cdd9e1004d8b5364fa7dddc65effd9eb7874bae8237402cf89",
     EMPTY, 0),
    ("betti-G2",
     "betti --type G --rank 2 --lambda 1,1 --mu=-82/63,286/357",
     "f127735adf3c7e17822506d744ea29255e4dcd72d1d29e917f741d8ffd4486fe",
     EMPTY, 0),
    ("oracle-compare-G2",
     "oracle-compare --type G --rank 2 --lambda 1,1 --mu=-183/140,263/350",
     "7845f76c562c6fa1086d1fe86e867ab002f62aed9d11e576c71af7ff55c35ec4",
     EMPTY, 0),
    ("kernel-A3",
     "kernel --type A --rank 3 --lambda 2,1,3 "
     "--mu=1551/1559,405/1559,-1728/1559",
     "c3d7e43c9f7004576a081b351facfa63c8d07b38a3fc413b06ef9b9ce879ec0b",
     EMPTY, 0),
    ("restrict-csv-G2",
     "restrict --type G --rank 2 --format csv",
     "1f2d9ab6149e02bfac80a246e25836b89fef080967ac8a86dbb5d6b38a3fd554",
     EMPTY, 0),
    ("refusal-betti-B2-segment",
     "betti --type B --rank 2 --lambda 1,1 --mu=0,-1",
     EMPTY,
     "4855b06ef7a0497abbd04b45ce640ddcf3219f2fbba52f9d1cdcf3476f985d56", 2),
    ("refusal-kernel-A2-outside",
     "kernel --type A --rank 2 --lambda 1,1 --mu 3,3",
     EMPTY,
     "256e9f6de1669647a52dedec4cd735c73386e47f7f8ed910224aac6dcaf504c4", 2),
    ("refusal-kernel-A2-facet",
     "kernel --type A --rank 2 --lambda 1,1 --mu=0,-3/2",
     EMPTY,
     "762967a0df028e07b763b39553245028fe1fbb99664f739d5fc26b7ea0c2276d", 2),
    ("refusal-kernel-A3-outside",
     "kernel --type A --rank 3 --lambda 1,1,1 --mu 3,0,0",
     EMPTY,
     "84b86475afa33ada480cbb1ca2582235ab65674dd25637677e60db47e58fb190", 2),
    ("refusal-kernel-A3-wall-coincidence",
     "kernel --type A --rank 3 --lambda 1,1,1 --mu 0,0,0",
     EMPTY,
     "4c323e77a693d4cbd3a55af8f9a0601f26e1931a4cf5e2ff05f02f3a0598c657", 2),
    # the midpoint of lambda and s_1 lambda, two adjacent vertices
    ("refusal-kernel-B2-facet",
     "kernel --type B --rank 2 --lambda 1,1 --mu=0,-2",
     EMPTY,
     "576d2ec791a5984ffdb8e38f74d08a996f80fe2b1a276dc129fa0f6992379342", 2),
    ("refusal-kernel-G2-facet",
     "kernel --type G --rank 2 --lambda 1,1 --mu=0,-3/2",
     EMPTY,
     "da5edd12f84735bcc4084174f2239a601c5a6702301d99a7a060b6f67ecb4cac", 2),
    ("betti-A3",
     "betti --type A --rank 3 --lambda 2,1,3 "
     "--mu=1551/1559,405/1559,-1728/1559",
     "08d92c1dd27eb882ea2a2e0937634dacdf362b65e603059787168aab990a5a31",
     EMPTY, 0),
    # groups with larger stabilizers of their basis classes
    ("kernel-B3",
     "kernel --type B --rank 3 --lambda 1,2,1 --mu=1/7,-1/5,1/11",
     "0d64cee6d9d5d678b2d3d04cad09daa64f378e57bb120e747c368946a951b84b",
     EMPTY, 0),
    ("kernel-C3",
     "kernel --type C --rank 3 --lambda 2,1,1 --mu=-1/9,1/13,1/5",
     "a90587c040228c4585c6d991e533e152c75c269565cc01f58168f8ddda2459f6",
     EMPTY, 0),
    ("oracle-compare-A3",
     "oracle-compare --type A --rank 3 --lambda 2,1,3 "
     "--mu=1551/1559,405/1559,-1728/1559",
     "66e65031c7ac0f67689fe285394b4fc8dadad4c5db22f2ba3c23bea7daac2b55",
     EMPTY, 0),
    ("check-A2-level",
     "check --type A --rank 2 --lambda 2,1 --mu=85/202,-49/202",
     "335c0a3a59623ab9d2329422dea197c1631c36d7ba8c4f0ac83478fea5280bd5",
     EMPTY, 0),
]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,out_sha,err_sha,code",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, cache_dir, argv, out_sha, err_sha, code):
    got = cli.main(argv.split() + ["--cache-dir", str(cache_dir)])
    out = capsys.readouterr()
    assert (_sha(out.out), _sha(out.err), got) == (out_sha, err_sha, code)
