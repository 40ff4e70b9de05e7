"""Golden outputs: the exact bytes a fixed set of CLI queries produces.

Each query's stdout and stderr are compared by sha256, together with the
exit code, against recorded digests. Any change to an output byte, a
diagnostic or an exit code fails here; a deliberate output change must
re-record the digest and say why.
"""

import hashlib

import pytest

from weightvar import cli
from weightvar.cache import cache_path
from weightvar.schubert import SchubertCalculus

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
    # an explicit --dmax, up to len(w0), past the guard degrees
    ("betti-A3-dmax",
     "betti --type A --rank 3 --lambda 2,1,3 "
     "--mu=1551/1559,405/1559,-1728/1559 --dmax 6",
     "d9dc91d791424abaa69169e756053ad58be3da2663041ca75b69ef7b6c52e488",
     EMPTY, 0),
    # the B3 reference level, (1,6,19,32,19,6,1)
    ("betti-B3",
     "betti --type B --rank 3 --lambda 1,1,1 --mu=-1/3,-1/5,-1/7",
     "f5317e3e35578976ce34786aec1bb73fa2600e3e9f6780e7572aad6471a5ce72",
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
    # rank 4: thousands of enumerated specs per support class
    ("kernel-A4",
     "kernel --type A --rank 4 --lambda 1,2,3,4 --mu=1/5,1/7,1/11,1/13",
     "200b0a78e2b43ed186d77f8c640515a167c148cc2afb86aef3ba0a69d7f3db7b",
     EMPTY, 0),
    ("kernel-D4",
     "kernel --type D --rank 4 --lambda 1,2,1,1 --mu=1/5,-1/7,1/11,1/13",
     "560ec805b26558aee37f742c075e07886d89657496b655192977a79aa22a854c",
     EMPTY, 0),
    ("kernel-B4",
     "kernel --type B --rank 4 --lambda 1,2,1,1 --mu=1/5,-1/7,1/11,1/13",
     "10a1825c7f3fef5b81ce59b5b3ff23f4fef73bcb337850ce98dd4d248a48b197",
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
    # a tie off every critical segment
    ("refusal-kernel-A3-tie",
     "kernel --type A --rank 3 --lambda 1,1,1 --mu=0,5/4,0",
     EMPTY,
     "9bdeabe06ddccac3e3467dec54457e42f32cb123cb7cd2b32e4d099dd6bb9176", 2),
    # the one-third point of [lambda, s_theta lambda], theta the highest root
    ("refusal-kernel-B3-segment",
     "kernel --type B --rank 3 --lambda 1,2,1 --mu=-1,0,-1",
     EMPTY,
     "d800b52e55607edc69b2ebd798c0b74049cb0632b5f8ce131c1a06e18c8092fa", 2),
    ("refusal-check-A3-wall-coincidence",
     "check --type A --rank 3 --lambda 1,1,1 --mu=0,0,0",
     EMPTY,
     "4c323e77a693d4cbd3a55af8f9a0601f26e1931a4cf5e2ff05f02f3a0598c657", 2),
    # a point of the segment from v id 1, named by the first (v, alpha) in
    # v-ascending, positive-root order whose segment holds it: v id 0
    ("refusal-kernel-G2-segment",
     "kernel --type G --rank 2 --lambda 1,1 --mu=1,-1",
     EMPTY,
     "fc57a156ad9608305ea60d5027f02ef54e5d5bd175f936784470f3ab13326e88", 2),
    ("refusal-kernel-A2-segment",
     "kernel --type A --rank 2 --lambda 2,1 --mu=1,-1",
     EMPTY,
     "ff802249cb72b60ac9b2d3dfad345305d18e922224ead0b2a79879f523ab6dc5", 2),
    ("refusal-kernel-C3-segment",
     "kernel --type C --rank 3 --lambda 1,2,1 --mu=-5/3,-1/3,-1",
     EMPTY,
     "dd3faba2b4e0d803c0726bc201dce033e2c20e4bb5cb3e3382117af4832d0479", 2),
    ("refusal-betti-C3-wall-coincidence",
     "betti --type C --rank 3 --lambda 1,2,1 --mu=0,0,0",
     EMPTY,
     "2d4fd6b9cee9e8e5465851b4ac9a46e7f8234bc70970500cff3a9bcc25b9bfb7", 2),
    ("check-A3-level",
     "check --type A --rank 3 --lambda 1,2,1 --mu=1/5,1/7,1/11",
     "b175fc02e51abcd1e062e9213fc2f0b0fe66b4ba103220059abb3a157f60032f",
     EMPTY, 0),
    ("check-B2-level",
     "check --type B --rank 2 --lambda 1,3 --mu=-559/873,-785/873",
     "92454e5e7fc01be663a005369d0e475fe12d7a34fa71a77f0be10c4bc38619e7",
     EMPTY, 0),
    ("check-G2-level",
     "check --type G --rank 2 --lambda 1,1 --mu=-82/63,286/357",
     "fb0cff02c017f7ce002a3dfa2c131316251485b9ea92b5221c205e4f5d5de746",
     EMPTY, 0),
    # the root-system and Weyl-group reports
    ("roots-A1", "roots --type A --rank 1",
     "8bd5abf1fd36beb63ea83ac2b274cb1621140c03509825ed0e03160d2c5b6a38",
     EMPTY, 0),
    ("roots-A2", "roots --type A --rank 2",
     "9b17767f76c337c0f2ef2a6cca343aa5fc9e7554d22ff9ddb46b6cb20990e26e",
     EMPTY, 0),
    ("roots-B2", "roots --type B --rank 2",
     "bde826848b6209f04a49cb8b1e1dc5f528219d9b66e0fc5340d053896733c9e3",
     EMPTY, 0),
    ("roots-G2", "roots --type G --rank 2",
     "2dd1e133716f6b91a13aac508dc357d75efd8e426a502596b5ad2c95c1b3284a",
     EMPTY, 0),
    ("roots-A3", "roots --type A --rank 3",
     "c43f1d975bd7cfa3f123885eddb55cf56bbfc00e4f9c42638f0b03f3d930d1ea",
     EMPTY, 0),
    ("roots-B3", "roots --type B --rank 3",
     "1a855990a5cc66ec4569c66176288f13e3d4f55ca89650b4987f317eb893e81a",
     EMPTY, 0),
    ("roots-C3", "roots --type C --rank 3",
     "704b6bc2e217e6cba215ecc9194988ac128480758a026ed6f0676805694f280d",
     EMPTY, 0),
    ("roots-D4", "roots --type D --rank 4",
     "12cf9a25448e416dd074c9a524e9185cd2bf782d7d1dc1f9707355126113e82a",
     EMPTY, 0),
    ("roots-A4", "roots --type A --rank 4",
     "aaba9f40a011f5da97e0fedebcffd27e65418715181e6b5bc9c246693387d66f",
     EMPTY, 0),
    ("roots-B5", "roots --type B --rank 5",
     "7d08ad605d5239500b9101764f6ad212e6d19e160cf2932b11fa2af40007d5b6",
     EMPTY, 0),
    ("weyl-A1", "weyl --type A --rank 1",
     "dae0e346f2e9a246df4ca3c41f4ba264fe5f8bee6e85df4190c8908760092872",
     EMPTY, 0),
    ("weyl-A2", "weyl --type A --rank 2",
     "bf78a572774e153bc97d3cb5b0d684ced54b21fb1b277b776493dfb34e5b8f49",
     EMPTY, 0),
    ("weyl-B2", "weyl --type B --rank 2",
     "5a2d4c7f9f2fd609096e3ca9112d78d57fbc38b818e5c139eaeab4a3d5bfb15c",
     EMPTY, 0),
    ("weyl-G2", "weyl --type G --rank 2",
     "215bd6a550c2edffe17512a75d89a1623a543121224904503edabe7637ac800b",
     EMPTY, 0),
    ("weyl-A3", "weyl --type A --rank 3",
     "d6cb7f63e5fc16a134b8f5ed440273b9d18161dfcd2ecd2e0b091cfd3b4a5c90",
     EMPTY, 0),
    ("weyl-B3", "weyl --type B --rank 3",
     "d4558af824627c69fbfa97d3891a9c62768f049720cadd7fa5d5a58e64f7abab",
     EMPTY, 0),
    ("weyl-C3", "weyl --type C --rank 3",
     "43402ac379a0a91d4a21e6eb3edf4a429a51764f65353d61575f6826ce5d66e4",
     EMPTY, 0),
    ("weyl-D4", "weyl --type D --rank 4",
     "b1fe9298b71332435f68d8bf880cc821f5609fcdf234d55e7658c1e90010e546",
     EMPTY, 0),
    ("weyl-A4", "weyl --type A --rank 4",
     "968ed4bef7f4ed70504a751d21561c018802bb90e9e5e6f2c64e626c6004a7b3",
     EMPTY, 0),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,out_sha,err_sha,code",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_output(cli_run, argv, out_sha, err_sha, code):
    out, err, got, _ = cli_run(argv)
    assert (_sha(out), _sha(err), got) == (out_sha, err_sha, code)


@pytest.mark.parametrize("name", ["kernel-A3", "kernel-G2"])
def test_kernel_builds_no_class(monkeypatch, capsys, tmp_path, name):
    # every support is read from the Bruhat order, so a kernel query builds
    # no basis class and no subword-sum column
    def refuse(*args):
        raise AssertionError("a kernel query built a class")

    monkeypatch.setattr(SchubertCalculus, "schubert_class", refuse)
    monkeypatch.setattr(SchubertCalculus, "xi_column", refuse)
    argv, out_sha, err_sha, code = next(g[1:] for g in GOLDEN
                                        if g[0] == name)
    got = cli.main(argv.split() + ["--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert (_sha(out.out), _sha(out.err), got) == (out_sha, err_sha, code)


# (table, sha256 of restrict json, of restrict csv, of restrict latex, of
# the stored billey-<type><rank>-v1.json); the same whether built cold or
# read warm
TABLE_GOLDEN = [
    ("A", 2,
     "9b06fd64cfef3b497639117813814d57e32db9d1f93fc8878d44e00f0d7f40af",
     "6bedb2a5e137865532de7401e62b385bcc2d97a039a58d041780320257d4204d",
     "f5a50b42ed5584866247cc2916236bc60ebad714bc38511270ff3d275345e034",
     "44036339b0ceb5b3198f94ae540e6593cd71bad79cf0ccf36b4135e2664d57d9"),
    ("G", 2,
     "223952bf811c14f0d274edab7db58d4378e0161540e1507ee09830bd3475f662",
     "1f2d9ab6149e02bfac80a246e25836b89fef080967ac8a86dbb5d6b38a3fd554",
     "8f5eaae7764ea35500d8d1a4ad0d4e2336d5343417297c23863b7d7d8a722e66",
     "7c0aa7bdd04f92acea4604e49c69eb038c1f3e18e698bbe93efa1bbb5a4e1417"),
    ("A", 3,
     "a3f494d9d2f1377dd55fdb93c4af0a373e6111e9f8c353e80a1aa405271722df",
     "762ae8aac426838abac73062abe851c6d383cce2d697aeb7f9972827914d93dc",
     "2208813453b0db580647f2eb2b165b0840dc80e2c572cfd86e01ff37a30972c1",
     "dac1409f6d50fc71afd8efa38c0f7f8de678b948c8167b60987184134e779bc9"),
    ("B", 3,
     "5ca1b54f089a45af98ff88f660f8ba7507f07d4acc185adab579493402876ca3",
     "8927f21da325d8fab8887915c03a9760d62b478d3d87d1ab31b98c1bc3b6f764",
     "cd6fb0b812c10b9181c3783530fd34941cbc062387cda18d3385c0d51667fd20",
     "d9b880a82d85c16a84734f30ca9d61ec7ad0a0984b014c38fae6ea28654c3bb5"),
    ("C", 3,
     "b0b62dd327bce27c36078db603c05a4413583dd72d222f722fe1cede431e8f45",
     "493b9a817a2400eefb26a9114e19b091dc64b19389012b0bf806c7edb529c5db",
     "a132d1e6f979e6fa73856e328ed27c8b7d9bd3f6559682e97d3f8d4e305b08d2",
     "9b030ad50ac66ee622d4390517dfcd85f4792eff92dfad34b3fa8b47e4c65506"),
]


@pytest.mark.parametrize("type_label,rank,json_sha,csv_sha,latex_sha,file_sha",
                         TABLE_GOLDEN,
                         ids=[f"{t[0]}{t[1]}" for t in TABLE_GOLDEN])
def test_golden_restrict_cold_and_warm(capsys, tmp_path, type_label, rank,
                                       json_sha, csv_sha, latex_sha, file_sha):
    expect = {"json": json_sha, "csv": csv_sha, "latex": latex_sha}
    for order in (("json", "csv", "latex"), ("csv", "latex", "json"),
                  ("latex", "json", "csv")):
        cache_dir = tmp_path / order[0]
        for fmt in order:  # a cold build, then warm reads
            got = cli.main(["restrict", "--type", type_label,
                            "--rank", str(rank), "--format", fmt,
                            "--cache-dir", str(cache_dir)])
            out = capsys.readouterr()
            assert (_sha(out.out), out.err, got) == (expect[fmt], "", 0)
        stored = cache_path(cache_dir, type_label, rank).read_bytes()
        assert hashlib.sha256(stored).hexdigest() == file_sha
