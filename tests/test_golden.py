"""The construction output is pinned byte for byte.

Constructions are deterministic, so a refactor that keeps the outputs
must keep these digests: the sha256 of `serialize.dumps` and of
`serialize.to_text` for every `ell` of the acceptance grid, odd m in
{3, 5, 7}, even m in {4, 6}, n in {3, 5, 7}.  A digest that changes means
the output changed; if that is intended, the new digests are recorded
here together with the reason.
"""

import hashlib

import pytest

from starurd import serialize
from starurd.admissibility import construction_range
from starurd.assembler import BuildRequest, construct

# (m, n, ell): (sha256 of dumps, sha256 of to_text)
GOLDEN = {
    (3, 3, 0): (
        "74307f301626a203bbcf02c09feea27f945c7dbcdcd648c2c0728cffc4634bf1",
        "ab35bc057afcc5a9f122eed13bcd1f351f18b5ab85414729250705f02007c3cc",
    ),
    (3, 3, 1): (
        "ad4078ed4efc6ee1dfdf03c8eaf2e9caaf086f500d7394748da854c12795dbfb",
        "899a9bf92d6a6cf460245bc112e8fd1f023d99e3fcaee28c53e8dc1ad5daf90e",
    ),
    (3, 5, 0): (
        "4250cec813022b655a4894b2e98d58ee59297ef8c4393e7d0de15dd4687f7351",
        "c23911b44d93d46119467b9cc4caafc89f42bdcba214069a4a8bda4ca2490367",
    ),
    (3, 5, 1): (
        "8b012f9c51ad5a0f3076f4604e76a408b84e9b9e1ec36bc2484fcc7f09d86367",
        "40ea68bb56da5d97046275316844fc539029c8299266fb4ad1f45a5c297dbb4b",
    ),
    (3, 7, 0): (
        "41c0b34fdd66160bf72221e94dddd121dce0764cb56829db9a92bd7ee99f38f5",
        "d0073b5672f5799bc85f4616ffd6e17bceb4dfa808832f8b72cc20a78b7fd140",
    ),
    (3, 7, 1): (
        "1c77afb6d89b0d0ffbc19f13a108565137525597fe830f2c26b385612f0f8d92",
        "c7143da057f395f887f573f25fa87c88fc9e4e9421218f5e9bdb9a67b06a15c6",
    ),
    (4, 3, 0): (
        "71f35ae5df496a3215936613ca119df916eb41f790e8e0f833fb058d5cdfbf73",
        "8bcacd6712c36f042f057941b48c1460275a89ebb4307c69928e4da92fe8338c",
    ),
    (4, 3, 1): (
        "1b4b904b77c5d829ec9bc10dcb3db598d82b4134643f54208c5414b4c3862094",
        "c5c92d76c3ea39b1a2d410aa8995a04d90a30fc76820d52aef76285fa3002fe2",
    ),
    (4, 5, 0): (
        "21c21e132000dfc9682ccc74b9c03c89cce77356a3b8b38673c31db6a4cf3f0f",
        "e97bba3e869fad558f2530ec23609c0e7559c33b49a80d279c1ff3d5396c6251",
    ),
    (4, 5, 1): (
        "e9d564579a6816a6d677a719b788cd3e7ee2957b77db6e258c61ae8b403eac2d",
        "a48ea107a75b443ffa2ff08d166e4f1a0e8986636a24d107f8844f260926de67",
    ),
    (4, 7, 0): (
        "431863d3a83c9721c498d9dc6ae4fb927d0a03895e85903af12d40cd2c6b01d1",
        "aa55370dd060fe7264c703be12a2627b1f7ccc8cdcc4b35f8a643b92b00cf67a",
    ),
    (4, 7, 1): (
        "72f89087cd71fe53d343cde34d25ac513c5c9bde3ac3995be60592fee576ea72",
        "dc5b4f0371fd247d64a871cf571d6a63a34917794054d3dc59aec6ddf15c0fb2",
    ),
    (5, 3, 0): (
        "8f348cfa136233dd102004f1b33252ef4d5369423a313d2a4b6844471cdd068d",
        "c40a91b322ea4d0f7a414eff8c8bcebc792f2dedf87c6f03c52abbff92fe24b3",
    ),
    (5, 3, 1): (
        "ee6097e8ff3fe15e1fc26cb8c919dbaed7ae99775d4bce1c7e4953c87dc8f5ab",
        "ecfe91180b12ad660974531e3018efcd0a3c2c594cdbcb77568d628d65baeb2d",
    ),
    (5, 3, 2): (
        "6359969ffaac6967ce1c9f2011edc4a5f5f6b468ed1b4feece1a318209e64c7b",
        "9bd926c206d1581d5b1e5ca78572da102e3292981be4c457cb05be320adabbcb",
    ),
    (5, 5, 0): (
        "70418196d0d3256182a09f1f959a3a064e51b243d64776415fc67f8d4902dba7",
        "e96c1863ed40c99092ae046c3e12a7b18c6f0abdb42985536cb94bef707a0243",
    ),
    (5, 5, 1): (
        "4d61f97a51c63f685641106dafc569c92e4b36842666bc5a75009cd45f414638",
        "41ff9bb08d7e5977cf585e7c4323368346b66297497b411991552f1a6e2edd1d",
    ),
    (5, 5, 2): (
        "168658a82e0475d6f7ff01780acf2e354e61f145c95d6beff3226ead3cd5461c",
        "35e628877deadb5628a66aa279e488ca378da3ef6adf3ee2779aace3aa19a748",
    ),
    (5, 7, 0): (
        "1da48f395407cb4d870f9a12c0d771f0c457d65329b58efe69b5a2df3273fd1a",
        "06def01037eee4db824afa0830c00fcec05276c8caab699bcaf86bc0df16582e",
    ),
    (5, 7, 1): (
        "7e2b9d764fcf4cb2e069be64d0f636fe71c05588f2b626c82f080456f7b3d987",
        "b4902750068547aa554e26c95cb5c5c084ef697df6d6ea35082b6ee5d529558d",
    ),
    (5, 7, 2): (
        "8a2410eab5779946d28e5edbeb4af58114fe7f4eddcbdc0eb30ccfa74c4f2d5a",
        "79057022410a17be6eaae263d9e29249d0a7e1ec352beb28af0372cf9b19bbbb",
    ),
    (6, 3, 0): (
        "4bad905e7bdca8b79e30842441e821d56e22f24e06fb8c59ed7bcb0722ee1641",
        "a4ee8bfc71d86833d0c275492ba77347459926f64aa63e2d047b1b8b324dcd5f",
    ),
    (6, 3, 1): (
        "7cfb90c35462757bdcf38c8be22a2f1b6cdc7cb35007709eb24097db032d0f8d",
        "e66c06557ff332d023c360cbc165688c705b30d1bb0a09e26b183be828479054",
    ),
    (6, 3, 2): (
        "b92e9d77c5cff6637abc227d0aecacd10f3409ae740d30ed2966d3f0d10f36da",
        "525f9cacc364ed5f7428e43efe4c07430e943251abd12cb6b311aca230e7e68b",
    ),
    (6, 5, 0): (
        "fec5a2f5857ce050a26623c3be242ea58f30054f1bcbf7c7724ff81a5059a9c6",
        "03cf65ccf7d747678435856e07995103911a57eb92075f51f95877e5fe209d28",
    ),
    (6, 5, 1): (
        "2506fd9d077c01ce148c12f27ef5bc262183f11745f1881da832f4cddedc2909",
        "7c2cd5df8afc292780b4aa6903a6b4a3f06fb753d3631332f019935ac3257b04",
    ),
    (6, 5, 2): (
        "e0cc3c7fa9f02822cedf675e76f530a8cb0f15f78b65d2093115abdb4417c5c0",
        "9fa730ac84eebe6e178ef1dc647b3c5d230f9f869c7f77593473ef6adac83d07",
    ),
    (6, 7, 0): (
        "2c161478e6b23d06beb090a5fc3cf3f5ea49522dc247161d47495420cf7b041d",
        "0ae2ca2aaf4b86c54c911d15f0960b633c2c833eb040978425173c91f8d99875",
    ),
    (6, 7, 1): (
        "03a6f468e4ab1b82a0092ed61bf6462de72035de74fd8c82b3ca5be3cbbbf3ad",
        "6ba88049d6d37dd32c369f10baa962e5a106013465e4ee0c1ca5323bcd5d507c",
    ),
    (6, 7, 2): (
        "a905691d081ffb2ea32fb8c00c0b5b9c013b025d0729db1d88cf9829551fd3f8",
        "487c34e00ea0685c2d10591bcf1e41581420b1c9c08924fa1ff40200a154a94d",
    ),
    (7, 3, 0): (
        "b5bd4742f8dd0167e42c868e3401e62d838deb0e8fe83445c32e06c90fa253f1",
        "9b4abed92d3d05fe4491870fd5b678257799f1b373b795de7e742d1cb992666f",
    ),
    (7, 3, 1): (
        "e8d05d5ff5c6cfc7b51ddccf02ce4c5701274a2b37cb5125415a2ffc37dae7a2",
        "4a5cd3bc683782d53f0978dcb7c7a6f48d48e9b75a8668c048e014475b44e739",
    ),
    (7, 3, 2): (
        "43782fd413440281b410c0c3cae39a6e62f3873bb2f28bb3fc9e5409c895e07e",
        "7cbebf822bd68626596c42aa3c9d5d82d9eeeb17a955907e04e06c88ebeb225b",
    ),
    (7, 3, 3): (
        "13c8af0e334e6a7ef99a54b7ac4287c07a44cc8d8cf2d71e7cdc536ffa83a804",
        "09378caa2f42599b90adfb87443d096635afa3d7cb03acd3ba412c01c7dc66c6",
    ),
    (7, 5, 0): (
        "8d73dfe46eb1e07b233d98318f3aab461708caeb445aa388baea1e3e521944d2",
        "bf57a4d82a672dfe63b4a15f8e8d513a0fd415b1555136efb0985b8bf38640d7",
    ),
    (7, 5, 1): (
        "24e4490cd2c84b379c9eb5a9047788b2d4afc257c41cb6f470717a8fefd81745",
        "05636b2a2d6ed17e3d25db66a91abaa51c23d0124afc9c04a5232b073706113e",
    ),
    (7, 5, 2): (
        "84dd6b6ba5056e38d9e02645bee4b02c3a1103ce72509ca6ef8b70d7a17f5847",
        "8107e12b0f4d8fd9a384eb4c4cf940020969fe98f5c6380c26449dec2ecce4d0",
    ),
    (7, 5, 3): (
        "31b5532d494c5c08afa1cd26d06b3b9aec0c8c9ed2957c64a9bd05a39b655fa0",
        "3758b366c4d51a560ee91c9287628aa8441df950aa4c5b9c0895aa93ab7a4e6a",
    ),
    (7, 7, 0): (
        "69e7ad254c56a6a2fe06ddc05bb826858f288cf56c6b91269ddffe99d2a20c10",
        "b4b3ff535f8f8b32e7963d5565580e6b5353732e5dbf7b931613e0aea7c0d64e",
    ),
    (7, 7, 1): (
        "ea320dbf67416405723bdb37fce1722a9ae8c1340bc783e2b3e8ca8361872f5f",
        "cce31c3940dbb2a81f8633d9a20aaee1cbe48aeeceeca0ba09c4ed0fe5024d02",
    ),
    (7, 7, 2): (
        "059db5a48c9393bba60d7ed9787465aa29c26c9593f97e9bbab61cee2d47f35e",
        "c418a2a978dd98f05c8e7bc435d9ed97681054add897e3fb4eb230666f94e0e3",
    ),
    (7, 7, 3): (
        "80113843945cd8e8f69999e1b7ae9c7c706a6fb509ef7d75b2e6a8064df98c6a",
        "05239488159ea71af178794b41f5adf19ac396e729449eefa028e73b8b47777d",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_grid_is_every_ell():
    want = {
        (m, n, ell)
        for m in (3, 4, 5, 6, 7)
        for n in (3, 5, 7)
        for ell in range(construction_range(m, n)[0] + 1)
    }
    assert set(GOLDEN) == want and len(GOLDEN) == 42


@pytest.mark.parametrize("m,n,ell", sorted(GOLDEN))
def test_build_output_unchanged(m, n, ell):
    d = construct(BuildRequest(m * (n + 1), n, ell))
    assert (_sha256(serialize.dumps(d)), _sha256(serialize.to_text(d))) == GOLDEN[m, n, ell]
