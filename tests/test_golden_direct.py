"""Golden run: `extract direct` under the oracle writes byte-identical files.

The digests pin the run's ledger, its manifest and every product file, for one
60-page corpus. A performance change must leave them as they are; a change
that alters them on purpose updates them here and says why.
"""

import hashlib

from click.testing import CliRunner

from prodex.cli import main

GOLDEN = {
    "ledger.json": "940f95d4b7e1f8a316259d8bee580fb1c2c920161a1b45a8a6610041f72ccff2",
    "manifest.json": "c5ebad4775a0399eeaf6f180269bd8c5494668c8b00224ad5262dd51adbcaf01",
    "products/gamma-0000.json": "9385f4e78cbb52663ca6b6ff7e5181167350d3b6fbb0ffa41c5f84ddb586fe67",
    "products/gamma-0001.json": "35527af4cc9680da96ef1e61794fa31f766aca334d6af7492a8e5faf14503216",
    "products/gamma-0002.json": "3481b1491c0e5b646c7c23be9a4829d7b963d3aeeb8a9c97d60662ff65d6b91d",
    "products/gamma-0003.json": "aed70e0814ad1a10f9c87a150b174d60c6bb0450216057a0ed9ed82db339c29e",
    "products/gamma-0004.json": "6552855ab25f342f071316f051e1c814f5ff05e43a0b5a77cb6dc594ef8b2111",
    "products/gamma-0005.json": "e5f80d8d6f9b1e098e0a384730c3199a44b35df7c417f0a67906c9d2a2b8b314",
    "products/gamma-0006.json": "a6640155727e9cad75a950905cd5ec54a09bd10884efddff2b7ce05e55a16117",
    "products/gamma-0007.json": "e6ae3d89cef76153346c39218c225a267eb17f0c52b350524b526b054f34130d",
    "products/gamma-0008.json": "1ccdf0c43b8288ddd1f93c5aa9b7fd642d3d75f79db722e73f3213c28bc96554",
    "products/gamma-0009.json": "c2be9dee18e2551baf156cb2025f0a05bfd55cd13de28320d2c396fe3795b5f3",
    "products/gamma-0010.json": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "products/gamma-0011.json": "9af1a9d4faea3cf31fddd106ef809cd787dc9047d0c69060276a2de00663c809",
    "products/gamma-0012.json": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "products/gamma-0013.json": "9a14b528ac17211ff854b79310cbb4912aa56251c3760a416bf5969960bcfc90",
    "products/gamma-0014.json": "876904f34d2451ea36b5c90456b0ca12287e83e45efabe1f704dc4033dd8fc15",
    "products/gamma-0015.json": "b6ce3fba86dd87b48ecf2c2f98b7d9096b40721718c39536a486cfefa27f66e9",
    "products/gamma-0016.json": "8d8e1cbac62f45c151654405db7f3a1c013e25042a8ccf578d974a209aaa06ce",
    "products/gamma-0017.json": "e394af271bd6655ab15f0710ebb2f90b5f8131e66c8c7798ae152f60e0b163ad",
    "products/gamma-0018.json": "f2bc50b19b79bbd960e52e31cc0e7559dfcaf751bf8c8d062024d015425dc85b",
    "products/gamma-0019.json": "307c37aafd6991e5086d5911b48cf9a9f7e39b831f1bda585f9042aae8829526",
    "products/gamma-0020.json": "1429b2ae3b20faf1af006f7c793d6b6fae2e0798fc89e465132af62227d329f2",
    "products/gamma-0021.json": "63fa9f36d858a89527908b1355a6bb0970033f157218b5fac95d583aab59c399",
    "products/gamma-0022.json": "f3ad1f63ea76ce81cd2eb51b9ba7e5f4149db41c90c4cdf9686397cfa10deb88",
    "products/gamma-0023.json": "a4406f1a4ca6d6a3ce442b25a587ba8aa68e8900789835e7dcb1ad0dd6e91ccd",
    "products/gamma-0024.json": "cf5eb237dab8c501c80061cc4958375c789db4afdffc4b10114c645914dce7c5",
    "products/gamma-0025.json": "a927843ce8b064fb9398a9896d9d80f2ffa03f6988188504f50a1984e5f19060",
    "products/gamma-0026.json": "99485b1a9aae8539562ab33b870dc277a5b34ecd6b05ef57a67da55130e27485",
    "products/gamma-0027.json": "9d119f48b782c9035500abe455c607139dba6fcd133cbcb60a30f5f12a1fe29a",
    "products/gamma-0028.json": "9af52b97946e4541d59dadc28785eaaabb92874ad77ea8b60c7bf3dbba70939d",
    "products/gamma-0029.json": "c1486c5140367f05b1596e3508fb6641775d1279387a272f2212b5995702a25c",
    "products/gamma-0030.json": "0d6140c5ea0f560ac963bacfb1f4e5521c207dcac8ac52ea466b9f7d87ee2e41",
    "products/gamma-0031.json": "2e5c977338f3926863ab541d4777e7d96f18299337a384012fc2f40978ac7137",
    "products/gamma-0032.json": "85846f375248124ae93f1b40bfd0115a4884063d0b3c1335cf9cc6b9bfa7ea2b",
    "products/gamma-0033.json": "552ae3acbf4ea7513ccb9aa62f995bc1dbb6fdddccd30de59a5358c455e8e624",
    "products/gamma-0034.json": "abd587cafc0200ba1345b36ff26eaa2ad0985d1abcd4bb0abadfe76cf5241d16",
    "products/gamma-0035.json": "e16aa4d8fab7aa54587cddefc4c3e1abbcf8889d3fc16fb5fdb785fa5460dc97",
    "products/gamma-0036.json": "bf4a4171bb90b08143232d7c2c3aadc54dd74a763da1e57b441b6b843c0a5f3b",
    "products/gamma-0037.json": "bf3757b7c7f0b210cc3f85537fc0beff1ff96649a63a7377e02457c0f39e306e",
    "products/gamma-0038.json": "75af40cb1be803be1846c1104246ee95577f10d4fda800c16c73a953b739f5b8",
    "products/gamma-0039.json": "2120bb92cfca1c7526b2b9afac879b6e96aeb8feab581cccc631b641a071f491",
    "products/gamma-0040.json": "7c02a488a355dc7bf98f747ad1c2eaf543a732ccdf72d9f9675d1ad360807f7d",
    "products/gamma-0041.json": "fe509d1ef03b3a22a4ea8a279d6d61b78d63ccee75a48cc58859924673abb57f",
    "products/gamma-0042.json": "2e2d0a68b28cf6a00c5908bf89e9d67bc318e8094c0efb6570dd3ac94ff01af5",
    "products/gamma-0043.json": "093ce4b742014720cb571e1e6786bceedc8abf15d90ade4d1b9ccbe1b80d8751",
    "products/gamma-0044.json": "e3535f91fae86c2d82f81b03212fe6ba87233c9cf6edf9a2bb7872577ca3226c",
    "products/gamma-0045.json": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "products/gamma-0046.json": "4dc17ba41089f9ab8e0b79ab23b711b70fe20ee8bfeedbc5cc1e772c07c1eb4e",
    "products/gamma-0047.json": "0406499d2d49b9d38dd441c07dad869fa8439894901cdb44d9bebcf47fc20a14",
    "products/gamma-0048.json": "7244d9b55b417e9fbe005047660e9bca5380004c8ad33f6c3b1352f370425938",
    "products/gamma-0049.json": "c942f91062458ba95f0f9da3a7e68d66d3a5f5ceecbd5d8d11464adc7e6b2eb2",
    "products/gamma-0050.json": "9471c3e142ce1253f112654490b909e4bc015af0a338c19fe09fbf4151de6224",
    "products/gamma-0051.json": "2f4a66f59e28d5451146e915c834cd1f7a4e4e7622171fedbf626e52eadd30cb",
    "products/gamma-0052.json": "f3dda37f54f9170620f291106046c8af8d927c943c3ef4b61b1c35b5f9c6d587",
    "products/gamma-0053.json": "e99ecdb155ac34aa40619fbb7da9bc749f675898aaa5f4024de65e9ddb6cb47c",
    "products/gamma-0054.json": "19fbd5ade04118e090ec261b9a02668c21adf5920f4fff43f9f8de9469d6a06d",
    "products/gamma-0055.json": "e40b14fdd99a9a3c67cb14a101a5c816ea83496d78736e2a22c4f33e4f351b2e",
    "products/gamma-0056.json": "b3ae10f234c1131f8a87048a9b785c03dddbc75bdca341f20b0c3b392c1410b4",
    "products/gamma-0057.json": "25275e31f19f2969dd10598652dc4e88797770d9503202d287a47266b562bd35",
    "products/gamma-0058.json": "55da4cad3d40d4d36354bd7a9098951fa91e985cb4883c6a691460ceedfdda3b",
    "products/gamma-0059.json": "da76f8892442eecaf1da332b2e80cb09f0e8bef5fec5daf7d1b441522479a775",
}


def test_direct_artifacts_are_byte_identical(tmp_path):
    runner = CliRunner()
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    result = runner.invoke(
        main,
        ["corpus", "generate", "--preset", "gamma", "--pages", "60",
         "--seed", "7", "--out", str(corpus)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["extract", "direct", "--corpus", str(corpus), "--out", str(out),
         "--provider", "oracle"],
    )
    assert result.exit_code == 0, result.output
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.json"))
    }
    assert digests == GOLDEN
