"""Golden digests of the deterministic CLI outputs.

bd-grid, bd-sweep, bd-measure, werner-sweep and iso write the same bytes for
the same command line: their metadata holds no time, and their values are
computed in a fixed order. These SHA-256 digests pin those bytes, CSV and
JSON, so a change that means to keep every output (a faster grid or table
writer, say) shows here if it moves one bit. A change that means to move
outputs updates the digests and says so. werner-sweep --n 5000 and iso
--n 4097 span three blocks of the table writer; the iso tables hold Bures'
empty columns and, at omega = 1, re's -inf formula.

The values go through libm (sqrt, atan2, asin, log2) and, for werner-sweep
and iso, numpy's array loops, whose last bits may differ between platforms
and numpy builds, so the digests hold where they were recorded.
"""

import hashlib
import platform

import numpy as np

from nlgeo.cli import main

RECORDED_ON = "CPython 3.11.7, numpy 2.4.6, Linux x86_64"

ALL_KINDS = "--kind hs --kind he --kind bu --kind tr --kind re"

DIGESTS = {
    "bd-grid --grid-n 10 --kind hs --format csv": "443ad0fdb6e63228d7928dfb4c49c09e916436ff4db05016ab849a7e71c2a789",
    "bd-grid --grid-n 10 --kind hs --format json": "1a3e162e11f956c55673bd71db5fae7d5a9fae7cff96eb2ceb25d82339a6346d",
    "bd-grid --grid-n 10 --kind he --format csv": "d3aaa99046fe76e7c916c727048de1e0e8e5e62d1a6559b57fb603a95a48ad0a",
    "bd-grid --grid-n 10 --kind he --format json": "7d3c4a46e6c98eb4569deda4e6a65fc6e859bc8785cdb91a171fac259e2c9d6a",
    "bd-grid --grid-n 10 --kind bu --format csv": "0169597aeb9f764b1424f55967a3c09f1753e0c4b281523eecf4bd4a6d64aa73",
    "bd-grid --grid-n 10 --kind bu --format json": "068f52368964371ddacda8a8dbcc0fc654d4108eaed4310867fd9dbb41c79ad3",
    "bd-grid --grid-n 10 --kind tr --format csv": "14c3e57eaa3df537e475139e4897a0315c9806454a4d3e077d6ad07ea096a991",
    "bd-grid --grid-n 10 --kind tr --format json": "b9488db839a86b71fd6db36208c288383f5e0743b99c8345cb025a64181fb95f",
    "bd-grid --grid-n 10 --kind re --format csv": "cee5859e5f979f99515604a7e8425bd17641cd4c8d796b33cfc3ac37a2c8e023",
    "bd-grid --grid-n 10 --kind re --format json": "2ae2cc99f1fda0f032c0741da2b23f7669e9dd5c21c4eda5785c9214b6062a1e",
    "bd-grid --grid-n 11 --kind hs --format csv": "cda1241513ebca20d6fea856127a54be89b0cd140bc463d44e939cf8581569ee",
    "bd-grid --grid-n 11 --kind hs --format json": "ea86d26b1a46855248209499b9240f8dc7924abcf1b57d2f135816ab40256704",
    "bd-grid --grid-n 11 --kind he --format csv": "4afcc4b7eb6ef4871e3258a992e5ba665ec2ec166c0b89a21e7c5a4d004157ca",
    "bd-grid --grid-n 11 --kind he --format json": "bde6fc19b7af475ca5f852b08d01c62a614f8f1d669b26bbdbb18b1a024db44c",
    "bd-grid --grid-n 11 --kind bu --format csv": "4b786a5ea221d914b5e2c82d0bc44b2df7ac86eaeff49d408915def03384c16c",
    "bd-grid --grid-n 11 --kind bu --format json": "fc992996628af351d765fdc49744b9c8a965857aeb37aedd7e4b0a0d752fd5aa",
    "bd-grid --grid-n 11 --kind tr --format csv": "c07d53537606083d70cc57e271063c836204f2ba6d7e6a054339c8b7b43de400",
    "bd-grid --grid-n 11 --kind tr --format json": "f880731983304dce55de60ceb6422858e6468855c44c21267af14f5710e353a4",
    "bd-grid --grid-n 11 --kind re --format csv": "4da618118d3837ea09187ec6f9783bfc7fb335171a5b72dabe3587b72c6f1e75",
    "bd-grid --grid-n 11 --kind re --format json": "7af54692d8b334d0f668bf2fae8261448aea4402b52d6e63caa114147ed64824",
    "bd-grid --grid-n 20 --kind hs --format csv": "42d0476cebc53df567e46fccf956bcd8a795d94a8f173773d5c9085d9959ae89",
    "bd-grid --grid-n 20 --kind hs --format json": "13dd9adf6e4bdb335f163765a23c91dd4dc5df12263c88c2ea1d0329b8c4576a",
    "bd-grid --grid-n 20 --kind he --format csv": "04c4d3055903e70b6174d9c72a68c34f62de14965bab9a7363aaf8319c57d372",
    "bd-grid --grid-n 20 --kind he --format json": "c700581a4b7c4f7b844eeef81feccd65beac62b78ec47996053b8785eee2d453",
    "bd-grid --grid-n 20 --kind bu --format csv": "2da746cba5ed3da32729bf35fe31d116a08d587c861b272485c96f8f9693a4be",
    "bd-grid --grid-n 20 --kind bu --format json": "8d919a5d1f2ea7b1ac6ea11e3d1eb945cffb19d71a6e2b7c84b85310b579e3e7",
    "bd-grid --grid-n 20 --kind tr --format csv": "171d6d95bff5f190f34f4a7f36d30856ef63c4500bea785aab5ee444aacb18a9",
    "bd-grid --grid-n 20 --kind tr --format json": "7642e2d3840a60d0c7d78706649bbe42615ed3e9a35b0ffce40bd2f5e2d68ab6",
    "bd-grid --grid-n 20 --kind re --format csv": "2f7e6031d9b47b038723adc3b0769c8f557802908147b091ff6fffae66f6011c",
    "bd-grid --grid-n 20 --kind re --format json": "becb4be6d6a2401a8d7bbb8b94efc0aeed40d348533b889ee35e38f4db0e771f",
    "bd-grid --grid-n 50 --kind hs --format csv": "4b36de77c55ec287ffa90b27921fe20e8d729b6e8cb90b74bfe595eee8fbff2a",
    "bd-grid --grid-n 50 --kind hs --format json": "7d6baf312988f990e8b14476c5e0681c392e87b2aa6d4f7889ce57acf040b51b",
    "bd-grid --grid-n 50 --kind he --format csv": "5a92c54a5cb458c27b7223e1a3efd3f05bfc3882fb39213ad8d8ee90c45dd55c",
    "bd-grid --grid-n 50 --kind he --format json": "9e6e77833a3a182197df8455dc6f4199a50db5195f6800a0e7f3ae7371fe8aa1",
    "bd-grid --grid-n 50 --kind bu --format csv": "8d741666e336366ca2583cb9e9c85dd54adde1096ef39f2ec5bf2cac606b4934",
    "bd-grid --grid-n 50 --kind bu --format json": "ccf449ca097ba7d9205bd2cc2f30162237c7fc4f667c9fb8aa96ae70d14fd29e",
    "bd-grid --grid-n 50 --kind tr --format csv": "40787374f48d5fcdc1c0d76fcf7dd4fd4233c25def74133955548d2eeefa4a7b",
    "bd-grid --grid-n 50 --kind tr --format json": "040de18060935427f3bbd94883ee852afcf8d51ce530a45b5cefd4c062207c2c",
    "bd-grid --grid-n 50 --kind re --format csv": "497844dcb9790787fed40da786e5ac45e5efa1c9e6669ab422d17fe94771be33",
    "bd-grid --grid-n 50 --kind re --format json": "4f0b419cc3999d9f0b3de19eb011a8e807aa556b6faa88388394931d9f8f788a",
    "bd-sweep --family two-bell-mix --n 51 --format csv": "7917201ca4f9204b892909db8504c4ec344a205eb0c6b84315e6281fa70587b6",
    "bd-sweep --family two-bell-mix --n 51 --format json": "6e8dcd161e020f4d5b0286631ebcaf12aaae1d63f525fd4506aa370ae4592baa",
    "bd-sweep --family werner-line --n 51 --format csv": "04f87cdad68e18798bf76dfcd8a8b1a3b445ce3c7c023fba8258a06a06a895d6",
    "bd-sweep --family werner-line --n 51 --format json": "364f9e0e5311dc1ee541f103628a3a1d6359522a872192436bfa121da749086f",
    "werner-sweep --n 50 --format csv": "bb7620de4a8a787a750a9daee4bac13fe256952995c356cca86e64466dcc8156",
    "werner-sweep --n 50 --format json": "e705ab72287ba0e9fb61a024e3193e24a90ed999d7f5122450e722e45d864d14",
    "werner-sweep --n 5000 --format csv": "0350d3fdd6164a500cfed7134f54424edfbe95d6f0474c41367978d5fca6aae2",
    "werner-sweep --n 5000 --format json": "2791614b448675e916d2b9f8e5187330e6f4cfa1b140d3243ba72ea777ca3a79",
    f"iso --d 2 --n 4097 --omega-max 1.0 {ALL_KINDS} --format csv": "1c353ddeba528ddc0552d4de07c9af4ec2881f4ca7edfff6985f1f7269efd345",
    f"iso --d 2 --n 4097 --omega-max 1.0 {ALL_KINDS} --format json": "07685086a7492aee225acfcbb48fd3f6f290f41272034d27f0f8ecac53891459",
    f"iso --d 3 --n 300 {ALL_KINDS} --format csv": "4dae21da4d5318b25863db5bcfd0551f7c3b452e76418c3bc74cca136222b02b",
    f"iso --d 3 --n 300 {ALL_KINDS} --format json": "e5d4f2c7feaf30d44ef430232fe5093d28e3aff8b5fa6fd888295baf6b11eca9",
    "bd-measure --a=0.84,0.63,-0.5 --format csv": "292c5662bd8c5d4dab58216e6b5e19bcf9a64af9dfafc27267ef1d1a0d515515",
    "bd-measure --a=0.84,0.63,-0.5 --format json": "3bfac02e565029cc5746a145328ae42f0645095e4f0398833390380a0b3d4b4c",
}


def test_cli_outputs_match_their_recorded_digests(tmp_path):
    out = tmp_path / "out"
    moved = []
    for command, recorded in DIGESTS.items():
        assert main([*command.split(), "--out", str(out)]) == 0, command
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest != recorded:
            moved.append(f"nlgeo {command}: SHA-256 {digest}, recorded {recorded}")
    python = f"{platform.python_implementation()} {platform.python_version()}"
    here = f"{python}, numpy {np.__version__}, {platform.system()} {platform.machine()}"
    assert not moved, f"digests recorded on {RECORDED_ON}, this run on {here}:\n" + "\n".join(moved)
