"""Byte gate: the exact output of README's fast commands.

Each case pins the sha256 of (exit code, stdout, stderr) for one command
line.  The `wall time:` line that `verify` writes to stderr varies from run
to run, so it is dropped before hashing.  A refactor that must not move an
output byte has to keep every digest here.
"""

import hashlib
import json

import pytest

from padicsums.cli import main

_SMALL_CARRY_GRID = "p=2,3;alpha=0..2;n=1..30;r=-2..4;l=0..3"
_SMALL_PLAIN_GRID = "p=2,3;alpha=0..2;n=1..30;r=-2..4"
_SMALL_DIFF_GRID = "p=2,3;alpha=0..1;h=1..2;l=0..3;m=2..12;n=2..3"


def _formats(argv, formats=("md", "csv", "json")):
    return [argv + ["--format", f] for f in formats]


CASES = [
    *_formats(["table", "one", "--from", "19", "--to", "23"]),
    *_formats(["table", "one", "--from", "19", "--to", "21", "--with-max"]),
    ["table", "one", "--from", "19", "--to", "41", "--golden"],
    ["table", "one", "--from", "10", "--to", "20", "--golden"],
    *_formats(["table", "two", "--golden"]),
    *_formats(["table", "delta", "--golden"]),
    *_formats(["verify", "carry-bound", "--grid", _SMALL_CARRY_GRID], ("md", "json")),
    *[["verify", c, "--grid", _SMALL_CARRY_GRID] for c in ("polysum-bound", "binom-weight-bound")],
    *[["verify", c, "--grid", _SMALL_PLAIN_GRID] for c in ("plain-sum-bound", "totient-bound")],
    ["verify", "equality-conjecture", "--grid", "p=3;alpha=1;n=5..40;r=0..12"],
    *_formats(["verify", "stirling-diff-bound", "--grid", _SMALL_DIFF_GRID], ("md", "json")),
    *_formats(["verify", "stirling-diff-bound", "--grid", "default"], ("md", "json")),
    ["compute", "ord", "--p", "3", "--x", "162"],
    ["compute", "ord-factorial", "--p", "3", "--m", "100"],
    ["compute", "tau", "--p", "3", "--a", "4", "--b", "8"],
    ["compute", "binom", "--n", "10", "--k", "4"],
    ["compute", "stirling", "--k", "10", "--m", "4"],
    ["compute", "mstirling", "--k", "2*3^L+28", "--L", "5", "--m", "30", "--p", "3", "--E", "12"],
    ["compute", "ep", "--p", "3", "--n", "29", "--k", "2*3^L+28", "--L", "auto"],
    ["compute", "ep", "--p", "3", "--n", "28", "--k", "2*3^L+27", "--L", "auto"],
    ["compute", "stable", "--p", "3", "--n", "29"],
    ["compute", "bound", "--p", "3", "--n", "100"],
    ["compute", "delta", "--l", "30"],
    ["compute", "ord", "--p", "3", "--x", "0"],
    ["compute", "ep", "--p", "3", "--n", "10", "--k", "40"],
    ["compute", "ep", "--p", "5", "--n", "12", "--k", "1*7^100+20"],
    ["compute", "ep", "--p", "3", "--n", "80", "--k", "1*7^70000+90", "--precision", "1"],
    ["compute", "mstirling", "--k", "10", "--m", "4", "--p", "4", "--E", "3"],
    ["compute", "mstirling", "--k", "10", "--m", "4", "--p", "3", "--E", "0"],
]

# Recorded before the bound-table refactor of verify.py.
DIGESTS = {
    'table one --from 19 --to 23 --format md': "03b69c1b2f6b9f79789c2d5878932b88b591179199590e58c4d9871e8eb1256f",
    'table one --from 19 --to 23 --format csv': "101a043327239786281c057dadfaf1afa8860901af0589ccc4d0988953d52d5c",
    'table one --from 19 --to 23 --format json': "f464b75d997721eafc509af4182e05886c7e35e7cd96f033c331a9bd4fa1bb71",
    'table one --from 19 --to 21 --with-max --format md': "eabd935d3cc70a79f5263a2d671842c2bda3c86b93850c0ba8cf109da2c43478",
    'table one --from 19 --to 21 --with-max --format csv': "d9bbae8fb8e471d7d23602d35eb8c1fee0a080bf98494bf23d14b8863f2bcdde",
    'table one --from 19 --to 21 --with-max --format json': "35e8f87818a47ed8bd1c72e900502f68b31bc2eeb420c3a5d525d9fc13c880c9",
    'table one --from 19 --to 41 --golden': "919f64a326a8cd5900968643926e0f04d67ba1f3525f96df8a5ef8e7ad4a4705",
    'table one --from 10 --to 20 --golden': "2d95d34092e930f047ce244e89fb3890d5fc67c0b00babaa3044c2622c5fa2c8",
    'table two --golden --format md': "1619d29be10cdad54df376d3291bdca823edab5903570779eebf715b20e94e45",
    'table two --golden --format csv': "c33770edc07b81cc177a20a363892845c2e532c18e5ea496fd85f0560bf823b2",
    'table two --golden --format json': "20ef4b3825ca26430f0b91f65ad82df5ccf088a3fda8db5aea96e06b8419cebe",
    'table delta --golden --format md': "9d3f3f23b0e3c607b56f9d73b1886390688593f801c317a9749f944d548c5157",
    'table delta --golden --format csv': "d4af9324c454bf481b78db19b28bc4908b0e3113228bf66d15067d0742288c9c",
    'table delta --golden --format json': "4c47107b12ed3b559ad362cbf24bdbc324723aef095d348f320f21d759607bcf",
    'verify carry-bound --grid p=2,3;alpha=0..2;n=1..30;r=-2..4;l=0..3 --format md': "402dc10241ce182543239e7d62063748ba0def764709ad849ba633146a86659e",
    'verify carry-bound --grid p=2,3;alpha=0..2;n=1..30;r=-2..4;l=0..3 --format json': "2fc707d14f8435a4b607c70bee6f932537dddf127e999751256bb2c3bae330c9",
    'verify polysum-bound --grid p=2,3;alpha=0..2;n=1..30;r=-2..4;l=0..3': "08093e81543f14869dd412e554c5b64bac94dd054626cbdd146e7a97216b9871",
    'verify binom-weight-bound --grid p=2,3;alpha=0..2;n=1..30;r=-2..4;l=0..3': "309a5b3c7e6143285c1c2a264ef917a485c2660d67dec888778fe0f7d1f60de9",
    'verify plain-sum-bound --grid p=2,3;alpha=0..2;n=1..30;r=-2..4': "75a824bb19d49e0b72a35ddcc6b347417cab606048fde50813271db7a7a298c9",
    'verify totient-bound --grid p=2,3;alpha=0..2;n=1..30;r=-2..4': "7445ede0e7170a08c3e4bd2a5838add5d5685356604d45b7750e1515f1edcd4b",
    'verify equality-conjecture --grid p=3;alpha=1;n=5..40;r=0..12': "5810763f7a6c47cb66a3848b3d4ec330d74b1dbf02d06c0886f0801fb17f89e3",
    'verify stirling-diff-bound --grid p=2,3;alpha=0..1;h=1..2;l=0..3;m=2..12;n=2..3 --format md': "cd4d2ef4426de3a95dd0d446bfd2ace575494394b43136b5b6c193d135b3be2a",
    'verify stirling-diff-bound --grid p=2,3;alpha=0..1;h=1..2;l=0..3;m=2..12;n=2..3 --format json': "d4f11e2fa3500f420564e8d0f76cad4d0abe83fdb00eae106dd4dc56b260db8d",
    # Recorded before the factorial-tail cut of the stirling-diff-bound kernel.
    'verify stirling-diff-bound --grid default --format md': "3d683620d72bbc41f0f43bc048fda4452ce32336df269f853e75dab336af0dc9",
    'verify stirling-diff-bound --grid default --format json': "959eb0158b36bff1e16a3ce135d4c7fc4b4a82e14ae53ad80c1e437b199f9c59",
    'compute ord --p 3 --x 162': "3b1dbe891b9b6bcf901575fa71a2e045ffa3289d1405e1116b63f7a1a5a566ce",
    'compute ord-factorial --p 3 --m 100': "ba45385e8052dff3bbf9da1540de06a0016f60b44b0dc8fab9ac62452c03b15d",
    'compute tau --p 3 --a 4 --b 8': "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5",
    'compute binom --n 10 --k 4': "3ff240d4aeee02dd38768714bd081bd58be8062c7b78acc43b6f14c0b92cfa14",
    'compute stirling --k 10 --m 4': "86928e6ed6d742613b1991594fe44b2b0cc40d5b9b5de90b2c4219ba7d9cd4b3",
    'compute mstirling --k 2*3^L+28 --L 5 --m 30 --p 3 --E 12': "202b5be84c03ac5c7afcb513d8c5f681b48d4183e68108e883f3ee0dfe5bc160",
    'compute ep --p 3 --n 29 --k 2*3^L+28 --L auto': "21e3c309103365fe3a4aa2d23dee34be847a1ce28e9cbcd5eb2245d85a80bcee",
    'compute ep --p 3 --n 28 --k 2*3^L+27 --L auto': "2468530a915a87317a32063dbe34c96cdda453ae4723f7ffeaff26e198f9239d",
    'compute stable --p 3 --n 29': "d351b0d3a2ff00e31468ffd2afe692f6dde4de217ea641bddf88051a35cca183",
    'compute bound --p 3 --n 100': "57083f74cc055ce38b2659fb4c4eafc54f016a78d46fce77c4e60d0ee99c4fde",
    'compute delta --l 30': "3664dc7cef1188c7bc0ebd9e452a0856d6c63e57239371f5f4dda2f0d1eaaa03",
    # Recorded while orders, residues and e_p values were still wrapped in
    # value classes: the infinite order, an exact and an uncertified e_p, a
    # PrecisionError floor, and the two ring checks of m! S(k, m) mod p^E.
    'compute ord --p 3 --x 0': "1abdf347a6ade33166f8f94629543925ab8a58217c9eb21602c5a16737740642",
    'compute ep --p 3 --n 10 --k 40': "4f694ea6e08360b57197d2e80150c17f8ad604b15b56615e1490a04d790d0ab3",
    'compute ep --p 5 --n 12 --k 1*7^100+20': "cdc10af0e5746698642e9bb534eadea63686f72af3b5dc458036bceb71c04d3d",
    'compute ep --p 3 --n 80 --k 1*7^70000+90 --precision 1': "e22804f9ded931367fa4a61f83e9861d9693f6e9ed6d78fb48f318de436d8b3d",
    'compute mstirling --k 10 --m 4 --p 4 --E 3': "f636387ace4d81c6bc897ec1c0b89bfd9bcbafa780be73c797b8a9a4431e246e",
    'compute mstirling --k 10 --m 4 --p 3 --E 0': "3306bd8d1442780f0bfc255488d6d5bc31cffc1e97ce1a69cc52fdc075760ae3",
}


def digest(argv, capsys) -> str:
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    err = "".join(line for line in err.splitlines(keepends=True) if not line.startswith("wall time:"))
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_bytes_pinned(argv, capsys):
    assert digest(argv, capsys) == DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("fmt", ("md", "json"))
def test_default_stirling_diff_grid_bytes_at_two_jobs(fmt, capsys):
    argv = ["verify", "stirling-diff-bound", "--grid", "default", "--format", fmt]
    assert digest(argv + ["--jobs", "2"], capsys) == DIGESTS[" ".join(argv)]
