"""stdout bytes of a fixed set of commands, pinned by sha256.

Reports are byte-identical across releases and interpreters: these digests
are the same on CPython 3.10 to 3.13, and a rewrite of the report rows, the
identity checks, the partial sums or the JSON writer must keep them.  The set
holds the README's four commands, ``verify`` in every format for each parity
shape, pretty ``sum`` runs, rows that ``partial_sum`` takes from its tail
path instead of the term-by-term walk, or past the walk's reach (each digest
taken before the evaluation that now prints it), ``compare`` tables in csv
and pretty that cover every baseline series, mu-family rows past the fixed
point where their recurrence stops stepping and alzer-h with alzer-H in one
shared pass (both digests taken on the code that stepped every term, one
series per pass), ``compare`` tables against pi^3, pi^4 and pi^6,
``numbers`` tables of both kinds in every format, up to the index cap, a
``sum`` row whose bounds have more digits than int()'s 4,300-digit limit on
str(), and the ``--help`` texts of the parser and of three subcommands.
argparse wraps help to the terminal width, so every command runs with
``COLUMNS=80``.  The digests were taken on CPython 3.11, and all of them
but that last ``sum`` row's two, the help texts included, held on CPython
3.10.13, 3.12.1 and 3.13.0 too.  The two pins of the mu-family's fixed
point and the shared alzer pass were taken on CPython 3.11.7 alone.

The module needs nothing outside the standard library, so an interpreter
without the test extras can check the digests too:

    PYTHONPATH=src python tests/test_stdout_bytes.py

prints each command whose stdout differs and exits 1 if any does.
"""

from __future__ import annotations

import hashlib
import io
import os
import shlex
import sys
from contextlib import redirect_stdout

from piforge.cli import main

PINNED = [
    (
        "numbers --kind bernoulli --max-index 12 --format json",
        "51e5135190e2cb48b426ed3d9748d8ba393197206929a82e9bdc118049a319b1",
    ),
    (
        "verify --powers 1-6 --k-max 64 --format csv",
        "4b7c562be4b949463ec4d54e35b305d01d3d7618ebf67a70ce27c59e825d7c7f",
    ),
    (
        "sum --series gupta:p=2,k=2 --terms 10000 --prec 128",
        "08e9344b32ea2d8085a740e4dfa345bbf4b1a5e04ff1ea77c1404e835b1cba06",
    ),
    (
        "compare --target pi2 --series gupta:k=0,gupta:k=2,kolbig,alzer-H --terms 100,1000,10000 --format csv",
        "71d92739a03a367769a01df53d060e85206d8415807311e146bf07615a4d02b4",
    ),
    (
        "verify --powers 1-6 --k-max 40 --format json",
        "29375dd2030f45db4e6d1314cf0031ab68b8c7d4b2619be622da789624067bcf",
    ),
    (
        "verify --powers 1-6 --k-max 40 --format csv",
        "37631513d03c6e81dd3a432eb25dcf5930239b39ed32e1a3587976d7c7b4ccde",
    ),
    (
        "verify --powers 1-6 --k-max 40 --format pretty",
        "435abadc3d5dc7d3c6f98c5d291af0ce89638db20db6813c54e6474d0579d0c1",
    ),
    (
        "verify --powers 1,3,5 --k-max 45 --format json",
        "f6b214e37b1c2c951720dff8b097543e58bd0bc7b6f6b67f4d637aef04af93be",
    ),
    (
        "verify --powers 1,3,5 --k-max 45 --format csv",
        "a326ec15350d02c6a5a02e14496f4852efa24ac74db61d6683e8369403bacb0c",
    ),
    (
        "verify --powers 1,3,5 --k-max 45 --format pretty",
        "8522543451b0e6a3f67aee2a6e5304915d0a9760a96a08ffd8c35f65444185cb",
    ),
    (
        "verify --powers 2,4,6 --k-max 43 --format json",
        "d06e275930cbc34edeae77e61f2ed0df5421a78e95b1d57a2e0ba10dd230595b",
    ),
    (
        "verify --powers 2,4,6 --k-max 43 --format csv",
        "5d3c77d3041f283bf6ef82c54a826588c2b2a03ea22fd98bcb2f4875ff7bef1e",
    ),
    (
        "verify --powers 2,4,6 --k-max 43 --format pretty",
        "ea53feb2624b7a4101e82c363152ebe4adc55575adb652008a02cc4746977eae",
    ),
    (
        "sum --series gupta:p=5,k=3 --terms 3000 --prec 96 --format pretty",
        "d2420c42b16baea079471d1ac135c51ead9d6174497b5e250716e4e386b4841e",
    ),
    (
        "compare --target pi --series gupta:k=0,gupta:k=4,alzer-koumandos:mu=3/2 --terms 10,100,1000 --format csv",
        "ec1b93d87b1cc7c8f1584e9b068a1f14233992945b8ad8b673368c10e02584e0",
    ),
    (
        "compare --target pi --series gupta:k=0,gupta:k=4,alzer-koumandos:mu=3/2 --terms 10,100,1000 --format pretty",
        "2b4c977ea07099835ea52fa7406025f3b8612b3e8825faa89e1d92925acf8484",
    ),
    (
        "compare --target pi2 --series kolbig,alzer-h,alzer-H --terms 100,1000,10000 --prec 1024 --format csv",
        "356b5322685a9d03164436576732705320b7591dbc2bf5ee5d09c0fa794c7fe9",
    ),
    (
        "compare --target pi2 --series kolbig,alzer-h,alzer-H --terms 100,1000,10000 --prec 1024 --format pretty",
        "7c3a83dfb9b6acae4d90ac78822edd1f6f3bc14a00cefcdd4f1e376c91e42b79",
    ),
    (
        "compare --target pi --series alzer-koumandos:mu=1/5,alzer-koumandos:mu=1,alzer-koumandos:mu=5 --terms 1,2,100,1000 --prec 1024 --format csv",
        "57cb0b868ee1e023cad2bddcf98cacb5fc70bf27f3a8e7d1ee1231d2d214011c",
    ),
    (
        "compare --target pi --series alzer-koumandos:mu=1/5,alzer-koumandos:mu=1,alzer-koumandos:mu=5 --terms 1,2,100,1000 --prec 1024 --format pretty",
        "c95bc1b0c67f16a9d733892a4b3234dc91b7b617807dcec3493acbdfa221f678",
    ),
    (
        "sum --series alzer-koumandos:mu=3/4 --terms 1000 --format pretty",
        "a28bbf160ea7ca39a450ab7fe5a137705523d73c5e82373e7ddf35e79048e928",
    ),
    (
        "compare --target pi^3 --series gupta:k=3,classical:p=3 --terms 1,2,3,50 --prec 65 --format csv",
        "74d61253a914c7a8c77191d318ca04d5374fbcce5d9bc4e54d4e5828322d9325",
    ),
    (
        "compare --target pi^4 --series gupta:k=2,classical:p=4 --terms 10,1000 --prec 256 --format json",
        "638e349a6cff84179fe4ab93e2b97eeaa69b46410514e31528eee477f8cbb233",
    ),
    (
        "compare --target pi^6 --series gupta:k=3,classical:p=6 --terms 1,2,3,50 --prec 200 --format pretty",
        "023bc9e6db76ba348b7664a1c61f1c2af5c97a70f6866e38c9831992f7b1937e",
    ),
    (
        "numbers --kind euler --max-index 512 --format csv",
        "c7a2adf1ce3e3147b89a7fc11dff386b747e3f36f8d63b17afbebf3471e41339",
    ),
    (
        "numbers --kind euler --max-index 24 --format json",
        "5eecdea5b70cbccb1dc34c8a9963f2db1d2d5779a98c1bd0ca84f46b173b52fa",
    ),
    (
        "numbers --kind euler --max-index 24 --format pretty",
        "2e8608380c2ecfdec409b1c63d83d3c0eca5e0b951e492afb195f1be939aa9e1",
    ),
    (
        "numbers --kind bernoulli --max-index 512 --format csv",
        "c8812eee44c46ed65da29211fd68ac452386ae6ecbfebf0012fdf31b4ba803ab",
    ),
    (
        "numbers --kind bernoulli --max-index 24 --format pretty",
        "218cfac4cbcd13266efd43f7db9f1ebfa61c24bfea4adb9d31405609ecda7a0f",
    ),
    # rows the tail path settles: the deck's widest sum, a converge-sum row
    # at even p, and a 1024-bit compare with a walked and a tail row per series
    (
        "sum --series gupta:p=1,k=8 --terms 100000 --prec 128 --format pretty",
        "13bc41362e1d14717f23ec24cc3161d4a48e1fcc84b9f5adea0ba240fa855d18",
    ),
    (
        "sum --series gupta:p=6,k=5 --terms 40152 --prec 128 --format pretty",
        "29607d6b47154d5755b8a7d9942e8cc1d4e568381e451dc8f82945fe31393ccc",
    ),
    (
        "compare --target pi --series gupta:k=8,classical:p=1 --terms 1000,10000 --prec 1024 --format csv",
        "264c72d6776ba208699434ec95eb19e105af1d5453ad96d8d2273bbaf8b9b30a",
    ),
    # deck rows whose rounding the tail once left to the walk, at k >= 1,
    # and a row far past the walk's reach, from the tail alone
    (
        "sum --series gupta:p=5,k=3 --terms 50130 --format pretty",
        "a1df40daf75632e15023ae4bc9898213665607d1e4c869194c38022a693d6a9f",
    ),
    (
        "sum --series gupta:p=3,k=2 --terms 65974 --format csv",
        "410cff8fbc7ad3268171ff2cd494354c24213bce35c434da53f2221f8e427ef5",
    ),
    (
        "sum --series gupta:p=1,k=8 --terms 1000000000000 --format pretty",
        "c85bab0d2787adffe31b0134f7fb7c47f8d587115877d4441aa2769b329a27d0",
    ),
    # mu-family rows past the recurrence's fixed point, which at 64 bits
    # mu = 1, 1/5 and 5 reach after 117, 208 and 438 steps, and alzer-h with
    # alzer-H in one shared pass, named out of order and one of them twice
    (
        "compare --target pi --series alzer-koumandos:mu=1,alzer-koumandos:mu=1/5,alzer-koumandos:mu=5 --terms 10,1000,100000 --prec 64 --format csv",
        "0b4a9ff05a4fdb624697f0c95dcf7ffae2728f74c225d3bbd9282484491fa415",
    ),
    (
        "compare --target pi2 --series alzer-H,kolbig,alzer-h,alzer-H --terms 1,2,100,7777 --prec 64 --format csv",
        "c69d452e678d05a90ae1bf034c20b8766cea95bb7def18d322f364109fd04d2f",
    ),
    ("--help", "5ffb7e4ee03bc677f111d7d8dfd9b261ddd32b5986cb69d3e3e00119c373e314"),
    ("verify --help", "8a6377dd1f508587bb59a987c66601b8de8bdde9b4e1085add1145970241a16e"),
    ("sum --help", "7964624693afa13c37619dc0303fdfcafd37d726f581e8a0fb57a1a647b111f0"),
    ("compare --help", "ab6bf3402a505e1f90888da56056aaf4a02665aad2359b38f76251964c97c555"),
    # bounds of 6,000 digits, past int()'s 4,300-digit limit on str(), which
    # the report prints in pieces below it
    (
        "sum --series kolbig --terms 3 --prec 20000 --format csv",
        "6346751ec8cbab26c3e09c440b5241c1adf45002cf40daf37db86ddd03c221e5",
    ),
    (
        "sum --series kolbig --terms 3 --prec 20000 --format pretty",
        "74a43358781c0b33dd97ffb30c45bc5f0051525416f0002163b892309474a8f8",
    ),
]


def _digest(command: str) -> str | None:
    """sha256 of the stdout of ``command``, or None if it exits nonzero."""
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(shlex.split(command))
    return hashlib.sha256(out.getvalue().encode()).hexdigest() if status == 0 else None


def pytest_generate_tests(metafunc):
    metafunc.parametrize("command, digest", PINNED, ids=[c for c, _ in PINNED])


def test_stdout_bytes_are_pinned(command, digest, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(command) == digest


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    mismatched = [command for command, digest in PINNED if _digest(command) != digest]
    for command in mismatched:
        print(f"stdout differs from its pinned digest: {command}", file=sys.stderr)
    sys.exit(1 if mismatched else 0)
