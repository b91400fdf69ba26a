"""The bytes of CLI reports, pinned by their sha256.

Each case runs one command through `cli.main` on one input and compares the
digest of what it prints with the digest recorded when the case was added.
A change that is meant to keep every report byte-identical must pass here
unchanged; a change that alters reports on purpose records the new digests
and says which and why.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from fbinv.cli import main
from fbinv.reference import reference_system
from fbinv.sampling import random_ar_system, random_state_space
from fbinv.serialize import ar_to_json, dumps, state_space_to_json

# (m, p, row degrees, seed): three with n >= mp, three with n < mp
AR_SYSTEMS = (
    (2, 2, (2, 2), 0),
    (3, 2, (3, 3), 1),
    (2, 3, (2, 2, 2), 0),
    (3, 2, (1, 3), 0),
    (2, 3, (1, 1, 2), 1),
    (2, 3, (0, 1, 3), 0),
)
# (n, m, p, seed) for random_state_space
STATE_SPACES = ((3, 2, 1, 0), (4, 1, 2, 1), (3, 2, 2, 2))
AR_COMMANDS = (
    ("nondegenerate",),
    ("stability", "--mode", "exhaustive"),
    ("stability", "--mode", "generic"),
)


def _inputs():
    yield "reference", ar_to_json(reference_system()), AR_COMMANDS
    for m, p, degrees, seed in AR_SYSTEMS:
        ar = random_ar_system(random.Random(seed), m, p, sum(degrees), row_degrees=degrees)
        yield f"ar-m{m}-p{p}-deg{''.join(map(str, degrees))}-seed{seed}", ar_to_json(ar), AR_COMMANDS
    for n, m, p, seed in STATE_SPACES:
        ss = random_state_space(random.Random(seed), n, m, p)
        yield f"ss-n{n}-m{m}-p{p}-seed{seed}", state_space_to_json(ss), (("factorize",),)


CASES = [(name, doc, command) for name, doc, commands in _inputs() for command in commands]
CASES.append(("none", None, ("verify-example51",)))

# sha256 of the JSON report, keyed by "command | input"
GOLDEN = {
    "nondegenerate | reference": "631a7d98c085da3a0189e208a0e5dcbbd215915dacbd00522919f5fa0d1d9f5a",
    "stability --mode exhaustive | reference": "8b14b81e4baa5b4706d7e8d1dabf39bc396aa930362d01c21d4918b42254fce3",
    "stability --mode generic | reference": "4f68c68b5261c1b1fd894a6ebe72451e0aecc5f978de8b04910ac04f0800c7b0",
    "nondegenerate | ar-m2-p2-deg22-seed0": "14a97f14dc7060731cb5e458ecba5bde912362b13e6f82d827a64a3b7271f02c",
    "stability --mode exhaustive | ar-m2-p2-deg22-seed0": "6f1cbeb50ffcea813397af95270950f2ea7f16ad3dfc0bcfa41eb0ba433d0359",
    "stability --mode generic | ar-m2-p2-deg22-seed0": "3b8ebf955f559b3477dfdad4038c8015521052c18e4f7d6d96fd9c1467b712fd",
    "nondegenerate | ar-m3-p2-deg33-seed1": "56c4d8a66beed44fda5e35ba3f76e2aa29ed9977bf53cf2f006863a3ed2ca776",
    "stability --mode exhaustive | ar-m3-p2-deg33-seed1": "8b14b81e4baa5b4706d7e8d1dabf39bc396aa930362d01c21d4918b42254fce3",
    "stability --mode generic | ar-m3-p2-deg33-seed1": "4f68c68b5261c1b1fd894a6ebe72451e0aecc5f978de8b04910ac04f0800c7b0",
    "nondegenerate | ar-m2-p3-deg222-seed0": "6a897b53fd39c3c69cc3901d9a7e08436cd6d060317608e45c3841167c8ca3b8",
    "stability --mode exhaustive | ar-m2-p3-deg222-seed0": "ef12671855541c0a1e7f618a0b5d38ecde26075d9848bde624ad676d38404be3",
    "stability --mode generic | ar-m2-p3-deg222-seed0": "5ed2d615dfc42664918518cd46f04dcea19a02ed3d55d8cecf887560579acaa5",
    "nondegenerate | ar-m3-p2-deg13-seed0": "1bb7b023b72c6df4b46f21664ed3a34f778d8edc2fd7497fccb1c9555a99e835",
    "stability --mode exhaustive | ar-m3-p2-deg13-seed0": "bc7204423dde443d1b01816ffd1209cb857aac01d5020f18a110b97a14736a09",
    "stability --mode generic | ar-m3-p2-deg13-seed0": "4f68c68b5261c1b1fd894a6ebe72451e0aecc5f978de8b04910ac04f0800c7b0",
    "nondegenerate | ar-m2-p3-deg112-seed1": "1cd9d9f20c146337e3d8de9fc840ee3b46c7d669d9b6b95a080266b5f8f997b9",
    "stability --mode exhaustive | ar-m2-p3-deg112-seed1": "ef12671855541c0a1e7f618a0b5d38ecde26075d9848bde624ad676d38404be3",
    "stability --mode generic | ar-m2-p3-deg112-seed1": "5ed2d615dfc42664918518cd46f04dcea19a02ed3d55d8cecf887560579acaa5",
    "nondegenerate | ar-m2-p3-deg013-seed0": "3e1d5fbecc8e4bfe1e2aa72aedb1229b2602e12cb71819db478fee8d9f3e93d3",
    "stability --mode exhaustive | ar-m2-p3-deg013-seed0": "ef6af17d0cb60167a08f77ef1d48091277f6cac4e9ba570a2a97b9eb92242a44",
    "stability --mode generic | ar-m2-p3-deg013-seed0": "5ed2d615dfc42664918518cd46f04dcea19a02ed3d55d8cecf887560579acaa5",
    "factorize | ss-n3-m2-p1-seed0": "761b1dbe13bb88afd2f6138170af3bdc42ddc02509f3a51b946fb1e1d3b80c66",
    "factorize | ss-n4-m1-p2-seed1": "bf40d892913e2125087830401d0e6c7756e04571d070d5c19646e1ed9fbd11d6",
    "factorize | ss-n3-m2-p2-seed2": "1490b0ee631b7129d08841f58aaf9c97e24cb9cd32fbd6a7024d53bc9ee4a229",
    "verify-example51 | none": "a4b002b5699866725c6e471a4824322bf133da4c4bea6e6d54e59b7efc807f44",
}


@pytest.mark.parametrize(
    "name, doc, command", CASES, ids=[f"{'-'.join(c).replace('--mode-', '')}:{n}" for n, _, c in CASES]
)
def test_report_bytes_are_unchanged(tmp_path, name, doc, command):
    argv = [command[0]]
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(dumps(doc))
        argv.append(str(path))
    argv += command[1:]
    if command[0] in ("stability", "verify-example51"):
        argv += ["--seed", "0"]
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    key = f"{' '.join(command)} | {name}"
    assert digest == GOLDEN[key], f"the report of `fbinv {' '.join(command)}` on input {name} changed"
