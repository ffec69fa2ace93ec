"""Golden stdout hashes and exit codes for a matrix of CLI invocations.

Each entry pins the SHA-256 of everything one invocation writes to stdout,
together with its exit code, so a refactor that moves a single output byte
fails here.  The matrix covers every conjecture name, iterate on every named
map plus one Phi map in both formats, trace on positive-d, negative-d and
integer-cycle patterns, rmap-scan and a verdict-carrying cycle sweep.  The
later rows reach every JSON field with a non-default value: a trap region, an
escape bound, a size cap, truncated reports, a single-modulus and a
length-capped scan, and a custom Q2 family range.  The last rows pin the
corners of the integer orbit step: denominators divisible by 3 (where the
reduction must take out a 3), a fate of each kind on U, V, F, Uflip and g, a
Phi map with non-dyadic slopes and a fractional tau, and an orbit that leaves
its domain mid-way.  The summary-only sweeps pin the rotation-class path: at
lmax 1 every class has one member, and one range starts above lmin 1.  The
record sweeps pin the per-rank lines derived from each necklace: without a
verdict, from lmin above 1, and across two workers.  The iterate rows after
them pin a zero step cap and a report that keeps only its start.  The last
rows pin F's orbits far above its windows, where they run in blocks: a seeded
Q2 run, and F orbits that meet an escape bound, a den-bit cap and a keep of 5.

The FORGED rows take branches that honest runs never take.  The realized
forgery patches both integer realization scans: cycles._group_totals, which
necklace_totals calls for the totals and realized rows of each lane group
that it closes for the summary, and rotation_checks, from which record mode
reads the checks of every rank's line.  The first forgery takes (l, group)
and lists every lane of a d = 5 group as realized by both maps; the second
takes (d, nums).  So the sweep reports a counterexample in record mode as
well as with --summary-only.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from real3x1 import cli, cycles, maps, trajectory
from real3x1.maps import map_from_name

GOLDEN = {
    "conjecture BU --samples 40 --cap 1000":
        ("7e4e07ea00a64ab0e7ca2a19f79be6376aabc3cd3a9417202dee3b4ad9e23183", 0),
    "conjecture BUflip --samples 40 --cap 1000":
        ("d5c7c260f1f853c8eee6916db92361d36b193aa2c00806e417ac8102d1e8351b", 0),
    "conjecture BV --samples 40 --cap 1000":
        ("64d988ee902f1a1e7b481f259dced6f2d50824a1e34918ad81d9c689b899f1a6", 0),
    "conjecture NU --samples 40 --cap 1000":
        ("1418163121f7a89f4cf829663a489b9f54cdcc282504feeda95795872da9aa9f", 0),
    "conjecture NUprime --samples 40 --cap 1000":
        ("6d77db07bea74261fe92feadfc3eea1661c6eb83694dc76aea46d99f5df511b4", 0),
    "conjecture Q2 --samples 40 --cap 1000":
        ("04d6bb7413de8532d53fd7478c4034ea45047f6f36834735a0d16b80180a4861", 0),
    "conjecture RU --samples 40 --cap 1000":
        ("2051956bb7ef818a97a263529afb9a87bb81195f56ffc1d68ed3ad96fe72c50b", 0),
    "conjecture RUflip --samples 40 --cap 1000":
        ("0f98bfe51b085cf6ad4cb3cfd513bf90ec1a3de89ac6b7636acfdfe288f135fc", 0),
    "conjecture RUprime --samples 40 --cap 1000":
        ("490f50267f296825313abdfa1d70d12557579c6e23e37711751b75a8dfdfef2e", 0),
    "conjecture RV --samples 40 --cap 1000":
        ("a787fb36a37264eafe819ac33e2467d724a2dc6a814e4015a318cc5989c0573b", 0),
    "conjecture Q2 --samples 40 --cap 50 --escape 1000 --flag-limit 3":
        ("ea24347cc5f96ff31618311a57180251601e8d81f174d73aa1958952c0839e14", 0),
    "conjecture BV --samples 40 --cap 1000 --escape 100000 --flag-limit 5":
        ("4cc7e021fce32df91f776e43e61e6729899de0d8ae1e99743cf00e1faff83eb6", 0),
    "conjecture NUprime --samples 40 --value-bits 4 --cap 5":
        ("6c8ceb236e2340eefd3cfbb646450c4021a69b682201039a5ee31328257a0b80", 0),
    "iterate --map T --start 7,27 --cap 200 --format jsonl":
        ("4896560292f2dcf623b9e53d3643d3b918b8be593c5573596c533fc660a60f8d", 0),
    "iterate --map T --start 7,27 --cap 200 --format csv":
        ("bb3bd4c4bf119645f564edb4f36baf9f467e7ad718ca09951d927bc2f2bd727c", 0),
    "iterate --map f --start 7,27 --cap 200 --format jsonl":
        ("3eeceedd66308bb318c9116a98f5d57649fd475983e4d8deed7d29120214d27d", 0),
    "iterate --map f --start 7,27 --cap 200 --format csv":
        ("70afcd84a581c746845e116521d85ab6c06851e27d8b5add566f144da7201d6b", 0),
    "iterate --map g --start 1/5,-5,7/3,2/9 --cap 200 --format jsonl":
        ("31f5a2e709c0071f610d1c09b9df31edd5b2f7bf6368cfff4bf1452a115fbd9d", 0),
    "iterate --map g --start 1/5,-5,7/3,2/9 --cap 200 --format csv":
        ("bab9b18ed1a071d71671803e542b711c97886231341072933c12aa2b471da684", 0),
    "iterate --map U --start 3/2,1,7,27,13/5,7/5 --cap 200 --format jsonl":
        ("0b61751f6f6ab5b39fda66da9a1b993b3890c70ce7c4989296ae04e89c5e7ce3", 0),
    "iterate --map U --start 3/2,1,7,27,13/5,7/5 --cap 200 --format csv":
        ("7026ee6600afd7f30fc312d150f1e0dcb3d749e5f202e96364aeb963f1dd33dd", 0),
    "iterate --map Uflip --start 1/2,0,3,7/3,9/4 --cap 200 --format jsonl":
        ("a8a70245f84a9dc4981041103559baf4813a951acee36d417cf0fbe538fc37b6", 0),
    "iterate --map Uflip --start 1/2,0,3,7/3,9/4 --cap 200 --format csv":
        ("213efd8fb4df633aab221922aab2ce69f7a06ca7b14a022476f9ffe55ea0a4be", 0),
    "iterate --map F --start 3/2,1,7,9/5 --cap 200 --format jsonl":
        ("c57a9ea335556206b331788b307afd0f3931b753d3169fe4d1975ce13396bd11", 2),
    "iterate --map F --start 3/2,1,7,9/5 --cap 200 --format csv":
        ("2b02d378e92a55a090cf42c32a9964ab69d571c7a10c2fcc86409353f9b414c5", 2),
    "iterate --map V --start 7/5,4,10/3 --cap 200 --format jsonl":
        ("25661d900baf0c8e91900397f0b0f261bfaa771baaf2e82803d4879eb97aa47b", 2),
    "iterate --map V --start 7/5,4,10/3 --cap 200 --format csv":
        ("2ad4736a05ee6b322fcd3520ed886a31e59e67b0db1c934397256c1042783158", 2),
    "iterate --map Phi:1/2,0,3/2,1/2,0,1 --start 3/2,7,5/3 --cap 200 --format jsonl":
        ("87739282da8bc4e35edaa8a4c77a10c48f76ee9d76c6f74f146d403bc6b8fb5b", 2),
    "iterate --map Phi:1/2,0,3/2,1/2,0,1 --start 3/2,7,5/3 --cap 200 --format csv":
        ("13438e0adfe18ea620561fc20a3210c665384a01b307f324b79b98db45c0e72b", 2),
    "trace --bits 11100":
        ("a706b732168d4d5008305b3eecec0c11d328d4c383d638519ce2b57b84800dd0", 0),
    "trace --bits 100":
        ("9f7cfde51ef341a7438f3474c08de9b56823c992c94c98742f4c1b185ef88843", 0),
    "trace --bits 1101000":
        ("ffad59dabbbed250b4b5fbd8f025e4fa0b4cda16c5ce412bc2eb685de890cadd", 0),
    "trace --bits 1011000":
        ("111308e336380c936ae675eacd40f431b9df4b5250e31258e907e96c2b5cf87b", 0),
    "trace --bits 110":
        ("0dfc6de24dc105ad09df2d3970efc5f2eed0709a6a5b4e7fac7bee224509e949", 0),
    "trace --bits 1":
        ("eb0b0599dc50027b254b4460d69397c281f629a7f33e60e01bd11506d5488066", 0),
    "trace --bits 10":
        ("348f182a6f2c0baaf4d190b4034e879ddd6deaf2e5b5af7a3a1fa028e0ee116e", 0),
    "trace --bits 01":
        ("3bbbe83c497336e5a9e1cce763b5c89cec1c2fa0821a170c516bd6120cb5169b", 0),
    "trace --bits 0":
        ("a102fdd75fc00831bc3c7e727b2a2000e11842a0008acb4b7066e3d3be664171", 0),
    "rmap-scan --d-range 5..200":
        ("08281445e6e35dd86502039d90f082ec34a62609b9b81ca370960e4f835b5c43", 0),
    "cycles --lmax 10 --with-verdict":
        ("2c5f915b29cbd9b4410252b5063a3e0ee9df3416260161feadda9e99cc661188", 0),
    "iterate --map V --start 4,7/5 --trap-region 1,3 --cap 200":
        ("6eb74936632a5c810c5866b8c84f0fefd4e88735935dcd91551e676961660f5f", 0),
    "iterate --map F --start 3/2,9/5 --escape 1000 --cap 200":
        ("237cab4ce6c48b6d7a837097b63b4be613d8116d1c3173b3cb8ace8dc0d50955", 0),
    "iterate --map Phi:1/3,0,1/3,0,0 --start 1/7,5/11 --den-bit-cap 16 --cap 200":
        ("4ee531809ff59d7f75787a7ba16c75ac09bf3b207f34a1b7a9e0af6884ef054c", 2),
    "iterate --map U --start 27,3/2 --keep 4 --cap 200":
        ("3530785a1da70961b14f21b7856461e87c8fa9206390677c84d06a39a620aa6a", 0),
    "iterate --map Uflip --start 1/2,3 --cap 200 --keep 3":
        ("dcfd8974980266f5b752e3134162a9432c40ef88d9a6bb2ab702c7fb57e50629", 0),
    "trace --bits 1110100":
        ("5b4743c38b14f11e6ebc69a13c5148c8bf1d66d7a3c87fcf838c426eae14edea", 0),
    "rmap-scan --d 19":
        ("fe8854f616fa942eb40fe9326557f49203a3a34c72a40c0be287c8bbe1f83659", 0),
    "rmap-scan --d-range 5..1000 --max-len 12":
        ("6c7e7f559fb593471996dadb5e1f2bfab907d46d155fa88331e91acd348bffe7", 0),
    "conjecture Q2 --samples 5 --m-range 0..10 --steps 5":
        ("6cd7393b5b45cda0c2d2dabe83e9b6025ad6dce505b61d6f48d713af02095246", 0),
    "iterate --map U --start 16/9,50/27,130/81 --cap 500":
        ("e020ce1fd816d713f3b38c6b3ec985ab88275f119e96d9abb18904a63ecbed39", 0),
    "iterate --map V --start 10/9,40/27 --cap 500":
        ("94ce6aa0e28391f9496f208d37bb4c3a14a29705187ecb1fa27de8a2c41c6a01", 2),
    "iterate --map F --start 16/9,41/27 --cap 300":
        ("0cfe8b5bb5b2f67024aa81159c627c103a1fabc4c6f8f8f5bc77c9c92a7aa55c", 0),
    "iterate --map Uflip --start 20/9,125/27 --cap 300":
        ("5c5ebca3753d1ebcc286f90caf325a0b603bb92d628c616e27f796992c0befed", 0),
    "iterate --map g --start 5/27,-7/9 --cap 200":
        ("f91d8915e9f53f0250fe8b2df8df76fa2b60892194b27d9e85a009c2c9520ce0", 0),
    "iterate --map Phi:2/3,1/5,5/7,1/3,1/2,0 --start 3/4,11/5 --cap 200 --den-bit-cap 40":
        ("a797bf72bec04eb7950209355a7f286c7fcd6d514068c111689293eeae35af2f", 2),
    "iterate --map Phi:1/2,-1,3/2,0,0,0 --start 5/2 --cap 50":
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "cycles --lmax 1 --summary-only":
        ("62353b35a2fd5f0d23f794531cd346dac0acc2365f7f9602f39e31c785f29ee1", 0),
    "cycles --lmax 12 --summary-only":
        ("26f10b48ecf06b53c528e1ccede5627a6b2bc52b06d8190e4466b10c1eb21f49", 0),
    "cycles --lmax 12 --summary-only --workers 2":
        ("26f10b48ecf06b53c528e1ccede5627a6b2bc52b06d8190e4466b10c1eb21f49", 0),
    "cycles --lmin 7 --lmax 12 --summary-only":
        ("0f173b32010718ddd8046f8a9d06822a52b530079121853f97a8527255154353", 0),
    "cycles --lmax 9":
        ("0c0bfead511801fc84511c0df0548a57013c23baa7ae31ec75a57fe5bdac66c8", 0),
    "cycles --lmin 5 --lmax 11 --with-verdict":
        ("bf0e9a1f2e1e1c7d2e9e73ab829c2334fa2438b47273b9ecfad4c1475adcb8ea", 0),
    "cycles --lmax 11 --with-verdict --workers 2":
        ("73b4e3a340a5e5ddb163c73f87f9d1db468b5bc6221dd7a8b3c5d4017bbbaf1b", 0),
    "iterate --map U --start 3/2,7,1 --cap 0":
        ("070d1a5fed9f61545ec308159f6586642f0fe4241c4780487d2b41ec4706fed2", 2),
    "iterate --map U --start 3/2,7,1,27 --keep 1 --cap 200":
        ("22c712c3e4d1c8d45b7cb62c3142434786cd6cdc2a55f1862a8ec43e95617b2e", 0),
    "conjecture Q2 --samples 300 --den-bits 40 --cap 3000 --seed 7":
        ("243b36e9b1134d2bf225fafcc5109fc20387d25b9ca0c18f44b339e2969582bb", 0),
    "iterate --map F --start 3/2,47299/160,7427/48,254421/64,12345/64 --escape 10000000 --cap 3000":
        ("bb48a8b9c6d75d5ce95fbd4b47d82e9729b8b6d1bfd2fae7b7ece5b5efa9981e", 0),
    "iterate --map F --start 12345/64,100003/1024,9/8,7427/48 --den-bit-cap 40 --cap 3000":
        ("73ef409cbbfc6a16724ad3169836be8d85838411934c363fd5addbe3531e4849", 2),
    "iterate --map F --start 12345/64,100003/1024,16/9,47299/160 --keep 5 --cap 500":
        ("449b2780820daac7755c13810fee15f93d8bed4dd34ca1b5d7f38467437f5e0f", 0),
}

# Honest runs never take these branches, so the runs forge them: a
# nontrivial cycle (a counterexample, which Q2 demotes to a flag), a missing
# (0,1) parity tail (flagged only for the primed conjectures), a sweep in
# which U and Uflip realize every pattern with d = 5, and Q2 family runs on
# an F whose family orbits reach even floors or stop growing (FORGED_F).
FORGED = {
    ("cycle", "conjecture NU --samples 10 --value-bits 4"):
        ("abd336e4f9bb815abb520da7254cc6fe0bc4a2411372a7a0850a5ad268089ca1", 3),
    ("cycle", "conjecture Q2 --samples 100 --den-bits 3 --value-bits 3 --cap 300 --flag-limit 5"):
        ("a98f67f666fbd64c2d607a9f69cfc46c154c7e1ef99b43d4fef5ee2ed4847d0a", 0),
    ("cycle", "conjecture BU --samples 10 --den-bits 1 --value-bits 3"):
        ("394ef7b3502f96e9c2fb7b8f42d4d1bcfbda116653d501158498d77063687db0", 3),
    ("no-tail", "conjecture RUprime --samples 20"):
        ("26ace304cfb38bf2b981529b7a388b04edbb9f0b607d12acdd7a9e5cc60a391c", 0),
    ("no-tail", "conjecture NUprime --samples 20"):
        ("e6cb905879ce1c13e3753ca25ce2c30643728461e488af523f7ec4a6e67397b6", 0),
    ("no-tail", "conjecture RU --samples 20"):
        ("45d3bfa42dbc5aaeeabb3df5e69a839823dd51bd5c7a3364b3df89bf06d2fdb9", 0),
    ("realized", "cycles --lmax 6 --summary-only"):
        ("b6416f09ebbbdb1ee04850b5b391982f03b46571cc3017243e6a26f68561e06f", 3),
    ("realized", "cycles --lmax 6"):
        ("3e4c0583c4beb60e68dd11ef603d04c6c8ace21c85a24624d54363447130d3ad", 3),
    ("family", "conjecture Q2 --samples 5 --m-range 0..12 --steps 1 --cap 200"):
        ("1d13a6f6cd5dd3923c440d22571f8e71f221ee50fb0bbf21defdc5ebbfc97463", 3),
    ("family", "conjecture Q2 --samples 5 --m-range 0..12 --steps 2 --cap 200"):
        ("b4057c498aae723372e4a3267500a3dce84392bda4e4af5d49079ea0ae8fa72e", 3),
    ("stall", "conjecture Q2 --samples 5 --m-range 0..12 --steps 1 --cap 200"):
        ("5d14e710a21c722d3d350d3a399dc126705f63340b7b3b0bc5c5ace759eb8dbb", 3),
    ("doubling", "conjecture Q2 --samples 5 --m-range 0..12 --steps 3 --cap 200"):
        ("b882187845f20c73ec654a2f9ccfbb3986bc8c4bdec2b3eea45ced5672107fd9", 3),
}

# F maps forged for the Q2 family.  family: (5/4)x reaches even floors, which
# halve; stall: x stops growing; doubling: even floors double, so they still
# grow and only the odd-floor check catches them.
FORGED_F = {
    "family": "Phi:1/2,0,5/4,0,0,1",
    "stall": "Phi:1/2,0,1,0,0,1",
    "doubling": "Phi:2,0,5/4,0,0,1",
}


_group_totals = cycles._group_totals
_rotation_checks = cycles.rotation_checks


def _realized_when_d_is_5(l, group):
    """Every lane of a d = 5 group realized by both maps.

    d depends only on (l, n), so this forgery holds for whole rotation classes.
    """
    n, closed, counts, rows = _group_totals(l, group)
    d, lanes = cycles._walk(l, n, [rank for rank, _ in group])
    if d == 5:
        rows = [(rank, period, walk[0] % d == 0, True, True) for (rank, period), walk in zip(group, lanes)]
    return n, closed, counts, rows


def _rotations_realized_when_d_is_5(d, nums):
    """Every rotation of a d = 5 class realized by both maps.

    Only the realization verdicts are forged; the ungated misaligned step,
    which a misaligned ledger's verdict names, stays the true one.
    """
    checks = _rotation_checks(d, nums)
    if d == 5:
        return [(True, None, True, None, misaligned) for *_, misaligned in checks]
    return checks


def _forge_realized(monkeypatch):
    """Summaries reach _group_totals through necklace_totals, record lines call rotation_checks."""
    monkeypatch.setattr(cycles, "_group_totals", _realized_when_d_is_5)
    monkeypatch.setattr(cycles, "rotation_checks", _rotations_realized_when_d_is_5)


def _run(argv, capsys):
    code = cli.main(argv.split())
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_cli_output_is_golden(argv, capsys, monkeypatch):
    monkeypatch.setattr(cycles, "_POOL_MIN_RANKS", 0)  # the --workers 2 rows fork a pool, short as they are
    assert _run(argv, capsys) == GOLDEN[argv]


@pytest.mark.parametrize("forge,argv", list(FORGED))
def test_forged_outcomes_are_golden(forge, argv, monkeypatch, capsys):
    if forge == "cycle":
        monkeypatch.setattr(cli, "_cycle_values", lambda m, value, period: {Fraction(5)})
    elif forge == "realized":
        _forge_realized(monkeypatch)
    elif forge in FORGED_F:
        monkeypatch.setitem(maps.MAPS, "F", map_from_name(FORGED_F[forge]))
    else:
        monkeypatch.setattr(trajectory, "detect_period01", lambda bits: None)
    assert _run(argv, capsys) == FORGED[forge, argv]


def test_forged_realizations_list_every_rotation(monkeypatch, capsys):
    """A realized class puts all its rotations in the lists, in (l, rank) order."""
    _forge_realized(monkeypatch)
    assert cli.main(["cycles", "--lmax", "6", "--summary-only"]) == 3
    summary_line = capsys.readouterr().out
    summary = json.loads(summary_line)
    d5 = ["001", "010", "100"] + [f"{r:05b}" for r in range(32) if f"{r:05b}".count("1") == 3]
    assert summary["realized_U_non_integer"] == d5
    assert summary["realized_Uflip"] == d5
    assert summary["realized_U"] == ["01", "10"] + d5[:3] + ["0101", "1010"] + d5[3:] + [
        "010101",
        "101010",
    ]
    # record mode flags each rank on its own line and totals to the same summary
    assert cli.main(["cycles", "--lmax", "6"]) == 3
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1] == summary_line
    assert [r["bits"] for r in map(json.loads, lines[:-1]) if r["realized_Uflip"]] == d5


def test_chunk_boundaries_change_no_byte(monkeypatch, capsys):
    """Chunks of 16 ranks split most necklaces' rotations across chunks."""
    monkeypatch.setattr(cycles, "_CHUNK_RANKS", 16)
    argv = "cycles --lmax 10 --with-verdict"
    assert _run(argv, capsys) == GOLDEN[argv]
