"""Command-line surface: commands, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dowlingnest import arrangement, cli, selftest
from dowlingnest import series as series_module
from dowlingnest.cli import build_parser, main
from dowlingnest.errors import NotRealizable

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closed_subgroups_klein(capsys):
    code, out, _ = run_cli(
        capsys, "closed-subgroups", "--input", str(INSTANCES / "klein4.json")
    )
    assert code == 0
    assert "not-closed D" in out
    assert "closure G" in out
    assert "4 closed subgroups of 5 total" in out


def test_closed_subgroups_sign_rep(capsys):
    code, out, _ = run_cli(
        capsys, "closed-subgroups", "--input", str(INSTANCES / "z2.json")
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("closed")]
    assert len(lines) == 2


def test_faithless_representation_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "n": 1,
                "group": {"abelian": [4]},
                "representation": {"characters": [[2]]},
            }
        )
    )
    code, _, err = run_cli(capsys, "closed-subgroups", "--input", str(bad))
    assert code == 2
    assert "not faithful" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--input", "/nonexistent.json")
    assert code == 2


def test_count_all_methods_agree_klein(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--input",
        str(INSTANCES / "klein4.json"),
        "--all-methods",
    )
    assert code == 0
    assert "count 109" in out
    assert "lattice 109" in out
    assert "forest 109" in out
    assert "egf 109" in out


def test_count_single_factor(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--input", str(INSTANCES / "z2.json"), "--n", "1"
    )
    assert code == 0
    assert "count 1" in out


def test_count_nonabelian_lattice_and_forest(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--input",
        str(INSTANCES / "s3.json"),
        "--all-methods",
    )
    assert code == 0
    assert "count 215" in out
    assert "egf" not in out  # skipped for a nonabelian group


def test_count_egf_nonabelian_is_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "count",
        "--input",
        str(INSTANCES / "s3.json"),
        "--method",
        "egf",
    )
    assert code == 2
    assert "abelian" in err


def test_cap_exceeded_is_exit_3(capsys):
    code, _, err = run_cli(
        capsys,
        "count",
        "--input",
        str(INSTANCES / "klein4.json"),
        "--cap-nested",
        "5",
    )
    assert code == 3
    assert "cap" in err


def test_zero_caps_are_exit_3(capsys):
    z2 = str(INSTANCES / "z2.json")
    code, out, err = run_cli(capsys, "count", "--input", z2, "--cap-nested", "0")
    assert code == 3
    assert "count" not in out
    assert "cap of 0" in err
    code, _, err = run_cli(capsys, "lattice", "--input", z2, "--cap-lattice", "0")
    assert code == 3
    assert "cap of 0" in err


def test_negative_max_degree_is_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "series",
        "--input",
        str(INSTANCES / "klein4.json"),
        "--max-degree",
        "-1",
    )
    assert code == 2
    assert out == ""
    assert "--max-degree" in err


@pytest.mark.parametrize("command", ["nested", "forests"])
def test_negative_limit_is_exit_2(capsys, command):
    z2 = str(INSTANCES / "z2.json")
    code, out, err = run_cli(capsys, command, "--input", z2, "--limit", "-1")
    assert code == 2
    assert out == ""
    assert "--limit" in err
    code, out, _ = run_cli(capsys, command, "--input", z2, "--limit", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["  ... 9 more"]


def _main_in_this_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a bad argv this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _main_in_a_new_process(argv):
    env = dict(os.environ, PYTHONPATH=str(INSTANCES.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "dowlingnest.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_every_call_of_main():
    """The parser is built once per process; each call of main through it
    prints what a fresh process prints (the count timings aside)."""
    klein = str(INSTANCES / "klein4.json")
    runs = [
        ["count", "--input", klein, "--method", "egf"],
        ["series", "--input", klein, "--max-degree", "2"],
        ["count", "--input", klein, "--all-methods"],
        ["count", "--input", klein, "--method", "bogus"],
        ["count", "--input", klein, "--method", "forest"],
    ]
    timing = re.compile(r" \(\d+\.\d+s\)$", re.M)

    def untimed(result):
        code, out, err = result
        return code, timing.sub("", out), err

    results = [untimed(_main_in_this_process(argv)) for argv in runs]
    assert build_parser() is build_parser()
    assert [code for code, _, _ in results] == [0, 0, 0, 2, 0]
    assert "invalid choice" in results[3][2]
    for argv, result in zip(runs, results):
        assert result == untimed(_main_in_a_new_process(argv)), argv


ARGV_CASES = [
    [],
    ["count"],
    ["count", "--input"],
    ["count", "--input", "x", "--n", "a"],
    ["count", "--bad"],
    ["count", "--input", "x", "stray"],
    ["count", "--input", "x", "--method", "zzz"],
    ["zzz", "--input", "x"],
    ["-h"],
    ["count", "-h"],
    ["count", "--input", "x", "--help"],
    ["count", "--inp", "x"],
    ["count", "--input=x", "--n=2"],
    ["count", "--input", "x", "--input", "y"],
    ["count", "--input", "x", "--"],
    ["count", "--", "--input", "x"],
    ["--", "count", "--input", "x"],
    ["count", "--input", "x", "--all", "--cap", "5"],
    ["export", "--input", "x", "--what", "nested", "--format", "dot"],
    ["lattice", "--input", "x", "--all-methods"],
]


@pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(argv) or "empty")
def test_one_level_parse_matches_the_full_parser(argv):
    """`parse_argv` gives build_parser().parse_args's namespace, or its
    exit code, stdout and stderr."""

    def parse(f):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = vars(f(list(argv)))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    assert parse(cli.parse_argv) == parse(build_parser().parse_args)


def test_series_output_and_determinism(capsys):
    args = (
        "series",
        "--input",
        str(INSTANCES / "klein4.json"),
        "--max-degree",
        "2",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(first)
    assert set(payload) == {"gamma_tilde", "gamma_bar", "g"}
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second


# sha256 of the whole `series` stdout; a change to the series arithmetic must
# leave every coefficient, term order and number format as it is.
SERIES_DIGESTS = {
    ("z2.json", 3): "c8624226291a196534e9a975af2f39aea246366283c83fb3c78287c1e3f60b78",
    ("z3.json", 3): "0f4609a69fcb1bba4a5c2fa3a711f02963dc6c94e5c6a74fb5fe0d4b038609e2",
    ("z4.json", 3): "024ca46c905c40a0be150df07c7d1aeed272a6b04e6d7f792d0aac3a62d7a16b",
    ("z4_plane.json", 3): "2930f6d381d34bbd6ec091c1de29e5b52c6463136c46bfa0d4091157f5610549",
    ("klein4.json", 3): "3560610e331ba4fe8a66402fe79e1c460c4747a062a114b2ea725ac8188cef16",
    ("z2x4_chains.json", 3): "272bddd26e4e88b70b2aae33e235432f81bad5f86327cb5d09f4e2a08c363fb5",
    ("z2x4_chains.json", 4): "59557586f6e8a72442fd4190ba8fd3faffb66b29b089cdc96cd78ce19b3e4ff7",
}


@pytest.mark.parametrize("name, n", sorted(SERIES_DIGESTS))
def test_series_stdout_is_byte_stable(capsys, name, n):
    code, out, _ = run_cli(
        capsys, "series", "--input", str(INSTANCES / name), "--n", str(n)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[(name, n)]


# sha256 of `series --max-degree d` stdout for d from 0 to the file's n
# (chains8 to 5), as the operator-product construction printed it.
SERIES_DEGREE_DIGESTS = {
    ("z2.json", 0): "5bf230b3b001f8508581bd0c3651cf37ea6648a9f62d8322ccf7c54e05936207",
    ("z2.json", 1): "78cb91e6af2290d835c0a0db94b16bbc967e25731545dda956878102c627224e",
    ("z2.json", 2): "0acb9a9c4112d097cf3c0c0d58a3d46fe78f83df52c247972f6ee26cd985c61a",
    ("z3.json", 0): "5bf230b3b001f8508581bd0c3651cf37ea6648a9f62d8322ccf7c54e05936207",
    ("z3.json", 1): "78cb91e6af2290d835c0a0db94b16bbc967e25731545dda956878102c627224e",
    ("z3.json", 2): "496b4b33aace935e536b4eb2d60620d69022edcd9e27d3cbf1c7f9bbbd8e4c3b",
    ("z4.json", 0): "5bf230b3b001f8508581bd0c3651cf37ea6648a9f62d8322ccf7c54e05936207",
    ("z4.json", 1): "78cb91e6af2290d835c0a0db94b16bbc967e25731545dda956878102c627224e",
    ("z4.json", 2): "516aba4ecc24cfa107ef902ed22eee5f1b300e094025fc5b45235d1238261fbf",
    ("klein4.json", 0): "5bf230b3b001f8508581bd0c3651cf37ea6648a9f62d8322ccf7c54e05936207",
    ("klein4.json", 1): "06e90baad859522325eca6d4ebfdb6fad1852415ece72b56232178257bf7d60a",
    ("klein4.json", 2): "37405b46c7c4eb903279d9bfdb1a29f722ca4c4f9d546a3f5b370c2368023e4b",
    ("z4_plane.json", 0): "5bf230b3b001f8508581bd0c3651cf37ea6648a9f62d8322ccf7c54e05936207",
    ("z4_plane.json", 1): "cf7ad3f02dc5abfbbb877e0680b6a4a83163c2e2ecbe4a4016fd8a33b415d3ff",
    ("z4_plane.json", 2): "278d77cde10048394b860c15974002bfcb09df5bff4a5e74a5a12aa763a3fcbd",
    ("z2x4_chains.json", 0): "5bf230b3b001f8508581bd0c3651cf37ea6648a9f62d8322ccf7c54e05936207",
    ("z2x4_chains.json", 1): "be67f598a8083b870f67a4a1235a906aa2638c229c752ee03bce25e03879c83c",
    ("z2x4_chains.json", 2): "da9f81c7f320c626ac70073ed2bb945a77fee0f89d6171bb7b5797b09e2881cb",
    ("z2x4_chains.json", 3): "272bddd26e4e88b70b2aae33e235432f81bad5f86327cb5d09f4e2a08c363fb5",
    ("z2x4_chains.json", 4): "59557586f6e8a72442fd4190ba8fd3faffb66b29b089cdc96cd78ce19b3e4ff7",
    ("z2x4_chains.json", 5): "e0268a13744d01af7ba097c462c0e8c30268fb611546eb03af422a3517651475",
    # larger packing bases, as the tuple-sorting writer printed them
    ("z2x4_chains.json", 6): "7d1391b3e54af16349c514690f1d1a67f8dd203f2b3eeb843f34a0b7686463b6",
    ("klein4.json", 8): "e38057108f5287f83dafd999da56158420982ba2ae36dbe53c46c38954b236e4",
    ("z4_plane.json", 6): "8aad52e15d43d0bc403d2caef3f35d3c38b6e7360f25bb183dd87b0ea8f58285",
    ("z2.json", 12): "08afaf78c551542812aac206d055e7c52d99f800c640bcee1e4f71148ccd57bd",
    ("z3.json", 8): "1d90a7989f74a381d8d542e4968f077d9d71bafb23af7510b709800bd2dbb63f",
}


@pytest.mark.parametrize("name, degree", sorted(SERIES_DEGREE_DIGESTS))
def test_series_stdout_at_every_degree_is_byte_stable(capsys, name, degree):
    code, out, _ = run_cli(
        capsys, "series", "--input", str(INSTANCES / name), "--max-degree", str(degree)
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SERIES_DEGREE_DIGESTS[(name, degree)]


# sha256 of `lattice` stdout and of the `export --what lattice` json and dot;
# a change to how the lattice is closed or ordered must leave the elements,
# their order and the covers as they are.
LATTICE_COMMANDS = {
    "lattice": ("lattice",),
    "json": ("export", "--what", "lattice", "--format", "json"),
    "dot": ("export", "--what", "lattice", "--format", "dot"),
}
LATTICE_DIGESTS = {
    ("lattice", "z2.json", 2): "03cefd4414cdcf3fb08314008c13b4d9e89cbe9b848f7a7f6853f138f5c22df3",
    ("json", "z2.json", 2): "f999cba86c1605c95e66f04896f0874c4edc08d6ef6ab4cc20d788057037aef3",
    ("dot", "z2.json", 2): "49e478381c2a320f092bc29bf16391e7ed0fed8d236a87cedfcdfb50374900cf",
    ("lattice", "z2.json", 3): "192d08fed51c649baa0d81928434f594c52965a67f2c21bd52b4626fc9494300",
    ("json", "z2.json", 3): "4c8298f9007fb4247890c517550ca6a49a0b8edd1871e557fa863dfa50258fe0",
    ("dot", "z2.json", 3): "c6c3bb60dc60ba70e3666c33c14e57a738211809263dd45b1f21fd0c9f1860d6",
    ("lattice", "z3.json", 2): "cde07480a83d072c68733defcbcff47e2dd5fdbaac192a9d0f6b11f1682761c1",
    ("json", "z3.json", 2): "977851749f5cf8817e2c6b1b6eb9d87d41671a1c6398b2f293699ec5e0923ef0",
    ("dot", "z3.json", 2): "dff9c2f5088c4c10937f0d238e31d552ba90f82b89668fee2419f6c37d73b6da",
    ("lattice", "z3.json", 3): "48cbfa9d3e03f048416626966fcfd974ba0e1507588f050f00bd347fe462b556",
    ("json", "z3.json", 3): "1ed572217d12abc41704d96ac7238d795bcc685b6afdc8b1ab357d19792c32d7",
    ("dot", "z3.json", 3): "e36651643ccaf38a578609c96f8f57821af50d1c4d7d17c384a03cd7603ca6b2",
    ("lattice", "klein4.json", 2): "45a4157981ee9aa28ec327fe2e3879b0ac1bf16672b0de5f5099d7610f3858ee",
    ("json", "klein4.json", 2): "d9b560fdf085f38eada84556fbc3771b6de39992f11a6abc58ecbe3870a9a485",
    ("dot", "klein4.json", 2): "180356d9395a578077ff38a10ed6e0b476dc008a7cdf6fbf8e4d14bf00080fa8",
    ("lattice", "klein4.json", 3): "3295db1dfd67a2af14329077ee00cf31eeca5b8275407469c7c89676b9c6f678",
    ("json", "klein4.json", 3): "574ef1c188748f3edd9a98270cc3a9dfaf7246b9db6b99c4d9baf32e0360241e",
    ("dot", "klein4.json", 3): "dd624db34afe59bfe2b88c5f27eccdd1cd60c05b50c41568da5269c7432d5aaf",
    ("lattice", "z4_plane.json", 2): "12071619b656dd37d07ff76aac7c13831a467407ff288c6d8a825ec4e85e746e",
    ("json", "z4_plane.json", 2): "4a41549881b2e84499e4347a13b0a44395ac32781c6c0df3278a0442525c9720",
    ("dot", "z4_plane.json", 2): "602f50d30eee6429ee680f12948959989680bca2f105704228941204b542edbe",
    ("lattice", "z4_plane.json", 3): "8a19bcb4e287e5fa1d5728c1dc6e5ba7e0a92c7634b048b71e10030d5bad91be",
    ("json", "z4_plane.json", 3): "ecb2ad4f569e196115fe6e4e0bc023e429389fd620f7210cf130efbaa76c20e7",
    ("dot", "z4_plane.json", 3): "6e34b8239f9e3bc3aacafe7d8cef048fa6cd1036ffe66c7a231abf7e9540a843",
    ("lattice", "s3.json", 2): "274c52ac59687f921104f03ad97a8d472254016f7546687869c510a681c1c312",
    ("json", "s3.json", 2): "cf671d5ccf14c2ef8d419ad6377fe6401a5ad344d92defdbe14b8960bce95479",
    ("dot", "s3.json", 2): "55b9850e5413817e2a942cdc51c1b0700e039b2961015a237c022201dace0f68",
    ("lattice", "s3.json", 3): "24432a8d3ac5f28a4bbe9e823567e1c647edede0b67468603f2eda19ab3e5509",
    ("json", "s3.json", 3): "b50cdc9c7ef1a47d623f158d27fd8f3c6b2cbf43abec833c9387a1ea01ed3235",
    ("dot", "s3.json", 3): "4eb2791bec582678ef2acd44b1b81a4af4b6e9a4a83d80f62aa9c90689f6c9f7",
    ("json", "z2x4_chains.json", 3): "8ffd2a52e4d83761b25a465ead32650881e857d32c62b115c76b358cc1f93e29",
    ("dot", "z2x4_chains.json", 3): "27fb110d2ca4873d3e5bd44869c3e8443e34723f448a71a4b124599be99fccd5",
    ("json", "z2.json", 5): "5743ea5f02587bfea87c573cece553054f040649f3a053fc5bf1467b263838c4",
    ("dot", "z2.json", 5): "fcaded6c2bfa0f54f95f95f1fad49e34a520c1e9b7534cd2fc9d2b7ff71b018d",
}


@pytest.mark.parametrize("what, name, n", sorted(LATTICE_DIGESTS))
def test_lattice_output_is_byte_stable(capsys, what, name, n):
    code, out, _ = run_cli(
        capsys, *LATTICE_COMMANDS[what], "--input", str(INSTANCES / name), "--n", str(n)
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LATTICE_DIGESTS[(what, name, n)]


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "0ca0b91d81a7956b35c0039530102ab42f33d701026aacbc950d0b4e33e9362f"),
        ("dot", "37f400bc8ee13bfe0f583df60379232dd1d653932728347610fe79a6bfad1028"),
    ],
)
def test_s3_n4_lattice_export_is_byte_stable_within_200_mb(fmt, digest):
    """S3 at n=4 has 5,107 flats.  Their order as one up-set bit mask per
    flat takes about 3 MB; as an N x N table of booleans it took 450 MB, and
    under this limit the export ran out of memory (exit 3).  The limit is
    set on the child process only."""
    limit = 200 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["export", "--what", "lattice", "--input", str(INSTANCES / "s3.json")]
    done = subprocess.run(
        [sys.executable, "-m", "dowlingnest.cli", *argv, "--n", "4", "--format", fmt],
        env=dict(os.environ, PYTHONPATH=str(INSTANCES.parent / "src")),
        capture_output=True,
        timeout=120,
        preexec_fn=cap_memory,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == digest


# sha256 of the `export --what forests` json and dot; a change to how forests
# are enumerated must leave every tree, its labels and the forest order as
# they are.
FOREST_DIGESTS = {
    ("json", "z2.json", 2): "3da3ae548e27d13c2ce328663964bc27134ba7b7e5242a4e2e251713d4444f2d",
    ("dot", "z2.json", 2): "95b907ec373fec5c6b3cfcd98454b590e671023685dec4f6c96057daf63a3e53",
    ("json", "z2.json", 3): "98f2056b0b73c539ef4ba853ffb5c1cff24afc28fd61e55eb3d63ea0010f0814",
    ("dot", "z2.json", 3): "629a107b4b99e699b98728b1319f5b90ab409aa8791a763f411db9989155689b",
    ("json", "z3.json", 2): "dc708ffa272f9b3da9b5a8e63425915c88dd9d3f843139a40a264e14ba2686fd",
    ("dot", "z3.json", 2): "7802ee2c12ef5c614d39579d94b08a82995e6aa9c996c7d5da91aaeb09f1a417",
    ("json", "z3.json", 3): "e8649d51613732a3df985ac50ca46e0d695cc41a9a386f2f7cb30a4bc8db8fbc",
    ("dot", "z3.json", 3): "99e7f554d365ca650b23bfeef9428362213b22e028a041c24208d41193e867c6",
    ("json", "klein4.json", 2): "98ffb7411032b658f04194f57ba0e61cadcd7fa2a9339de88c4ebcaa99157a0e",
    ("dot", "klein4.json", 2): "5584b7784a183404a5b2e473190a53646168e22c556bdbd6409528f701b91599",
    ("json", "klein4.json", 3): "cdc05426b2f84bc848adf14752b6fa668033bbd713d6ae8d6cc1d225ed052428",
    ("dot", "klein4.json", 3): "f58fc6e70eb0beac2bc954cc0fffea2b214519a65017ce03c37e6b47aa15b65f",
    ("json", "z4_plane.json", 2): "b3187cdd6b00edd6862180d2b220da3e4e954d3caf71e0d7d0693c50b4eecaba",
    ("dot", "z4_plane.json", 2): "3745e224224bc594685b7465c62021bff791da13567eb434e0c984b9e067e235",
    ("json", "z4_plane.json", 3): "da59de63032b818ac39a759e6b3cba854bad00e5aa8de0d09a93974041a6768d",
    ("dot", "z4_plane.json", 3): "abf2e7871dd284a0f56f115cda86fb152dc959ee046d4e4cbe815406e720bdea",
    ("json", "s3.json", 2): "c605a2bd0e60a6456b1a82d744a27ef644411f6e37a31f14a286c7a6386b304a",
    ("dot", "s3.json", 2): "33063d9fc4145c6f65f4c9605775998f4be71ec9121970743ab7f1db3e67b1b3",
    ("json", "s3.json", 3): "2ab6c7fdafa8ba9a39bc4e0ecd19449f60103bf5b2c753043a393a891dc76394",
    ("dot", "s3.json", 3): "1abe984dc150d6e658c01dd77e63a285bbb8a58558bd38204faf9cb4d7c6282f",
    ("json", "z2x4_chains.json", 2): "b15e816a744894b4c1f217b7cd06feb0bb112aee5ff918950f70697e06bce8b8",
    ("dot", "z2x4_chains.json", 2): "43742de963b970d61feb514a638c5bcbd31f2a67d819d0ac44f1ed5cb03d24ca",
    ("json", "z2.json", 4): "81beae40e67faf10ddf10745216602f199eb277b773be99559376ee9b94cbbaa",
    ("dot", "z2.json", 4): "9399f8c174feaf070118b8ccce17e55753b96d55ce3e13acaa509106ebe512db",
}


@pytest.mark.parametrize("fmt, name, n", sorted(FOREST_DIGESTS))
def test_forest_output_is_byte_stable(capsys, fmt, name, n):
    code, out, _ = run_cli(
        capsys,
        "export", "--what", "forests", "--format", fmt,
        "--input", str(INSTANCES / name), "--n", str(n),
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FOREST_DIGESTS[(fmt, name, n)]


def test_series_hand_expansion_low_degree(capsys):
    """Degree <= 2 of the three-factor exponential product, by hand.

    Tree counts at two leaves: 4 cherries for the trivial label (|G| = 4
    edge labelings), 8 trees for each order-2 label (2 labelings doubled by
    optional unary leaf vertices); each order-2 label also has the single
    one-leaf tree at degree 1.
    """
    code, out, _ = run_cli(
        capsys,
        "series",
        "--input",
        str(INSTANCES / "klein4.json"),
        "--max-degree",
        "2",
    )
    assert code == 0
    tilde = json.loads(out)["gamma_tilde"]
    by_key = {}
    for term in tilde["terms"]:
        key = (term["s"], term["t"], tuple(sorted(term["tH"].items())))
        by_key[key] = term["coeff"]
    assert by_key[(0, 0, ())] == "1"
    assert by_key[(1, 0, (("{0,1}", 1),))] == "1"
    assert by_key[(1, 0, (("{0,2}", 1),))] == "1"
    # one tree with two leaves on one order-2 label: 8 labelings / 2!
    assert by_key[(1, 0, (("{0,1}", 2),))] == "4"
    assert by_key[(1, 0, (("{0,2}", 2),))] == "4"
    # both leaves on the trivial label, one component: the bare cherry
    # (4 labelings) or a cherry grafted under a one-leaf vertex of either
    # order-2 label (4 each): 12 / 2!
    assert by_key[(1, 0, (("{0}", 2),))] == "6"
    # two one-leaf trees on distinct labels
    assert by_key[(2, 0, (("{0,1}", 1), ("{0,2}", 1)))] == "1"
    # two one-leaf trees on the same label: a single forest, 1 / 2! each way
    assert by_key[(2, 0, (("{0,1}", 2),))] == "1/2"


def test_export_forests_dot_single(capsys):
    code, out, _ = run_cli(
        capsys,
        "export",
        "--input",
        str(INSTANCES / "z2.json"),
        "--n",
        "1",
        "--what",
        "forests",
        "--format",
        "dot",
    )
    assert code == 0
    assert out.count("digraph") == 1


# a DOT quoted string: any character but a quote or a backslash, or either
# one escaped by a backslash
DOT_LABEL = re.compile(r'label="((?:[^"\\]|\\.)*)"')


@pytest.mark.parametrize("what", ["forests", "nested"])
def test_export_dot_escapes_quotes_and_backslashes_in_names(tmp_path, capsys, what):
    data = json.loads((INSTANCES / "klein4.json").read_text())
    data["names"]["0,2"] = 'H"1\\'
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        capsys, "export", "--what", what, "--format", "dot",
        "--input", str(path), "--n", "1",
    )
    assert code == 0
    label_lines = [line for line in out.splitlines() if "label=" in line]
    assert label_lines
    for line in label_lines:
        assert DOT_LABEL.search(line), line
        # the quoted string ends where the attribute list does
        assert DOT_LABEL.sub("", line).count('"') == 0, line
    escaped = {"forests": r'label="H\"1\\"', "nested": r'label="H^H\"1\\(1^0)"'}
    assert escaped[what] in out


def test_export_lattice_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "export",
        "--input",
        str(INSTANCES / "z2.json"),
        "--what",
        "lattice",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 6
    assert payload["ambient_dim"] == 2


def test_export_nested_json_deterministic(capsys):
    args = (
        "export",
        "--input",
        str(INSTANCES / "z3.json"),
        "--what",
        "nested",
        "--format",
        "json",
    )
    code, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert first == second
    assert json.loads(first)["count"] == 11


def test_selftest_passes_on_bundled_instances(capsys):
    for name in ("z2.json", "z3.json", "z4_plane.json", "s3.json"):
        code, out, _ = run_cli(
            capsys, "selftest", "--input", str(INSTANCES / name)
        )
        assert code == 0, out
        assert "FAIL" not in out


def test_selftest_refuses_an_instance_past_the_nested_cap(capsys):
    """The bundled series host at its file n=8 has 5.04e16 nested sets; the
    forest count stops it before any check enumerates them."""
    chains = str(INSTANCES / "z2x4_chains.json")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "selftest", "--input", chains)
    assert code == 3
    assert time.perf_counter() - start < 10
    assert out == ""
    assert "50409991967733247 nested sets" in err
    assert "cap of 10000000" in err and "--n" in err and "--cap-nested" in err
    code, _, err = run_cli(
        capsys, "selftest", "--input", chains, "--n", "3", "--cap-nested", "123246"
    )
    assert code == 3
    assert "123247 nested sets" in err


def test_selftest_runs_the_series_host_at_small_n(capsys):
    code, out, _ = run_cli(
        capsys, "selftest", "--input", str(INSTANCES / "z2x4_chains.json"), "--n", "2"
    )
    assert code == 0, out
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)


def test_nested_and_forests_listings(capsys):
    code, out, _ = run_cli(
        capsys, "nested", "--input", str(INSTANCES / "z2.json"), "--limit", "3"
    )
    assert code == 0
    assert out.splitlines()[0] == "9 nested sets"
    code, out, _ = run_cli(
        capsys, "forests", "--input", str(INSTANCES / "z2.json"), "--limit", "3"
    )
    assert code == 0
    assert out.splitlines()[0] == "9 forests"


def test_nested_builds_only_the_sets_it_prints(capsys, monkeypatch):
    """S3 at n = 4 has 677,183 nested sets; `--limit 3` builds three."""
    built = []
    real = arrangement.NestedSet

    def counting(blocks):
        built.append(blocks)
        return real(blocks)

    monkeypatch.setattr(arrangement, "NestedSet", counting)
    code, out, _ = run_cli(
        capsys, "nested", "--input", str(INSTANCES / "s3.json"), "--n", "4", "--limit", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "677183 nested sets"
    assert lines[-1] == "  ... 677180 more"
    assert len(lines) == 5 and len(built) == 3


@pytest.mark.parametrize("name, n", [("klein4", 3), ("s3", 3), ("z2", 4)])
def test_nested_builds_its_clique_table_once(capsys, monkeypatch, name, n):
    """`nested` counts the sets and then lists some: both read one clique
    table, so `_compatibility` and the cap check each run once."""
    calls = []
    real = arrangement._compatibility

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(arrangement, "_compatibility", counting)
    code, out, _ = run_cli(
        capsys, "nested", "--input", str(INSTANCES / f"{name}.json"), "--n", str(n)
    )
    assert code == 0 and out.endswith(" more\n")
    assert len(calls) == 1


def test_lattice_summary(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--input", str(INSTANCES / "z4.json"))
    assert code == 0
    assert "lattice size" in out


def test_lattice_cap_is_the_exact_count(capsys):
    """Z/2 at n = 4 has 116 flats: a cap of 116 passes and 115 is exit 3."""
    z2 = str(INSTANCES / "z2.json")
    code, out, _ = run_cli(
        capsys, "lattice", "--input", z2, "--n", "4", "--cap-lattice", "116"
    )
    assert code == 0
    assert out.startswith("lattice size 116 ")
    code, out, err = run_cli(
        capsys, "lattice", "--input", z2, "--n", "4", "--cap-lattice", "115"
    )
    assert code == 3
    assert out == ""
    assert "has 116 elements, above the cap of 115" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lattice",),
        ("export", "--what", "lattice"),
        ("export", "--what", "lattice", "--format", "dot"),
    ],
    ids=["lattice", "export-json", "export-dot"],
)
def test_lattice_is_refused_by_its_exact_count(capsys, monkeypatch, argv):
    """chains8 at n = 6 has 4,929,983 flats, above the default cap of 10^6:
    `flat_counts` refuses it before a block is built, where a closure would
    build 10^6 flats first."""

    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the count was checked")

    monkeypatch.setattr(arrangement, "building_blocks", refuse)
    chains = str(INSTANCES / "z2x4_chains.json")
    code, out, err = run_cli(capsys, *argv, "--input", chains, "--n", "6")
    assert code == 3
    assert out == ""
    assert "has 4929983 elements, above the cap of 1000000" in err


def test_count_lattice_cap_is_the_exact_count(capsys, monkeypatch):
    """Z/2 at n = 3 has 93 nested sets: a cap of 93 passes, and 92 is exit 3
    before a block is built."""
    z2 = str(INSTANCES / "z2.json")
    argv = ("count", "--method", "lattice", "--input", z2, "--n", "3")
    code, out, _ = run_cli(capsys, *argv, "--cap-nested", "93")
    assert code == 0
    assert out.endswith("count 93\n")

    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the count was checked")

    monkeypatch.setattr(arrangement, "building_blocks", refuse)
    code, out, err = run_cli(capsys, *argv, "--cap-nested", "92")
    assert code == 3
    assert out == ""
    assert "93 nested sets at n=3 exceed the cap of 92" in err


@pytest.mark.parametrize(
    "name, n, expected",
    [
        ("klein4", 3, "lattice 3493 (T)\nforest 3493 (T)\negf 3493 (T)\ncount 3493\n"),
        ("s3", 3, "lattice 10159 (T)\nforest 10159 (T)\ncount 10159\n"),
        ("z2x4_chains", 2, "lattice 1223 (T)\nforest 1223 (T)\negf 1223 (T)\ncount 1223\n"),
    ],
)
def test_count_all_methods_stdout_apart_from_times(capsys, name, n, expected):
    code, out, _ = run_cli(
        capsys, "count", "--all-methods", "--input", str(INSTANCES / f"{name}.json"),
        "--n", str(n),
    )
    assert code == 0
    assert re.sub(r"\(\d+\.\d{3}s\)", "(T)", out) == expected


def test_selftest_compares_the_clique_count(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "count_nested_sets", lambda inst: 8)
    code, out, _ = run_cli(capsys, "selftest", "--input", str(INSTANCES / "z2.json"))
    assert code == 1
    assert "FAIL count-agreement: clique count 8 != 9" in out


def _z2_with(tmp_path, **extra):
    data = json.loads((INSTANCES / "z2.json").read_text())
    data.update(extra)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "bounds",
    [
        {"cap_nested": "x"},
        {"cap_nested": 2.5},
        {"cap_lattice": -1},
        {"cap_lattice": True},
        "notadict",
        [],
    ],
    ids=["string", "float", "negative", "bool", "string-bounds", "list-bounds"],
)
def test_bad_bounds_in_the_file_are_exit_2(tmp_path, capsys, bounds):
    code, out, err = run_cli(capsys, "count", "--input", _z2_with(tmp_path, bounds=bounds))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_bool_n_in_the_file_is_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "count", "--input", _z2_with(tmp_path, n=True))
    assert code == 2
    assert out == ""
    assert err == "input error: n: expected a positive integer, got True\n"


def test_group_past_the_order_bound_is_exit_3(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {"n": 2, "group": {"abelian": [65]}, "representation": {"characters": [[1]]}}
        )
    )
    code, out, err = run_cli(capsys, "count", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err == "bound exceeded: group order 65 exceeds the bound 64\n"


def test_bad_names_in_the_file_are_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "count", "--input", _z2_with(tmp_path, names="e"))
    assert code == 2
    assert "names: expected an object" in err


@pytest.mark.parametrize("flag", ["--cap-nested", "--cap-lattice"])
def test_negative_cap_on_the_command_line_is_exit_2(capsys, flag):
    code, out, err = run_cli(
        capsys, "count", "--input", str(INSTANCES / "z2.json"), flag, "-1"
    )
    assert code == 2
    assert out == ""
    assert "expected a nonnegative integer, got -1" in err


def test_good_bounds_in_the_file_still_apply(tmp_path, capsys):
    path = _z2_with(tmp_path, bounds={"cap_nested": 3, "cap_lattice": 0})
    code, _, err = run_cli(capsys, "count", "--input", path)
    assert code == 3
    assert "cap of 3" in err
    code, out, _ = run_cli(capsys, "count", "--input", path, "--cap-nested", "9")
    assert code == 0
    assert out.splitlines()[-1] == "count 9"


@pytest.mark.parametrize(
    "group, representation",
    [
        (None, {"characters": [["a"]]}),
        (None, {"characters": [1]}),
        (None, {"characters": [[1.5]]}),
        (None, {"characters": [[True]]}),
        ({"abelian": [True, 2]}, {"characters": [[0, 1]]}),
        ({"cayley": [[0, 1], 1]}, {"matrices": {"1": [[-1]]}}),
        ({"cayley": [[0, True], [1, 0]]}, {"matrices": {"1": [[-1]]}}),
        (None, {"matrices": {"1": [-1]}}),
        (None, {"matrices": {"0": [[2]], "1": [[-1]]}}),
        (None, {"matrices": {"0": [[1, 0], [0, 0]], "1": [[-1, 0], [0, 0]]}}),
        ({"cayley": [[0]]}, {"matrices": {"0": []}}),
    ],
    ids=[
        "string-character",
        "int-character",
        "float-character",
        "bool-character",
        "bool-abelian-factor",
        "cayley-row-not-a-list",
        "bool-cayley-entry",
        "matrix-rows-not-lists",
        "bad-identity-matrix",
        "idempotent-identity-matrix",
        "zero-dimensional",
    ],
)
def test_bad_group_or_representation_is_exit_2(tmp_path, capsys, group, representation):
    path = _z2_with(tmp_path, group=group or {"abelian": [2]}, representation=representation)
    code, out, err = run_cli(capsys, "closed-subgroups", "--input", path)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "Traceback" not in err


MATRICES_Z2 = '{"n": 1, "group": {"abelian": [2]}, "representation": {"matrices": %s}}'


@pytest.mark.parametrize(
    "body, message",
    [
        (MATRICES_Z2 % "[[[-1]]]", "representation.matrices: expected an object"),
        (MATRICES_Z2 % '{"a": [[-1]]}', "key 'a' is not an element id"),
        (MATRICES_Z2 % '{"5": [[-1]]}', "element id 5 out of range"),
        ("[1, 2]", "instance: expected a JSON object"),
        ('{"n": 1,', "invalid JSON"),
        (MATRICES_Z2 % '{"1": [[-1, 0]]}', "matrix for element 1 is not square"),
        (MATRICES_Z2 % '{"0": [[1]], "1": [[-1, 0], [0, 1]]}', "mixed sizes"),
        (MATRICES_Z2 % "{}", "no generator matrices given"),
        (MATRICES_Z2 % '{"1": [[-1, 0], [0]]}', "matrix for element 1 is not square"),
    ],
    ids=[
        "matrices-not-an-object",
        "non-integer-key",
        "out-of-range-id",
        "top-level-list",
        "invalid-json",
        "non-square",
        "mixed-sizes",
        "no-generators",
        "ragged-rows",
    ],
)
def test_malformed_matrix_files_are_exit_2(tmp_path, capsys, body, message):
    path = tmp_path / "inst.json"
    path.write_text(body)
    code, out, err = run_cli(capsys, "closed-subgroups", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_unreadable_json_is_exit_2_without_a_traceback(tmp_path, data):
    """Bytes that do not decode and arrays nested past the recursion limit
    ended in a traceback with exit 1, the disagreement code."""
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    code, out, err = _main_in_a_new_process(["count", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_routes_that_disagree_are_exit_1(capsys, monkeypatch):
    """`count --all-methods` prints the counts of every route and, when they
    differ, a DISAGREEMENT line in place of the count."""
    count = cli.count_forests
    monkeypatch.setattr(cli, "count_forests", lambda inst: count(inst) + 1)
    code, out, _ = run_cli(
        capsys, "count", "--all-methods", "--input", str(INSTANCES / "z2.json")
    )
    assert code == 1
    assert "DISAGREEMENT egf=9 forest=10 lattice=9" in out.splitlines()
    assert not any(line.startswith("count ") for line in out.splitlines())


def test_a_library_error_is_exit_1(capsys, monkeypatch):
    def refuse(inst, args, out):
        raise NotRealizable("no such forest")

    monkeypatch.setitem(cli.HANDLERS, "count", refuse)
    code, out, err = run_cli(capsys, "count", "--input", str(INSTANCES / "z2.json"))
    assert code == 1
    assert out == ""
    assert err == "error: no such forest\n"


@pytest.mark.parametrize(
    "characters, message",
    [
        ([[2]], "representation not faithful"),
        (
            [[1], [0]],
            "representation contains the trivial representation "
            "(the full group fixes a nonzero vector)",
        ),
    ],
    ids=["not-faithful", "trivial-summand"],
)
def test_invalid_character_files_name_the_broken_rule(tmp_path, capsys, characters, message):
    path = _z2_with(
        tmp_path, group={"abelian": [4]}, representation={"characters": characters}
    )
    code, out, err = run_cli(capsys, "closed-subgroups", "--input", path)
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def _json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-3, 9)
        | st.floats(-3, 3, allow_nan=False)
        | st.sampled_from(["", "a", "1", "1/2", "1/0", "-1", "0,1"])
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["", "0", "1", "a", "0,1"]), inner, max_size=3),
        max_leaves=6,
    )


def _field_paths(doc, prefix=()):
    """Every path to a member or list entry of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _group_order_at_most(doc, bound):
    group = doc.get("group")
    if not isinstance(group, dict):
        return True
    factors = group.get("abelian")
    if isinstance(factors, list) and all(type(d) is int for d in factors):
        order = 1
        for d in factors:
            order *= max(d, 1)
        if order > bound:
            return False
    table = group.get("cayley")
    return not (isinstance(table, list) and len(table) > bound)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["z2.json", "klein4.json", "s3.json"]),
    st.data(),
    _json_values(),
)
def test_mutated_instance_files_never_escape_main(tmp_path_factory, name, data, value):
    """One field of a small valid file replaced by a random JSON value: the
    command ends in exit 0, 2 or 3, never in a traceback or exit 1."""
    doc = json.loads((INSTANCES / name).read_text())
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    assume(_group_order_at_most(doc, 8))
    target = tmp_path_factory.mktemp("fuzz") / "inst.json"
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["closed-subgroups", "--input", str(target)])
    assert code in (0, 2, 3), err.getvalue()


def test_selftest_bounds_its_work(capsys):
    """The series host at n=3 has 123,247 nested sets, under the default cap
    of 10^7, but with its 196 blocks the checks' work is 24.2M: refused at
    once, before anything is enumerated or printed."""
    chains = str(INSTANCES / "z2x4_chains.json")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "selftest", "--input", chains, "--n", "3")
    assert time.perf_counter() - start < 10
    assert code == 3
    assert out == ""
    assert "123247 nested sets x 196 blocks = 24156412" in err
    assert "cap of 10000000" in err


def test_selftest_bounds_the_work_of_a_nonabelian_instance(capsys, monkeypatch):
    """S3 at n=3: 10,159 nested sets x 124 blocks; the forest count bounds
    the work of a nonabelian instance too, before anything is enumerated."""

    def refuse(*args, **kwargs):
        raise AssertionError("selftest enumerated before it bounded its work")

    monkeypatch.setattr(selftest, "enumerate_nested_sets", refuse)
    monkeypatch.setattr(selftest, "enumerate_forests", refuse)
    s3 = str(INSTANCES / "s3.json")
    code, out, err = run_cli(
        capsys, "selftest", "--input", s3, "--n", "3", "--cap-nested", "1259715"
    )
    assert code == 3
    assert out == ""
    assert "10159 nested sets x 124 blocks = 1259716" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["forests", "--input", "z2.json", "--n", "1100"],
        ["count", "--method", "forest", "--input", "z2.json", "--n", "1100"],
        ["nested", "--input", "z2.json", "--n", "40"],
        ["count", "--method", "lattice", "--input", "s3.json", "--n", "30"],
        ["forests", "--input", "z2x4_chains.json"],
        ["count", "--method", "forest", "--input", "z2x4_chains.json"],
        ["nested", "--input", "klein4.json", "--n", "9", "--limit", "1"],
        ["export", "--what", "nested", "--input", "klein4.json", "--n", "9"],
        ["series", "--input", "z2.json", "--max-degree", "200"],
        ["count", "--method", "egf", "--input", "z2.json", "--n", "3000"],
        ["count", "--method", "egf", "--input", "z2.json", "--n", "3000", "--cap-nested", "0"],
    ],
    ids=[
        "forests-z2",
        "count-forest-z2",
        "nested-z2",
        "count-lattice-s3",
        "forests-chains8",
        "count-forest-chains8",
        "nested-klein4",
        "export-nested-klein4",
        "series-z2",
        "count-egf-z2",
        "count-egf-z2-cap-0",
    ],
)
def test_caps_refuse_before_any_block_is_built(argv):
    """Every block is a nested set, so the forest count (or, past the bit
    length of the cap, n alone) refuses with exit 3 before a block is
    built.  These ended in a RecursionError, a MemoryError or a run
    without end; the subprocess has a time and a memory limit so that a
    regression fails instead of taking the machine's memory.  The
    series host at its file n=8 has 5,586,239 blocks, under the default cap
    of 10^7, but 5.04e16 forests: the forest count refuses it, where the
    enumeration grew to 7.1 GB over 77 s.  klein4 at n=9 has 508,465
    blocks and 5.8e14 nested sets: the same count refuses the nested-set
    enumeration, which ran without end (`--limit` only trims the output).
    `series` on Z/2 at degree 200 ran past 20 s; its cost estimate,
    (d + 1) * C(d + v, v) * d = 8.2e8 for v = 2 t-variables, refuses it.
    `count --method egf` on Z/2 at n=3000 ran past 20 s, with or without a
    cap; it packs every t-variable as t, so its estimate is that of v = 1,
    (n + 1)^2 * n = 2.7e10."""
    argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(INSTANCES.parent / "src"))
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "dowlingnest.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert time.perf_counter() - start < 10
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert "bound exceeded" in done.stderr
    assert "Traceback" not in done.stderr


def test_out_of_memory_is_exit_3_without_a_traceback(capsys, monkeypatch):
    """A `MemoryError` is a bound exceeded, not a disagreement (exit 1)."""

    def exhaust(inst, args, out):
        raise MemoryError

    monkeypatch.setitem(cli.HANDLERS, "count", exhaust)
    code, out, err = run_cli(capsys, "count", "--input", str(INSTANCES / "z2.json"))
    assert code == 3
    assert out == ""
    assert err.startswith("bound exceeded: out of memory")
    assert "Traceback" not in err


def test_egf_count_is_refused_past_its_estimate(capsys):
    """The estimate of the count at n is (n + 1)^2 * n: 1210 at n = 10."""
    z2 = str(INSTANCES / "z2.json")
    argv = ("count", "--method", "egf", "--input", z2, "--n", "10")
    code, out, _ = run_cli(capsys, *argv, "--cap-nested", "1210")
    assert code == 0
    assert out.endswith("count 1080730282569\n")
    code, out, err = run_cli(capsys, *argv, "--cap-nested", "1209")
    assert code == 3
    assert out == ""
    assert "series cost estimate 1210 at --n 10" in err


def test_series_builds_the_forest_series_and_g_once(capsys, monkeypatch):
    """`series` composes the full forest series once and takes G from its own
    packed composition: `_graded_tilde` is reached once and the forest sum
    twice, once for the forest series and once for G, whichever namespace
    the call goes through."""
    calls = dict.fromkeys(("_graded_tilde", "_graded_forest_sum"), 0)
    for name in calls:
        original = getattr(series_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (series_module, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    chains = str(INSTANCES / "z2x4_chains.json")
    code, out, _ = run_cli(capsys, "series", "--input", chains, "--max-degree", "3")
    assert code == 0
    assert set(json.loads(out)) == {"gamma_tilde", "gamma_bar", "g"}
    assert calls == {"_graded_tilde": 1, "_graded_forest_sum": 2}
