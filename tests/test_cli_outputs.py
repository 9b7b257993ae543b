"""CLI stdout is byte-identical from change to change: a fixed list of
argv runs through ``cli.main`` in-process and each stdout is pinned by
SHA-256 digest, as ``test_demos`` pins the demos.

Verify outcomes carry one timing field; its value is replaced by 0
before hashing.  A change that alters an output on purpose updates its
digest here.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from partition_records import cli

_ELAPSED = re.compile(r'"elapsed_ms": [^,\n]+')


def _digest(stdout: str) -> str:
    return hashlib.sha256(_ELAPSED.sub('"elapsed_ms": 0', stdout).encode()).hexdigest()


STDOUT_SHA256 = {
    "gf --k 1 --max-n 0 --format json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "gf --k 1 --max-n 5 --format json": "2a5e2ebed2a5451b8b596c10f514145bb66455a81ba6083511f1ace683dfb377",
    "gf --k 1 --max-n 12 --format json": "9512b0355ec9c6d86f1d9ff6c15eae2710063f624181e310ddac69b2f7519d5f",
    "gf --k 2 --max-n 0 --format json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "gf --k 2 --max-n 5 --format json": "bc518077d7d66888a602163afb0202b7400979666ef9bf879918c217890ac6d0",
    "gf --k 2 --max-n 12 --format json": "0decd9d2fa31e28862fce8191f97b1ef5dbf88db19cba42aa7b635d49cb82664",
    "gf --k 4 --max-n 0 --format json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "gf --k 4 --max-n 5 --format json": "9d07610642b400f6cb507a60b42f84943aeede254f7c0dacc2ddf742a40d6596",
    "gf --k 4 --max-n 12 --format json": "fd8187c169daf3f9716b804ca3491e124343182c4c93bf1dc9c8775c4ce75a52",
    "gf --k 7 --max-n 0 --format json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "gf --k 7 --max-n 5 --format json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "gf --k 7 --max-n 12 --format json": "02838a8e48edec5ee5068dac5617aee381a30ef247cfc10602a9dbf32179cd9e",
    "gf --k 1 --max-n 0 --format csv": "3902fc5608fe3da25f4e4ae3d543aafa4f88cd2fbb1b6c8c86e9e6a58b2cc0d2",
    "gf --k 1 --max-n 5 --format csv": "584b986259cf112162b2332d3220f0ef490cfdb742f08184e4a03272616aa9a7",
    "gf --k 1 --max-n 12 --format csv": "2fa47c80f78149e7e7ee9c730f5da5f0dbe8c2055c8f3959f4c205d1f0c1c1eb",
    "gf --k 2 --max-n 0 --format csv": "3902fc5608fe3da25f4e4ae3d543aafa4f88cd2fbb1b6c8c86e9e6a58b2cc0d2",
    "gf --k 2 --max-n 5 --format csv": "4d145bd6b9c93bee3a1c541a21b419ce46103499277fd6c5f75232ccb7acd87d",
    "gf --k 2 --max-n 12 --format csv": "18e88bbf31a97a2b446486c1bdb0ee6cdc1da99ed17b1bfb4ddf617a25facddf",
    "gf --k 4 --max-n 0 --format csv": "3902fc5608fe3da25f4e4ae3d543aafa4f88cd2fbb1b6c8c86e9e6a58b2cc0d2",
    "gf --k 4 --max-n 5 --format csv": "586a0fb621776bb841f20c1aa73753649dacdf86884f919e9d3d5aa97c7f6f90",
    "gf --k 4 --max-n 12 --format csv": "4c15be970a644bc58d10cab8f27543530f50e656427910f7c62cb283acb1cb3f",
    "gf --k 7 --max-n 0 --format csv": "3902fc5608fe3da25f4e4ae3d543aafa4f88cd2fbb1b6c8c86e9e6a58b2cc0d2",
    "gf --k 7 --max-n 5 --format csv": "3902fc5608fe3da25f4e4ae3d543aafa4f88cd2fbb1b6c8c86e9e6a58b2cc0d2",
    "gf --k 7 --max-n 12 --format csv": "a22abc20d7460e6f0ce57e6ed455640204f2f9fbf85fd0fee9424f5b0f4a7733",
    "total --n 0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "total --n 1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "total --n 7": "9e33e56cb61ef181f7c55cfc6387b8bc55eac43d9d8b5ff41d7d8ac012160acf",
    "total --n 50": "a3a50976db51b02beb951ab0f0bcb9bed6d9b576e358651f0f675886ed7cd000",
    "total --n 500": "e24fdd936bf159e13cc80d7e215e6d41c81de76d2eed313526448d391188f497",
    "total --method egf --n 0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "total --method egf --n 1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "total --method egf --n 10": "ec7b8577efb7a170f921fa00907ab8db915ccddb100bce0954068b3c309a7f0f",
    "total --method egf --n 120": "898f589fe26c950b326dda09b10e697472954a5949039b2549cdd267c78e7475",
    "total --method brute --n 0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "total --method brute --n 5": "2eba8f3814d9328e97b6dcaa28ed4728d65fe79746f0ef9b2c9a9ae876e88792",
    "total --method brute --n 9": "cbdea8d8528fb5305ca59cab452fdc773fc934f2fca3e453779e7732e52e756a",
    "asymptotic --ns 1,10,100,1000": "2b1583ea0c7f323d40e6b17c529df03f913bc59fbf8c63705974b3c5d44a648e",
    "asymptotic --ns ''": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "enumerate --n 6 --stat swrec": "3da6f93bd17186b6253372149f8562f1352c455dd1e4c6d5f0fc57c211150a2c",
    "enumerate --n 10 --k 3 --stat rec": "b49d87c25b7117bab825c7e2f6e2cb47e91b24a70bf67456ee0d51e3061fd8f1",
    "verify --suite all": "af77f83c4e98a8028fac5879c9e753bfa85db06c5e4e0721e43b27501a2531bc",
    "verify --suite asym": "eda026b5c0ca23ade5364fbdafeee1fbd7b433ccedef837ffe648d4cb6cc4879",
    "verify --suite bellshift": "3fd54a1dbffa384fde80e397734032819dde57442bc7930debbd9cadcdcd6828",
    "verify --suite eq1": "d9c473b52ad14b996ae43c84e67b68a217f168fc9720615be07f14e7f5dc2373",
    "verify --suite lemma2": "c6c1f2fa6f14e0e31fe710cec7c772090bba4d1dba3a8212234c0d6261cf741f",
    "verify --suite propn": "1f20ead3ad26485556ab4bd84c658df912558b9df85918fbe2ce7e118a28943f",
    "verify --suite recurrence": "34d754d0674ac5acbaac8b9618a9f48910c89ea2d1cab48e7cfd32aa5290ea01",
    "verify --suite thm2": "d04990e8b71deab5f4459ecfd94970cc00765ffd85349e21b821cb5ee0bb528c",
    "verify --suite thm3": "470e64ae15fd2b9feebeaeeee1265699d5e9d1b720b44235cea95343afa4a87e",
}


def test_every_suite_is_pinned():
    pinned = {shlex.split(line)[2] for line in STDOUT_SHA256 if line.startswith("verify ")}
    assert pinned == set(cli.verify_mod.SUITES)


@pytest.mark.parametrize("line", list(STDOUT_SHA256))
def test_cli_output_is_unchanged(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(shlex.split(line)) == 0
    assert _digest(out.getvalue()) == STDOUT_SHA256[line]


def test_asymptotic_over_its_whole_domain_is_unchanged():
    # every n that ``asymptotic --ns`` accepts, in one argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["asymptotic", "--ns", ",".join(map(str, range(1, 1001)))]) == 0
    assert _digest(out.getvalue()) == (
        "cccb618eb4b71f761e04df0d90d3e305ab2bcbab3b9d93d41c5dd6c50a399f78"
    )


# Runs each argv through ``cli.main`` in a process where mpmath cannot be
# imported, and prints [exit code, stdout] for each as JSON.
_WITHOUT_MPMATH = """
import contextlib, io, json, shlex, sys
sys.modules["mpmath"] = None
from partition_records import cli
runs = []
for line in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(shlex.split(line)), out.getvalue()])
print(json.dumps(runs))
"""


def test_outputs_need_only_the_standard_library():
    lines = ["asymptotic --ns 1,10,100,1000", "verify --suite asym"]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH, *lines],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [0, 0]
    assert [_digest(stdout) for _, stdout in runs] == [STDOUT_SHA256[line] for line in lines]
