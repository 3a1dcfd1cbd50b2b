"""Correctness and failure accounting, without spawning anything."""

from pathlib import Path

import pytest

from benchmarks.e2e import cli, rounds
from repro.api import open_pdp
from repro.workload.bank_scale import (
    BankScaleConfig,
    bank_scale_policy_set,
    bank_scale_request_stream,
)


@pytest.fixture
def requests_and_pdp():
    bank = BankScaleConfig(n_users=200, seed=3)
    with open_pdp(bank_scale_policy_set(bank), "memory") as pdp:
        yield list(bank_scale_request_stream(bank, 60)), pdp


def _round(tmp_path, name, codes, warmup=10):
    config = {"scratch": str(tmp_path), "role": name, "round": 0}
    return rounds.save_codes(config, bytearray(codes), warmup) | {
        "attempted": len(codes) - warmup
    }


def test_a_wrong_oracle_effect_drops_correct_share(tmp_path, requests_and_pdp):
    requests, pdp = requests_and_pdp
    tally = rounds.Tally()
    tally.drive(requests, pdp.decide)
    assert tally.failed == 0 and len(tally.codes) == 60
    honest = _round(tmp_path, "oracle", tally.codes)
    result = _round(tmp_path, "round", tally.codes)
    cli._compare(honest, [result])
    assert result["matches"] == result["attempted"] == 50 and result["warmup_matches"]

    doctored = bytearray(tally.codes)
    doctored[30] ^= 1
    wrong = _round(tmp_path, "oracle", doctored)
    cli._compare(wrong, [result])
    assert result["matches"] == 49
    assert cli._check("engine-hot", 1, wrong | {"store_sha256": ""}, [
        result | {"failed": 0, "first_error": "", "store_sha256": "", "counters": {}}
    ])


def test_a_raised_decide_is_failed_and_incorrect(requests_and_pdp):
    requests, pdp = requests_and_pdp
    calls = iter(range(len(requests)))

    def flaky(request):
        if next(calls) % 20 == 7:
            raise RuntimeError("boom")
        return pdp.decide(request)

    tally = rounds.Tally()
    tally.drive(requests, flaky)
    assert tally.failed == 3
    assert tally.codes.count(rounds.CODE_FAILED) == 3
    assert len(tally.samples) == 57  # a failed decision gives no latency sample
    assert "boom" in tally.first_error


def test_effect_codes_name_the_firing_constraint_kind(requests_and_pdp):
    requests, pdp = requests_and_pdp
    codes = {rounds.code_of(pdp.decide(request)) for request in requests}
    assert codes <= {rounds.CODE_GRANT, rounds.KIND_CODES["MMER"]}
    assert rounds.CODE_GRANT in codes


def test_scratch_file_system_is_matched_on_whole_path_components():
    mounts = [
        "/dev/vda / ext4 rw 0 0",
        "tmpfs /root/re tmpfs rw 0 0",
        "tmpfs /dev/shm tmpfs rw 0 0",
    ]
    assert cli._fstype_of(Path("/root/repo/.bench_build/e2e"), mounts) == "ext4"
    assert cli._fstype_of(Path("/dev/shm/e2e"), mounts) == "tmpfs"
    assert cli._fstype_of(Path("/dev/shm"), mounts) == "tmpfs"
