"""Golden artifact digests: every command's files, byte for byte.

Each case runs one command through ``cli.main`` in its own directory and
compares the SHA-256 of every file it writes with the digest written
here.  The digests were taken with numpy 2.4.6 on x86-64 (the sampling
commands' streams are numpy's PCG64 words, hashed by the package); a
change that alters an artifact on purpose updates its digest here and
says so in CHANGES.md.
"""

import hashlib

import pytest

from axialfisher.cli import EXIT_OK, main

HENE = ("--wavelength", "632.8nm", "--rayleigh-range", "18.9um")
UNIT = ("--waist", "1m", "--rayleigh-range", "1m")
RELAY = ("--focal", "10mm", "--object-distance", "12mm")
SHORT_RUN = ("--n-per-trial", "2000", "--trials", "4")

#: case -> (argv without ``--out``, output name, {file: SHA-256}).
CASES = {
    "fi-scan-relay-csv": (
        ["fi-scan", *HENE, *RELAY, "--zmin", "10mm", "--zmax", "60mm"], "scan.csv", {
            "scan.csv": "6e0b2e174557af22db01695ade59f93a5a6e41169327672b6618f4428874f5b9",
            "scan.json": "8f3f3aecfa285ab9912d217d6571027671596d3abfd44cd187c36d9b94b75fb5",
        }),
    "fi-scan-relay-json": (
        ["fi-scan", *HENE, *RELAY, "--zmin", "10mm", "--zmax", "60mm", "--format", "json"],
        "scan.json", {
            "scan.json": "77829e0a679ac638a5ed8724710177e4b9d3d1646218d674ef93ac66af7f097e",
        }),
    "fi-density-free": (
        ["fi-density", *HENE], "density.csv", {
            "density.csv": "1798a2e4161ffaa4724dc6c8964cfddbbd9b6a3152c34329577373c02cdf05e3",
            "density.json": "0ad5060c1be704b3529b6ae21fc4d4260f890580e581d8bf904ef360a35b5c55",
        }),
    "fi-density-relay": (
        ["fi-density", *HENE, *RELAY], "density.csv", {
            "density.csv": "6ccc3e41bc2fa713d31093fd9c372baebc56a1213ed0bf06cbfe215f6329a237",
            "density.json": "6090ae084d6ef0debaca4aa1511f923dd3a25bc350716badde1b3a322fe70b86",
        }),
    "optimal-plane-relay": (
        ["optimal-plane", *HENE, *RELAY], "planes.json", {
            "planes.json": "df09ed8955fe2a4efd8fc16ea7ce29750b3105c625da6f6fab294a8aa770b8de",
        }),
    # f - z + z_R = 0 in powers of two: one optimal plane at infinity.
    "optimal-plane-degenerate": (
        ["optimal-plane", *UNIT, "--focal", "1m", "--object-distance", "2m"], "planes.json", {
            "planes.json": "8889f5fa42a36dabc5721bf0d8081d54061a51386e7ba2a3999fd931ca1ca9ca",
        }),
    "optimal-plane-front-focal": (
        ["optimal-plane", *UNIT, "--focal", "1m", "--object-distance", "1m"], "planes.json", {
            "planes.json": "7c752ffbd11ad711a28bd3ae1fb6e0cacb57aa6c3431b7d6fa267393962dff09",
        }),
    "point-source": (
        ["point-source", "--wavenumber", "1e7", "--pupil-width", "2mm", "--distance", "1m"],
        "point.json", {
            "point.json": "e04b2a1c2166c7de210deccba947407b208b96c80624473c31ddb8179ac752b2",
        }),
    "simulate-mle-free": (
        ["simulate", *HENE, *SHORT_RUN, "--estimator", "mle", "--delta", "100nm"],
        "run.csv", {
            "run.csv": "c4e8efbefa0e0330a2b3ecc77059255bae34bbef79d767f9112d77d7ce6a4451",
            "run.json": "c02c36ff48edfac2f7ceb31cc8cede7586a8307b64d91b142e5522c084907af7",
        }),
    # Acceptance criterion 5's ~20x relay.
    "simulate-fraction-absolute-poisson-20x": (
        ["simulate", *HENE, "--focal", "100mm", "--object-distance", "105mm", *SHORT_RUN,
         "--estimator", "fraction-absolute", "--poisson-total"], "run.csv", {
            "run.csv": "437c89970540835f7342688f2516d7880e073f6acf08964312099baddb3a0b4b",
            "run.json": "ef556c2ef8d4bbe1f939514304a1c2cada461f17362d1641f4695b94b750d1e9",
        }),
    "reproduce-experiment": (
        ["reproduce-experiment", "--trials", "4"], "preset.csv", {
            "preset.csv": "9e81ba6b1f069f4089b8ba540833628c1953c90ae72ef2bcf9eb0a6d5a34110d",
            "preset.json": "d77119220350216189d8c4b1b87fbad6b87e33bf8c965b535f3f644ca72bbb25",
        }),
}


def artifact_digests(tmp_path, monkeypatch, argv, out) -> dict[str, str]:
    """Run ``argv`` with ``--out out`` in an empty ``tmp_path``; the
    SHA-256 of each file it leaves there, by name."""
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", out]) == EXIT_OK
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("case", CASES)
def test_command_artifacts_match_their_golden_digests(tmp_path, monkeypatch, case):
    argv, out, digests = CASES[case]
    assert artifact_digests(tmp_path, monkeypatch, argv, out) == digests
