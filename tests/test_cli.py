import dataclasses
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitkit.cli
from eitkit import (
    DimensionError,
    DomainError,
    Element,
    FormatError,
    Mesh,
    build_disk_mesh,
    load_candidates,
    load_mesh,
    save_mesh,
)
from eitkit.cli import _COMMANDS, REQUIRED, _as_bool, _load_sigma_csv, _write_pgm, main, render_element_field
from eitkit.textio import write_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pattern(path, entries):
    path.write_text("".join(f"{eid}: {amp}\n" for eid, amp in entries))


def read_id_values(path):
    """``id,value`` CSV rows as a dict, skipping comments and the column header."""
    out = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith(("#", "electrode", "element")):
            continue
        eid, value = line.split(",")
        out[int(eid)] = float(value)
    return out


@pytest.fixture
def mesh_file(tmp_path):
    path = tmp_path / "disk.mesh"
    code = main(["mesh", "gen", "--radius", "1.0", "--refine", "1", "--out", str(path)])
    assert code == 0
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "eitkit 0.1.0" in capsys.readouterr().out


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "gen", "--radius", "not-a-number", "--out", "x"])
    assert exc.value.code == 1


def test_mesh_gen_writes_expected_counts(capsys, mesh_file):
    mesh = load_mesh(mesh_file)
    assert mesh.n_nodes == 25
    text = mesh_file.read_text()
    assert text.startswith("# eitkit 0.1.0")
    assert "# command = mesh gen" in text


def test_mesh_validate_ok(capsys, mesh_file):
    code, out, _ = run(capsys, "mesh", "validate", str(mesh_file))
    assert code == 0
    assert "OK" in out


def test_mesh_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "mesh", "validate", str(tmp_path / "absent.mesh"))
    assert code == 1


def test_mesh_validate_reports_defects(capsys, mesh_file):
    broken = mesh_file.read_text().replace("[electrodes]\n0 1\n", "[electrodes]\n0 0\n")
    mesh_file.write_text(broken)
    code, out, _ = run(capsys, "mesh", "validate", str(mesh_file))
    assert code == 2
    assert "electrode-not-on-boundary" in out


def test_mesh_gen_bad_radius_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "mesh", "gen", "--radius", "-1", "--out", str(tmp_path / "m"))
    assert code == 2
    assert "radius" in err


def test_forward_uniform_halves_voltages(capsys, tmp_path, mesh_file):
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(0, 1.0), (4, -1.0)])
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    code, *_ = run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "1.0",
                   "--pattern", str(pattern), "--ground", "0", "--out", str(out1))
    assert code == 0
    code, *_ = run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "2.0",
                   "--pattern", str(pattern), "--ground", "0", "--out", str(out2))
    assert code == 0
    v1, v2 = read_id_values(out1), read_id_values(out2)
    assert set(v1) == set(v2) and len(v1) == 7
    for eid in v1:
        assert v2[eid] == pytest.approx(v1[eid] / 2.0, rel=1e-12)


def test_forward_antisymmetric_profile(capsys, tmp_path, mesh_file):
    # drive along the x axis, reference and ground on the y axis: mirror
    # electrodes see opposite voltages
    mesh = load_mesh(mesh_file)
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(0, 1.0), (4, -1.0)])
    out = tmp_path / "v.csv"
    ground = mesh.electrode_map[2]
    code, *_ = run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "1.0",
                   "--pattern", str(pattern), "--ground", str(ground),
                   "--reference", "2", "--out", str(out))
    assert code == 0
    v = read_id_values(out)
    for a, b in ((0, 4), (1, 3), (7, 5)):
        assert abs(v[a] + v[b]) <= 1e-9
    assert abs(v[6]) <= 1e-9


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_forward_bad_uniform_value_exits_2_naming_the_value(capsys, tmp_path, mesh_file, value):
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(0, 1.0), (4, -1.0)])
    out = tmp_path / "v.csv"
    code, _, err = run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", value,
                       "--pattern", str(pattern), "--out", str(out))
    assert code == 2
    assert f"uniform conductivity must be positive and finite, got {float(value)!r}" in err
    assert "element" not in err
    assert not out.exists()


def test_forward_rejects_unbalanced_pattern(capsys, tmp_path, mesh_file):
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(0, 1.0), (4, -0.999)])
    code, _, err = run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "1.0",
                       "--pattern", str(pattern), "--ground", "0",
                       "--out", str(tmp_path / "v.csv"))
    assert code == 2
    assert "sum to zero" in err


def test_forward_unknown_electrode_exits_2_with_its_line(capsys, tmp_path, mesh_file):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text("# drive\n0: 1.0\n99: -1.0\n")
    code, _, err = run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "1.0",
                       "--pattern", str(pattern), "--out", str(tmp_path / "v.csv"))
    assert code == 2
    assert "got '99: -1.0' (line 3)" in err


def test_forward_sigma_file_round(capsys, tmp_path, mesh_file):
    mesh = load_mesh(mesh_file)
    sigma = tmp_path / "sigma.csv"
    sigma.write_text(
        "element,sigma\n" + "".join(f"{e.id},1.0\n" for e in mesh.elements)
    )
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(1, 1.0), (5, -1.0)])
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "forward", "--mesh", str(mesh_file), "--sigma", str(sigma),
               "--pattern", str(pattern), "--ground", "0", "--out", str(out_a))[0] == 0
    assert run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "1.0",
               "--pattern", str(pattern), "--ground", "0", "--out", str(out_b))[0] == 0
    assert read_id_values(out_a) == read_id_values(out_b)


@pytest.mark.parametrize(
    "row, message, line_no",
    [
        ("3,2.0", "element 3 repeated", 6),  # the original row 3 follows it
        ("999,2.0", "element 999 is not on the mesh", 5),
        ("elementish,3", "expected int, got 'elementish'", 5),
        ("element,sigma", "expected int, got 'element'", 5),  # a header only on the first line
    ],
)
def test_forward_bad_sigma_row_exits_2_with_its_line(capsys, tmp_path, mesh_file, row, message,
                                                      line_no):
    mesh = load_mesh(mesh_file)
    rows = [f"{e.id},1.0" for e in mesh.elements]
    rows.insert(3, row)  # after the column header and three rows
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("element,sigma\n" + "\n".join(rows) + "\n")
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(1, 1.0), (5, -1.0)])
    out = tmp_path / "v.csv"
    code, _, err = run(capsys, "forward", "--mesh", str(mesh_file), "--sigma", str(sigma),
                       "--pattern", str(pattern), "--ground", "0", "--out", str(out))
    assert code == 2
    assert message in err and f"(line {line_no})" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1.0", "0", "nan", "inf"])
def test_forward_bad_sigma_value_is_format_error_at_its_line(capsys, tmp_path, value):
    disk = build_disk_mesh(1.0, 0)
    # element ids 10..17, so an element's id is not its row
    mesh = Mesh(disk.nodes, tuple(Element(e.id + 10, e.nodes) for e in disk.elements),
                disk.boundary_nodes, disk.electrodes)
    rows = [f"{e.id},1.0" for e in mesh.elements]
    rows[3] = f"13,{value}"
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("element,sigma\n" + "\n".join(rows) + "\n")
    message = f"conductivity of element 13 must be positive and finite, got {float(value)!r}"
    with pytest.raises(FormatError) as err:
        _load_sigma_csv(sigma, mesh)
    assert err.value.line_no == 5
    assert type(err.value.__cause__) is DomainError
    assert str(err.value) == f"{message} (line 5)"

    mesh_path, pattern, out = tmp_path / "m.mesh", tmp_path / "pattern.txt", tmp_path / "v.csv"
    save_mesh(mesh, mesh_path)
    write_pattern(pattern, [(0, 1.0), (4, -1.0)])
    code, _, err = run(capsys, "forward", "--mesh", str(mesh_path), "--sigma", str(sigma),
                       "--pattern", str(pattern), "--out", str(out))
    assert code == 2
    assert f"{message} (line 5)" in err
    assert not out.exists()


def test_demo_default_passes(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert out.count("candidate ") == 9
    assert "all claims hold" in out
    assert "non-unique" in out


def test_demo_tight_tolerance_still_passes(capsys):
    code, out, _ = run(capsys, "demo", "--tolerance", "1e-10")
    assert code == 0
    assert "all claims hold" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-8"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_demo_tolerance_must_be_finite_and_not_negative(capsys, tmp_path, value, source):
    if source == "flag":
        argv = ["demo", f"--tolerance={value}"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"[demo]\ntolerance = {value}\n")
        argv = ["demo", "--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert f"--tolerance must be finite and at least 0, got {float(value)}" in err
    assert "claims hold" not in out


def test_demo_rank_override_skips_claims(capsys):
    code, out, _ = run(capsys, "demo", "--d", "2")
    assert code == 0
    assert out.count("candidate ") == 4  # d**2 candidates
    assert "claim checks skipped" in out


def test_reconstruct_svd_demo_fixture(capsys, tmp_path):
    out = tmp_path / "cands.csv"
    code, text, _ = run(capsys, "reconstruct", "svd", "--demo-fixture", "--out", str(out))
    assert code == 0
    assert "non-uniqueness notice" in text
    cset = load_candidates(out)
    assert len(cset.candidates) == 9
    assert cset.channel_count == 4 and cset.rank == 3


def test_demo_failed_claim_exits_3(capsys, monkeypatch):
    import eitkit.cli as cli

    real = cli.extract_candidates

    def drop_one(projector, m, d):
        cset = real(projector, m, d)
        from eitkit import CandidateSet

        return CandidateSet(
            candidates=cset.candidates[:-1],
            eigenvalues=cset.eigenvalues[:-1],
            channel_count=cset.channel_count,
            rank=cset.rank,
            null_count=cset.null_count,
        )

    monkeypatch.setattr(cli, "extract_candidates", drop_one)
    code, _, err = run(capsys, "demo")
    assert code == 3
    assert "claim failed" in err


def candidates_changed_by(change):
    """A stand-in for ``extract_candidates`` whose every candidate is ``change(candidate)``."""
    real = eitkit.cli.extract_candidates

    def extract(projector, m, d):
        cset = real(projector, m, d)
        return dataclasses.replace(cset, candidates=tuple(change(mat) for mat in cset.candidates))

    return extract


# claim -> (the cli stage that feeds it, a stand-in that breaks it, what stderr names)
BROKEN_CLAIMS = {
    "basis shape": ("build_projector", lambda R, d: types.SimpleNamespace(R=R, channel_count=5, rank=d),
                    "basis factor shape (15, 9), expected (12, 9)"),
    "candidate shape": ("extract_candidates", candidates_changed_by(lambda mat: np.hstack([mat, 0 * mat[:, :1]])),
                        "candidate 0 has shape (4, 4), expected (4, 3)"),
    "unit peak": ("extract_candidates", candidates_changed_by(lambda mat: 2.0 * mat),
                  "candidate 0: largest entry magnitude 2.0 is not 1.0 within 1e-08"),
    "off-peak entries": ("extract_candidates", candidates_changed_by(lambda mat: np.where(mat == 0, 0.5, mat)),
                         "candidate 0: second-largest entry 5.000e-01 exceeds 1e-10"),
    "fit residual": ("fitting_residual", lambda A, basis: 1.0, "candidate fit residual 1.000e+00 exceeds 1e-08"),
}


@pytest.mark.parametrize("claim", BROKEN_CLAIMS)
def test_demo_each_broken_claim_exits_3_and_names_it(capsys, monkeypatch, claim):
    stage, fake, named = BROKEN_CLAIMS[claim]
    monkeypatch.setattr(eitkit.cli, stage, fake)
    code, out, err = run(capsys, "demo")
    assert code == 3
    assert f"demonstration claim failed: {named}" in err
    assert "claims hold" not in out


def test_reconstruct_svd_cumulant_statistic(capsys, tmp_path):
    from eitkit import MeasurementEnsemble, save_ensemble

    rng = np.random.default_rng(21)
    mixing = rng.standard_normal((5, 2))
    sources = rng.gamma(1.0, 1.0, size=(4000, 2)) - 1.0
    ens_path = tmp_path / "skewed.csv"
    save_ensemble(MeasurementEnsemble(sources @ mixing.T), ens_path)
    out = tmp_path / "cands.csv"
    code, *_ = run(capsys, "reconstruct", "svd", "--ensemble", str(ens_path), "--d", "2",
                   "--statistic", "cumulant", "--cumulant-index", "1", "--out", str(out))
    assert code == 0
    assert len(load_candidates(out).candidates) == 4
    code, *_ = run(capsys, "reconstruct", "svd", "--ensemble", str(ens_path), "--d", "2",
                   "--statistic", "pooled", "--out", str(out))
    assert code == 0


def skewed_ensemble_file(path):
    from eitkit import MeasurementEnsemble, save_ensemble

    rng = np.random.default_rng(21)
    sources = rng.gamma(1.0, 1.0, size=(400, 2)) - 1.0
    save_ensemble(MeasurementEnsemble(sources @ rng.standard_normal((5, 2)).T), path)
    return path


@pytest.mark.parametrize("index", ["99", "5", "-1"])
def test_reconstruct_svd_cumulant_index_outside_channels_exits_2(capsys, tmp_path, index):
    ens_path = skewed_ensemble_file(tmp_path / "skewed.csv")
    out = tmp_path / "cands.csv"
    code, _, err = run(capsys, "reconstruct", "svd", "--ensemble", str(ens_path), "--d", "2",
                       "--statistic", "cumulant", "--cumulant-index", index, "--out", str(out))
    assert code == 2
    assert f"cumulant index {index} outside 0..4" in err
    assert not out.exists()


def test_reconstruct_svd_unknown_config_statistic_exits_2_with_its_line(capsys, tmp_path):
    ens_path = skewed_ensemble_file(tmp_path / "skewed.csv")
    out = tmp_path / "cands.csv"
    config = tmp_path / "run.cfg"
    config.write_text(f"[reconstruct svd]\nensemble = {ens_path}\nd = 2\nstatistic = foo\n")
    code, _, err = run(capsys, "reconstruct", "svd", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "(line 4)" in err and "'foo'" in err and "[field: statistic]" in err
    assert not out.exists()
    config.write_text(f"[reconstruct svd]\nensemble = {ens_path}\nd = 2\nstatistic = pooled\n")
    assert run(capsys, "reconstruct", "svd", "--config", str(config), "--out", str(out))[0] == 0


def test_reconstruct_svd_from_ensemble_file(capsys, tmp_path):
    from eitkit import make_demo_fixture, save_ensemble

    _, generator = make_demo_fixture()
    ens_path = tmp_path / "ens.csv"
    save_ensemble(generator(repeats=3), ens_path)
    out = tmp_path / "cands.csv"
    code, *_ = run(capsys, "reconstruct", "svd", "--ensemble", str(ens_path),
                   "--d", "3", "--out", str(out))
    assert code == 0
    assert len(load_candidates(out).candidates) == 9


def write_sweep_config(path, mesh, n_patterns=None, ground="rotate", frequencies=(1000.0,)):
    n = mesh.n_nodes
    n_patterns = n if n_patterns is None else n_patterns
    lines = ["[frequencies]"] + [f"{f:g}" for f in frequencies] + ["[patterns]"]
    for k in range(n_patterns):
        lines.append(f"node {k % n}: 1.0, node {(k + 7) % n}: -1.0")
    lines += ["[model]", "sigma0 = 1.0", "sigma_inf = 1.0", "tau = 0",
              "element 2: 5.0 5.0 0", "[sweep]", "pairing = cross", f"ground = {ground}"]
    path.write_text("\n".join(lines) + "\n")


def test_reconstruct_multifreq_end_to_end(capsys, tmp_path):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    mesh = load_mesh(mesh_path)
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, mesh)
    sigma_out = tmp_path / "sigma.csv"
    image_out = tmp_path / "sigma.pgm"
    code, out, _ = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path),
                       "--sweep", str(sweep), "--out-sigma", str(sigma_out),
                       "--out-image", str(image_out), "--pixels", "40")
    assert code == 0

    values = read_id_values(sigma_out)
    expected = {e.id: (5.0 if e.id == 2 else 1.0) for e in mesh.elements}
    for eid, v in values.items():
        assert v == pytest.approx(expected[eid], rel=1e-6)

    pgm = image_out.read_text().splitlines()
    assert pgm[0] == "P2"
    assert any("sigma_range" in line for line in pgm if line.startswith("#"))
    body = [line for line in pgm[1:] if not line.startswith("#")]
    width, height = (int(x) for x in body[0].split())
    assert (width, height) == (40, 40)
    assert int(body[1]) == 255
    pixels = [int(tok) for line in body[2:] for tok in line.split()]
    assert len(pixels) == 40 * 40
    assert max(pixels) == 255 and min(pixels) == 0


def test_reconstruct_multifreq_recovers_phantom_at_refine_3(capsys, tmp_path):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "3", "--out", str(mesh_path)])
    mesh = load_mesh(mesh_path)
    assert mesh.n_nodes == 289
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, mesh)
    sigma_out = tmp_path / "sigma.csv"
    code, out, _ = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path),
                       "--sweep", str(sweep), "--out-sigma", str(sigma_out),
                       "--out-image", str(tmp_path / "sigma.pgm"), "--pixels", "16")
    assert code == 0
    assert "injections: 289," in out
    values = read_id_values(sigma_out)
    assert sorted(values) == [e.id for e in mesh.elements]
    for eid, v in values.items():
        assert v == pytest.approx(5.0 if eid == 2 else 1.0, rel=1e-9)


def test_reconstruct_multifreq_bad_pattern_line_exits_2_with_its_line(capsys, tmp_path):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, load_mesh(mesh_path), n_patterns=2)
    sweep.write_text(sweep.read_text().replace("[model]", "0: 1.0, 99: -1.0\n[model]"))
    code, _, err = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path),
                       "--sweep", str(sweep), "--out-sigma", str(tmp_path / "s.csv"),
                       "--out-image", str(tmp_path / "s.pgm"))
    assert code == 2
    assert "electrode 99 is not on the mesh (line 6)" in err


def test_reconstruct_multifreq_single_pattern_exits_4(capsys, tmp_path):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    mesh = load_mesh(mesh_path)
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, mesh, n_patterns=1, ground="0",
                       frequencies=(1000.0, 2000.0, 3000.0))
    code, _, err = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path),
                       "--sweep", str(sweep), "--out-sigma", str(tmp_path / "s.csv"),
                       "--out-image", str(tmp_path / "s.pgm"))
    assert code == 4
    assert "numerical rank 1" in err


@pytest.mark.parametrize("pixels", ["-3", "0"])
def test_reconstruct_multifreq_pixels_below_1_is_usage_error(capsys, tmp_path, pixels):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, load_mesh(mesh_path))
    sigma_out, image_out = tmp_path / "s.csv", tmp_path / "s.pgm"
    code, _, err = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path),
                       "--sweep", str(sweep), "--out-sigma", str(sigma_out),
                       "--out-image", str(image_out), "--pixels", pixels)
    assert code == 1
    assert f"--pixels must be at least 1, got {pixels}" in err
    assert not sigma_out.exists() and not image_out.exists()


def test_outputs_byte_identical_across_reruns(capsys, tmp_path):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    mesh = load_mesh(mesh_path)
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, mesh)
    argv = ["reconstruct", "multifreq", "--mesh", str(mesh_path), "--sweep", str(sweep),
            "--out-sigma", str(tmp_path / "s.csv"), "--out-image", str(tmp_path / "s.pgm"),
            "--pixels", "32"]
    assert main(list(argv)) == 0
    first = ((tmp_path / "s.csv").read_bytes(), (tmp_path / "s.pgm").read_bytes())
    assert main(list(argv)) == 0
    second = ((tmp_path / "s.csv").read_bytes(), (tmp_path / "s.pgm").read_bytes())
    assert first == second
    capsys.readouterr()


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    out = tmp_path / "m.mesh"
    config.write_text(f"[mesh gen]\nradius = 2.0\nrefine = 1\nout = {out}\n")
    code, *_ = run(capsys, "mesh", "gen", "--config", str(config))
    assert code == 0
    assert load_mesh(out).n_nodes == 25

    code, *_ = run(capsys, "mesh", "gen", "--config", str(config), "--refine", "0")
    assert code == 0
    assert load_mesh(out).n_nodes == 9  # flag beats file


def test_repeated_config_key_exits_2_with_its_line(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    out = tmp_path / "m.mesh"
    config.write_text("[mesh gen]\nrefine = 1\nradius = 1.0\nrefine = 2\n")
    code, _, err = run(capsys, "mesh", "gen", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "'refine' repeated" in err and "(line 4)" in err
    assert not out.exists()


def test_repeated_sweep_key_exits_2_with_its_line(capsys, tmp_path):
    mesh_path = tmp_path / "m.mesh"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    sweep = tmp_path / "sweep.cfg"
    write_sweep_config(sweep, load_mesh(mesh_path))
    sweep.write_text(sweep.read_text() + "pairing = zip\n")
    line_no = len(sweep.read_text().splitlines())
    sigma_out, image_out = tmp_path / "sigma.csv", tmp_path / "sigma.pgm"
    code, _, err = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path),
                       "--sweep", str(sweep), "--out-sigma", str(sigma_out),
                       "--out-image", str(image_out))
    assert code == 2
    assert "'pairing' repeated" in err and f"(line {line_no})" in err
    assert not sigma_out.exists() and not image_out.exists()


def test_render_element_field_constant_is_midgray():
    mesh = build_disk_mesh(1.0, 0)
    grid, (vmin, vmax) = render_element_field(mesh, np.ones(mesh.n_elements), 24)
    assert vmin == vmax == 1.0
    inside = grid[12, 12]
    assert inside == 128
    assert grid[0, 0] == 0  # corner is outside the disk


@pytest.mark.parametrize("extra", [1, -1])
def test_render_element_field_needs_one_value_per_element(extra):
    mesh = build_disk_mesh(1.0, 0)
    with pytest.raises(DimensionError, match="one value per element"):
        render_element_field(mesh, np.ones(mesh.n_elements + extra), 24)


def render_per_element_loop(mesh, values, pixels):
    """The per-element rasterizer the bounding-box kernel replaced: every
    element tests every pixel, and a pixel goes to the first element that
    claims it."""
    values = np.asarray(values, dtype=float)
    lo = mesh.coords.min(axis=0)
    hi = mesh.coords.max(axis=0)
    xs = np.linspace(lo[0], hi[0], pixels)
    ys = np.linspace(hi[1], lo[1], pixels)
    px, py = np.meshgrid(xs, ys)
    points = np.column_stack([px.ravel(), py.ravel()])
    vmin, vmax = float(values.min()), float(values.max())
    if vmax > vmin:
        grays = np.rint((values - vmin) / (vmax - vmin) * 255).astype(int)
    else:
        grays = np.full(values.shape, 128, dtype=int)
    grid = np.zeros(points.shape[0], dtype=int)
    claimed = np.zeros(points.shape[0], dtype=bool)
    for e in range(mesh.n_elements):
        a, b, c = mesh.coords[mesh.triangles[e]]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        l1 = ((points[:, 0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (points[:, 1] - a[1])) / det
        l2 = ((b[0] - a[0]) * (points[:, 1] - a[1]) - (points[:, 0] - a[0]) * (b[1] - a[1])) / det
        inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1 + 1e-12) & ~claimed
        grid[inside] = grays[e]
        claimed |= inside
    return grid.reshape(pixels, pixels), (vmin, vmax)


DISKS = [build_disk_mesh(1.0, refine) for refine in range(4)]


@settings(max_examples=40, deadline=None)
@given(
    refine=st.integers(0, 3),
    permute=st.booleans(),
    constant=st.booleans(),
    pixels=st.one_of(st.sampled_from([1, 2, 120]), st.integers(1, 60).map(lambda k: 2 * k + 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_render_matches_per_element_loop(refine, permute, constant, pixels, seed):
    rng = np.random.default_rng(seed)
    mesh = DISKS[refine]
    if permute:  # reorders which element claims a shared edge or vertex
        order = rng.permutation(mesh.n_elements)
        mesh = Mesh(mesh.nodes, tuple(mesh.elements[k] for k in order), mesh.boundary_nodes,
                    mesh.electrodes)
    values = np.full(mesh.n_elements, 2.5) if constant else rng.standard_normal(mesh.n_elements)
    grid, value_range = render_element_field(mesh, values, pixels)
    want, want_range = render_per_element_loop(mesh, values, pixels)
    assert grid.dtype == want.dtype
    assert np.array_equal(grid, want)
    assert value_range == want_range


def write_pgm_token_loop(path, grid, header_lines):
    """The token-by-token PGM writer the row-join writer replaced."""
    h, w = grid.shape
    lines = ["P2", *(f"# {line}" for line in header_lines), f"{w} {h}", "255"]
    for row in grid:
        line = ""
        for v in row:
            token = str(int(v))
            if line and len(line) + 1 + len(token) > 70:
                lines.append(line)
                line = token
            else:
                line = token if not line else line + " " + token
        lines.append(line)
    write_lines(path, lines)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 90)),
    top=st.sampled_from([1, 10, 100, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_pgm_matches_token_loop(shape, top, seed):
    grid = np.random.default_rng(seed).integers(0, top, size=shape)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.pgm", Path(tmp) / "want.pgm"
        _write_pgm(got, grid, ("eitkit", "sigma_range = [0, 1]"))
        write_pgm_token_loop(want, grid, ("eitkit", "sigma_range = [0, 1]"))
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_text().splitlines()
    assert all(len(line) <= 70 for line in lines)
    assert [int(tok) for line in lines[5:] for tok in line.split()] == grid.ravel().tolist()


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 4)])
def test_write_pgm_of_an_empty_grid_matches_token_loop(tmp_path, shape):
    grid = np.zeros(shape, dtype=int)
    _write_pgm(tmp_path / "got.pgm", grid, ("eitkit",))
    write_pgm_token_loop(tmp_path / "want.pgm", grid, ("eitkit",))
    assert (tmp_path / "got.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


@pytest.mark.parametrize("bad", [-1, 256])
def test_write_pgm_rejects_gray_levels_outside_0_255(tmp_path, bad):
    grid = np.full((2, 3), 7)
    grid[1, 2] = bad
    with pytest.raises(DomainError, match="0..255"):
        _write_pgm(tmp_path / "bad.pgm", grid, ())


def test_header_present_in_outputs(capsys, tmp_path, mesh_file):
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(0, 1.0), (4, -1.0)])
    out = tmp_path / "v.csv"
    run(capsys, "forward", "--mesh", str(mesh_file), "--uniform", "1.0",
        "--pattern", str(pattern), "--ground", "0", "--out", str(out), "--seed", "5")
    lines = out.read_text().splitlines()
    assert lines[0] == "# eitkit 0.1.0"
    assert "# command = forward" in lines
    assert "# seed = 5" in lines


@pytest.mark.parametrize(
    "command, text",
    [
        (["mesh", "gen"], "[mesh gen]\nradius = 1.0\nrefine = abc\n"),
        (["forward"], "# run\n[forward]\nground = 1.5\n"),
    ],
)
def test_bad_config_value_exits_2_with_its_line(capsys, tmp_path, command, text):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    code, _, err = run(capsys, *command, "--config", str(config))
    assert code == 2
    assert "(line 3)" in err


def test_misspelled_config_section_exits_2(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("[forwrd]\nground = 1\n")
    code, _, err = run(capsys, "forward", "--config", str(config))
    assert code == 2
    assert "unknown section" in err and "(line 1)" in err


def test_config_leading_lines_and_explicit_global(capsys, tmp_path):
    out = tmp_path / "m.mesh"
    config = tmp_path / "run.cfg"
    config.write_text(f"# comment only\n[global]\nseed = 4\n[mesh gen]\nout = {out}\n")
    assert run(capsys, "mesh", "gen", "--config", str(config))[0] == 0
    assert "# seed = 4" in out.read_text().splitlines()
    config.write_text(f"seed = 5\nout = {out}\n")
    assert run(capsys, "mesh", "gen", "--config", str(config))[0] == 0
    assert "# seed = 5" in out.read_text().splitlines()


# ------------------------------------------------------- command table ----

TABLE_FLAGS = [(command, dest) for command, (_, _, flags) in _COMMANDS.items() for dest in flags]

# flags every run of a command gives, except the flag under test and the
# one it excludes
CLI_BASE = {
    "mesh gen": {"out": "{tmp}/out/m.mesh"},
    "forward": {"mesh": "{tmp}/m1.mesh", "uniform": "1.0", "pattern": "{tmp}/p1.txt",
                "out": "{tmp}/out/v.csv"},
    "demo": {},
    "reconstruct svd": {"ensemble": "{tmp}/e1.csv", "d": "2", "out": "{tmp}/out/c.csv"},
    "reconstruct multifreq": {"mesh": "{tmp}/m1.mesh", "sweep": "{tmp}/w1.cfg",
                              "out_sigma": "{tmp}/out/s.csv", "out_image": "{tmp}/out/s.pgm",
                              "pixels": "8"},
}
EXCLUDES = {"sigma": "uniform", "demo_fixture": "ensemble"}

# (command, flag) -> (config value, command-line value or True for a switch)
CLI_CASES = {
    ("mesh gen", "radius"): ("1.5", "2"),
    ("mesh gen", "refine"): ("1", "0"),
    ("mesh gen", "electrodes"): ("4", "8"),
    ("mesh gen", "out"): ("{tmp}/out/a.mesh", "{tmp}/out/b.mesh"),
    ("forward", "mesh"): ("{tmp}/m1.mesh", "{tmp}/m2.mesh"),
    ("forward", "sigma"): ("{tmp}/s1.csv", "{tmp}/s2.csv"),
    ("forward", "uniform"): ("2", "3"),
    ("forward", "pattern"): ("{tmp}/p1.txt", "{tmp}/p2.txt"),
    ("forward", "ground"): ("1", "2"),
    ("forward", "reference"): ("1", "2"),
    ("forward", "out"): ("{tmp}/out/a.csv", "{tmp}/out/b.csv"),
    ("demo", "tolerance"): ("1e-9", "1e-7"),
    ("demo", "d"): ("2", "1"),
    ("demo", "repeats"): ("2", "3"),
    ("reconstruct svd", "ensemble"): ("{tmp}/e1.csv", "{tmp}/e2.csv"),
    ("reconstruct svd", "demo_fixture"): ("yes", True),
    ("reconstruct svd", "d"): ("1", "2"),
    ("reconstruct svd", "statistic"): ("cumulant", "pooled"),
    ("reconstruct svd", "cumulant_index"): ("1", "2"),
    ("reconstruct svd", "center"): ("On", True),
    ("reconstruct svd", "out"): ("{tmp}/out/a.csv", "{tmp}/out/b.csv"),
    ("reconstruct multifreq", "mesh"): ("{tmp}/m1.mesh", "{tmp}/m2.mesh"),
    ("reconstruct multifreq", "sweep"): ("{tmp}/w1.cfg", "{tmp}/w2.cfg"),
    ("reconstruct multifreq", "out_sigma"): ("{tmp}/out/a.csv", "{tmp}/out/b.csv"),
    ("reconstruct multifreq", "out_image"): ("{tmp}/out/a.pgm", "{tmp}/out/b.pgm"),
    ("reconstruct multifreq", "pixels"): ("9", "10"),
}


@pytest.fixture
def cli_inputs(tmp_path):
    """Two copies of every input file the table's commands read, so that a
    config value and a flag value can name different files."""
    mesh = build_disk_mesh(1.0, 0)
    for k, pattern in ((1, [(0, 1.0), (4, -1.0)]), (2, [(1, 1.0), (5, -1.0)])):
        save_mesh(mesh, tmp_path / f"m{k}.mesh")
        write_pattern(tmp_path / f"p{k}.txt", pattern)
        (tmp_path / f"s{k}.csv").write_text("".join(f"{e.id},{k}\n" for e in mesh.elements))
        skewed_ensemble_file(tmp_path / f"e{k}.csv")
        write_sweep_config(tmp_path / f"w{k}.cfg", mesh)
    (tmp_path / "out").mkdir()
    return tmp_path


@pytest.mark.parametrize(
    "command, output",
    [
        ("mesh gen", "m.mesh"),
        ("forward", "v.csv"),
        ("demo", None),  # standard output
        ("reconstruct svd", "c.csv"),
        ("reconstruct multifreq", "s.csv"),
        ("reconstruct multifreq", "s.pgm"),
    ],
)
def test_every_output_header_names_its_command(capsys, cli_inputs, command, output):
    argv = command.split()
    for dest, value in CLI_BASE[command].items():
        argv += ["--" + dest.replace("_", "-"), value.format(tmp=cli_inputs)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = (out if output is None else (cli_inputs / "out" / output).read_text()).splitlines()
    assert lines[lines.index("# eitkit 0.1.0") + 1] == f"# command = {command}"


def run_with_config(capsys, tmp, command, flags, config_lines):
    """Run ``command`` with ``flags`` and a config file; return the exit
    code, the standard error and the header lines of standard output and of
    every file written under ``tmp/out``."""
    for old in (tmp / "out").iterdir():
        old.unlink()
    config = tmp / "run.cfg"
    config.write_text("".join(f"{line}\n" for line in [f"[{command}]", *config_lines]))
    argv = [*command.split(), "--config", str(config)]
    for dest, value in flags.items():
        argv.append("--" + dest.replace("_", "-"))
        if value is not True:
            argv.append(value.format(tmp=tmp))
    code, out, err = run(capsys, *argv)
    texts = [out] + [path.read_text() for path in sorted((tmp / "out").iterdir())]
    return code, err, [line for text in texts for line in text.splitlines() if line[:2] == "# "]


@pytest.mark.parametrize("command, dest", TABLE_FLAGS)
def test_table_flag_reads_its_config_key_and_the_command_line_wins(
    capsys, cli_inputs, command, dest
):
    config_value, flag_value = (
        v if v is True else v.format(tmp=cli_inputs) for v in CLI_CASES[command, dest]
    )
    echo = _COMMANDS[command][2][dest][1]  # the header shows the converted value
    base = {k: v for k, v in CLI_BASE[command].items() if k not in (dest, EXCLUDES.get(dest))}
    key = dest.replace("_", "-")  # config keys take the flag's spelling too

    code, err, header = run_with_config(capsys, cli_inputs, command, base,
                                        [f"{key} = {config_value}"])
    assert code == 0, err
    assert f"# {dest} = {echo(config_value)}" in header

    # a switch can only turn on, so the file turns it off
    under = "off" if flag_value is True else config_value
    code, err, header = run_with_config(capsys, cli_inputs, command, {**base, dest: flag_value},
                                        [f"{key} = {under}"])
    assert code == 0, err
    assert f"# {dest} = {echo('on' if flag_value is True else flag_value)}" in header


@pytest.mark.parametrize(
    "command, dest",
    [(c, d) for c, d in TABLE_FLAGS if _COMMANDS[c][2][d][0] is REQUIRED],
)
def test_missing_required_flag_exits_1(capsys, cli_inputs, command, dest):
    flags = {k: v for k, v in CLI_BASE[command].items() if k != dest}
    code, err, _ = run_with_config(capsys, cli_inputs, command, flags, [])
    assert code == 1
    assert f"eitkit: error: {command} needs --{dest.replace('_', '-')}\n" in err


DEFAULT_HELP = {
    "mesh gen": "subdivision levels (default 0)",
    "demo": "tolerance on the unit entries (default 1e-8)",
    "reconstruct svd": "when --statistic cumulant (default 0)",
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_lists_every_table_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for dest in ("config", "seed", *_COMMANDS[command][2]):
        assert f"--{dest.replace('_', '-')} " in text
    assert DEFAULT_HELP.get(command, "") in text


def test_no_command_path_is_a_prefix_of_another():
    words = [path.split() for path in _COMMANDS]
    assert not [(a, b) for a in words for b in words if a != b and b[:len(a)] == a]


@pytest.mark.parametrize("argv", [["mesh", "gen", "--out", "{tmp}/m.mesh"], ["--help"]])
def test_main_builds_one_parser_per_call(monkeypatch, capsys, tmp_path, argv):
    built = []
    init = eitkit.cli._Parser.__init__
    monkeypatch.setattr(eitkit.cli._Parser, "__init__", lambda self, **kw: built.append(kw) or init(self, **kw))
    try:
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    except SystemExit as exc:
        assert exc.code == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv", [["--help"], ["mesh", "--help"], ["reconstruct", "-h"]])
def test_top_level_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for path, (_, help_text, _) in _COMMANDS.items():
        assert f" {path} {help_text}" in text


@pytest.mark.parametrize("argv", [[], ["mesh"], ["reconstruct"], ["bogus"]])
def test_argv_naming_no_command_is_a_top_level_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: eitkit [-h] [--version] ")


def test_unrecognized_flag_is_reported_by_its_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--bogus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: eitkit forward ")
    assert err.endswith("eitkit forward: error: unrecognized arguments: --bogus\n")


def test_main_reads_sys_argv_by_default(monkeypatch, capsys, tmp_path):
    out = tmp_path / "m.mesh"
    monkeypatch.setattr(sys, "argv", ["eitkit", "mesh", "gen", "--out", str(out)])
    assert main() == 0
    assert load_mesh(out).n_nodes == 9


@pytest.mark.parametrize(
    "text, key, line_no",
    [
        ("[mesh gen]\nradius = 1.0\nrefnie = 3\n", "refnie", 3),
        ("[mesh gen]\npixels = 3\n", "pixels", 2),  # a flag, but not of mesh gen
        ("# run\n[global]\nrefnie = 3\n", "refnie", 3),
        ("refnie = 3\n", "refnie", 1),
        ("[global]\n = 3\n", "", 2),
    ],
)
def test_unknown_config_key_exits_2_with_its_line(capsys, tmp_path, text, key, line_no):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / "m.mesh"
    code, _, err = run(capsys, "mesh", "gen", "--config", str(config), "--out", str(out))
    assert code == 2
    assert f"unknown key {key!r}" in err and f"(line {line_no})" in err
    assert not out.exists()


@pytest.mark.parametrize("raw", ["1", "true", "YES", "On", "0", "False", "no", "OFF"])
def test_config_booleans_take_eight_spellings_in_any_case(raw):
    assert _as_bool(f" {raw} ") is (raw.lower() in ("1", "true", "yes", "on"))


def test_config_boolean_outside_the_eight_spellings_exits_2_with_its_line(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("[reconstruct svd]\ndemo-fixture = yes\ncenter = ture\n")
    out = tmp_path / "cands.csv"
    code, _, err = run(capsys, "reconstruct", "svd", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "(line 3)" in err and "'ture'" in err and "[field: center]" in err
    assert not out.exists()


def test_mesh_validate_reads_its_config(capsys, tmp_path, mesh_file):
    capsys.readouterr()  # what the mesh_file fixture printed
    _, report, _ = run(capsys, "mesh", "validate", str(mesh_file))
    config = tmp_path / "run.cfg"
    code, _, err = run(capsys, "mesh", "validate", "--config", str(config), str(mesh_file))
    assert code == 1
    assert "run.cfg" in err
    config.write_text("[mesh validat]\nseed = 4\n")
    code, _, err = run(capsys, "mesh", "validate", "--config", str(config), str(mesh_file))
    assert code == 2
    assert "unknown section" in err and "(line 1)" in err
    config.write_text("[mesh validate]\nseed = 4\n")
    code, out, _ = run(capsys, "mesh", "validate", "--config", str(config), str(mesh_file))
    assert (code, out) == (0, report)


# ------------------------------------------------- input rejections ----


@pytest.mark.parametrize("field", [["--uniform", "1.0", "--sigma", "sigma.csv"], []], ids=["both", "neither"])
def test_forward_needs_exactly_one_field_source(capsys, tmp_path, mesh_file, field):
    pattern = tmp_path / "pattern.txt"
    write_pattern(pattern, [(0, 1.0), (4, -1.0)])
    code, _, err = run(capsys, "forward", "--mesh", str(mesh_file), *field,
                       "--pattern", str(pattern), "--out", str(tmp_path / "v.csv"))
    assert code == 1
    assert "eitkit: error: forward needs exactly one of --sigma or --uniform\n" in err
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize(
    "source, message",
    [
        (["--ensemble", "e.csv", "--demo-fixture"], "give either --ensemble or --demo-fixture, not both"),
        ([], "reconstruct svd needs --ensemble or --demo-fixture"),
    ],
    ids=["both", "neither"],
)
def test_reconstruct_svd_needs_exactly_one_ensemble_source(capsys, tmp_path, source, message):
    out = tmp_path / "cands.csv"
    code, _, err = run(capsys, "reconstruct", "svd", *source, "--out", str(out))
    assert code == 1
    assert f"eitkit: error: {message}\n" in err
    assert not out.exists()


def test_reconstruct_multifreq_reports_negative_estimates(capsys, tmp_path, monkeypatch):
    mesh_path, sweep = tmp_path / "m.mesh", tmp_path / "sweep.cfg"
    main(["mesh", "gen", "--radius", "1.0", "--refine", "0", "--out", str(mesh_path)])
    write_sweep_config(sweep, load_mesh(mesh_path))
    real = eitkit.cli.recover_conductivity

    def negative_first(*args, **options):
        recovered = real(*args, **options)
        sigma = recovered.sigma.copy()
        sigma[[0, 3]] = -1.0
        return dataclasses.replace(recovered, sigma=sigma, negative_elements=(0, 3))

    monkeypatch.setattr(eitkit.cli, "recover_conductivity", negative_first)
    sigma_out = tmp_path / "s.csv"
    code, out, _ = run(capsys, "reconstruct", "multifreq", "--mesh", str(mesh_path), "--sweep", str(sweep),
                       "--out-sigma", str(sigma_out), "--out-image", str(tmp_path / "s.pgm"))
    assert code == 0
    assert "# negative_elements = [0, 3]" in sigma_out.read_text().splitlines()
    assert out.splitlines()[-1] == "warning: negative estimates at elements [0, 3]"


def test_module_entry_point_runs_the_cli():
    src = str(Path(eitkit.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "eitkit.cli", "demo"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "all claims hold" in done.stdout
