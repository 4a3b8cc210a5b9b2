"""The change-size report of ``tools/compare_cli.py``."""

import importlib.util
import math
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_cli.py"
_spec = importlib.util.spec_from_file_location("compare_cli", _TOOL)
compare_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli)


def test_largest_changes_by_row_kind_and_column():
    parent = (b"# spec,x\n# gamma,1\nrow,n,index,value,limit,error,note\n"
              b"moment,1,1,2,2,0,\n"
              b"moment,1,2,4,5,1,\n"
              b"variance,1,0.5,,0.4,,DomainError: m = 0.5 below the attainable means\n"
              b"variance,2,0.5,0.25,0.4,0.15,\n")
    change = (b"# spec,x\n# gamma,1.0000000000000002\nrow,n,index,value,limit,error,note\n"
              b"moment,1,1,2,2,0,\n"
              b"moment,1,2,4.5,5,0.5,\n"
              b"variance,1,0.5,0.3,0.4,0.1,\n"
              b"variance,2,0.5,0.2,0.4,0.2,\n")
    got = compare_cli.largest_changes(parent, change)
    # comment lines, unchanged cells and cells that were not numbers are skipped
    assert got == {
        "moment.value": 0.125,
        "moment.error": 0.5,
        "variance.value": pytest.approx(0.2),
        "variance.error": pytest.approx(1.0 / 3.0),
    }


def test_largest_changes_without_row_kinds():
    parent = b"m,theta,pv,v,note\n0.5,0,2,3,\n1,0.25,2,3,\n"
    change = b"m,theta,pv,v,note\n0.5,0.1,2,3.3,\n1,0.25,2,3.03,\n"
    got = compare_cli.largest_changes(parent, change)
    assert got == {"theta": math.inf, "v": pytest.approx(0.1)}
    assert compare_cli.largest_changes(parent, parent) == {}


def test_largest_changes_reads_a_signed_zero_as_no_change():
    # -0 to 0 was once reported as an infinite change
    parent = b"order,moment\n1,-0\n2,1\n3,-0\n"
    change = b"order,moment\n1,0\n2,1\n3,-1e-300\n"
    assert compare_cli.largest_changes(parent, change) == {"moment": math.inf}
    assert compare_cli.largest_changes(parent, parent.replace(b"-0", b"0")) == {"moment": 0.0}


def test_differing_lines_aligns_a_removed_comment_line():
    # position-by-position pairing once listed every later line as changed
    parent = (b"# spec,x\n# series_order,40\n# moment_order,6\nrow,n,value\n"
              b"moment,1,2\nmoment,2,5\n")
    change = b"# spec,x\n# moment_order,6\nrow,n,value\nmoment,1,2\nmoment,2,5\n"
    assert compare_cli.differing_lines(parent, change) == [("# series_order,40", None)]
    assert compare_cli.differing_lines(change, parent) == [(None, "# series_order,40")]


def test_differing_lines_pairs_changed_rows():
    parent = b"m,v\n0.5,1\n1,2\n1.5,3\n"
    change = b"m,v\n0.5,1.0000000000000002\n1,2\n1.5,3.0000000000000004\n"
    assert compare_cli.differing_lines(parent, change) == [
        ("0.5,1", "0.5,1.0000000000000002"), ("1.5,3", "1.5,3.0000000000000004")]
    assert compare_cli.differing_lines(parent, parent) == []


def test_grade_reads_the_job_check_and_fails_every_row_on_a_nonzero_exit():
    J = compare_cli.J
    job = J.Job("convolve:boxplus", [], 2, J._convolve_check([1, 2]))
    assert compare_cli.grade(job, 0, b"# convolve,boxplus\norder,moment\n1,1\n2,2\n") == "2/2 ok"
    assert compare_cli.grade(job, 0, b"order,moment\n1,1\n2,2.5\n") == "1/2 ok"
    assert compare_cli.grade(job, 0, b"order,moment\n1,1\n") == "0/0 ok, 1 problems"
    assert compare_cli.grade(job, 1, b"") == "0/2 ok"


def test_source_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "cskfam"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "b.py").write_text("z = 3", encoding="utf-8")  # no final newline, as wc -l
    (package / "notes.txt").write_text("not\ncode\n", encoding="utf-8")
    (tmp_path / "src" / "other.py").write_text("w = 4\n", encoding="utf-8")
    assert compare_cli.source_lines(tmp_path) == 2


def test_csk_reference_error_reads_the_closed_form_and_the_atomic_family(tmp_path):
    named = tmp_path / "fp.json"
    named.write_text('{"type": "named", "name": "free_poisson"}', encoding="utf-8")
    atomic = tmp_path / "atoms.json"
    atomic.write_text('{"type": "atomic", "atoms": [1, 2], "weights": [0.5, 0.5]}',
                      encoding="utf-8")
    moments = tmp_path / "moments.json"
    moments.write_text('{"type": "moments", "values": [1, 2]}', encoding="utf-8")
    error = lambda spec, out: compare_cli.csk_reference_error(["csk", "--spec", str(spec)], out)
    # V(m) = m: at m = 0.5 the row is theta = -2, PV = -0.5, V = 0.5; the row
    # at the generator mean and the error row are skipped
    out = (b"# spec,free_poisson\nm,theta,pseudo_variance,variance,error\n"
           b"0.5,-2,-0.5,0.50000000000000011,\n"
           b"1,0,1,1,\n"
           b"2.5,,,,m = 2.5 at or above the upper mean endpoint\n")
    assert error(named, out) == {"rows": pytest.approx(2.2e-16, rel=0.01)}
    assert error(named, out.replace(b"0.50000000000000011", b"0.5")) == {"rows": 0.0}
    assert error(named, b"") == {}
    # two atoms: V(m) = (m - 1)(2 - m), so at m = 1.75 theta = 0.4, PV = 1.3125
    # and V = 0.1875, and the generator mean 1.5 is skipped
    atoms = (b"# spec,atomic\nm,theta,pseudo_variance,variance,error\n"
             b"1.75,0.4,1.3125,0.18750000000000003,\n"
             b"1.5,0,,0.25,DomainError: pseudo-variance diverges at a nonzero generator mean\n")
    assert error(atomic, atoms) == {"rows": pytest.approx(1.5e-16, rel=0.01)}
    assert error(atomic, atoms.replace(b"0.18750000000000003", b"0.1875")) == {"rows": 0.0}
    assert error(moments, out) is None
    assert compare_cli.csk_reference_error(["limit", "--spec", str(named)], out) is None


def test_csk_reference_error_grades_the_mean_domain_ends(tmp_path):
    # free Poisson's domain is (0, 2); the quadrature G once put the upper
    # end at 2.0000000000000009, 4.4e-16 relative off
    named = tmp_path / "fp.json"
    named.write_text('{"type": "named", "name": "free_poisson"}', encoding="utf-8")
    error = lambda spec, out: compare_cli.csk_reference_error(["csk", "--spec", str(spec)], out)
    header = b"m,theta,pseudo_variance,variance,error\n"
    assert error(named, b"# mean_domain,0,2.0000000000000009\n" + header) == {
        "mean_domain": pytest.approx(4.4e-16, rel=0.01)}
    assert error(named, b"# mean_domain,0,2\n" + header) == {"mean_domain": 0.0}
    # the lower end 0 counts its absolute error
    assert error(named, b"# mean_domain,1e-300,2\n" + header) == {"mean_domain": 1e-300}
    # atoms 1 and 2 of equal weight: the domain is (4/3, 2), the lower end
    # the harmonic mean -1/G(0); a moment list's unknown domain is skipped
    atomic = tmp_path / "atoms.json"
    atomic.write_text('{"type": "atomic", "atoms": [1, 2], "weights": [0.5, 0.5]}',
                      encoding="utf-8")
    assert error(atomic, b"# mean_domain,1.3333333333333333,2\n" + header) == {"mean_domain": 0.0}
    assert error(atomic, b"# mean_domain,1.3333333333333335,2\n" + header) == {
        "mean_domain": pytest.approx(1.7e-16, rel=0.01)}
    assert error(named, b"# mean_domain,unknown,unknown\n" + header) == {}
    out = b"# mean_domain,0,2\n" + header + b"0.5,-2,-0.5,0.50000000000000011,\n"
    assert error(named, out) == {"mean_domain": 0.0,
                                 "rows": pytest.approx(2.2e-16, rel=0.01)}


def test_golden_spec_jobs_cover_every_spec_and_command():
    from cskfam import cli

    assert compare_cli.TRANSFORMS == tuple(sorted(cli._TRANSFORMS))
    assert compare_cli.POWER_OPS == tuple(cli._POWER_OPS)
    assert compare_cli.PAIR_OPS == tuple(cli._PAIR_OPS)
    specs = sorted(compare_cli.GOLDEN_DIR.glob("*.json"))
    jobs = compare_cli.golden_spec_jobs()
    assert len(jobs) == len(specs) * 17 and len({label for label, _ in jobs}) == len(jobs)
    free_poisson = str(compare_cli.GOLDEN_DIR / "free_poisson.json")
    for spec in specs:
        runs = [args for _, args in jobs if args[args.index("--spec") + 1] == str(spec)]
        assert sorted(a[a.index("--which") + 1] for a in runs if a[0] == "transform") == sorted(
            cli._TRANSFORMS)
        assert [a for a in runs if a[0] == "csk"] != []
        assert sorted(a[a.index("--op") + 1] for a in runs if "--power" in a) == sorted(
            cli._POWER_OPS)
        pairs = [a for a in runs if "--spec2" in a]
        assert sorted(a[a.index("--op") + 1] for a in pairs) == sorted(cli._PAIR_OPS)
        assert all(a[a.index("--spec2") + 1] == free_poisson for a in pairs)
        assert sorted(a[a.index("--kind") + 1] for a in runs if a[0] == "limit") == [
            "boxplus", "uplus"]
    assert {args[0] for _, args in jobs} == {"transform", "csk", "convolve", "limit"}


def test_golden_specs_is_a_default_workload_and_reads_ungraded():
    assert compare_cli.WORKLOADS == (*compare_cli.J.WORKLOADS, "golden_specs")
    assert compare_cli.grade(None, 0, b"order,moment\n1,1\n") == "ungraded"
    assert compare_cli.grade(None, 1, b"") == "ungraded"


def test_limit_reference_error_grades_scaled_and_limit_moments(tmp_path):
    # free Poisson: the scaled laws at n = 1, 2 have m3 = 5 and 21/4 (boxplus)
    # or 19/4 (uplus); the eta limit has m3 = 11/2 and the sigma limit 9/2
    named = tmp_path / "fp.json"
    named.write_text('{"type": "named", "name": "free_poisson"}', encoding="utf-8")
    error = lambda kind, out: compare_cli.limit_reference_error(
        ["limit", "--spec", str(named), "--kind", kind], out)
    header = b"# spec,free_poisson\nrow,n,index,value,limit,error,note\n"
    rows = (b"moment,1,1,1,1,0,\nmoment,1,2,2,2,0,\nmoment,1,3,5,5.5,0.5,\n"
            b"moment,2,1,1,1,0,\nmoment,2,2,2,2,0,\nmoment,2,3,5.25,5.5,0.25,\n"
            b"variance,1,0.6,0.47,0.47,0,\n")
    assert error("boxplus", header + rows) == {"scaled moments": 0.0, "limit moments": 0.0}
    # one ulp off 5.25 and 5.5; the other kind reads 5.25 against 19/4
    moved = rows.replace(b"5.25,5.5", b"5.2500000000000009,5.5000000000000009")
    assert error("boxplus", header + moved) == {
        "scaled moments": pytest.approx(8.9e-16 / 5.25, rel=0.01),
        "limit moments": pytest.approx(8.9e-16 / 5.5, rel=0.01)}
    uplus = error("uplus", header + rows)
    assert uplus == {"scaled moments": pytest.approx(0.5 / 4.75),
                     "limit moments": pytest.approx(1.0 / 4.5)}
    # steps past the largest graded one are skipped, as are outputs without
    # moment rows, other commands and moment lists
    late = b"moment,1000000000000,1,7,1,6,\n"
    assert error("boxplus", header + rows + late) == error("boxplus", header + rows)
    assert error("boxplus", b"") == {}
    assert compare_cli.limit_reference_error(["csk", "--spec", str(named)], rows) is None
    moments = tmp_path / "moments.json"
    moments.write_text('{"type": "moments", "values": [1, 2, 5]}', encoding="utf-8")
    assert compare_cli.limit_reference_error(
        ["limit", "--spec", str(moments), "--kind", "boxplus"], header + rows) is None


def _fake_checkout(root: Path, body: str) -> Path:
    """A checkout whose ``cskfam.cli.main`` runs ``body``, with the job's
    ``--out`` path as ``out``."""
    package = root / "src" / "cskfam"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(
        "def main(args, standalone_mode=True):\n"
        "    out = args[args.index('--out') + 1]\n"
        f"    {body}\n", encoding="utf-8")
    return root


def test_run_checkout_writes_each_table_over_stale_bytes(tmp_path):
    # each --out first holds bytes longer than any table, as in the
    # benchmark's timed passes, so a table that leaves a tail of them differs
    truncating = _fake_checkout(tmp_path / "a", "with open(out, 'wb') as fh: fh.write(b'table\\n')")
    in_place = _fake_checkout(tmp_path / "b", "with open(out, 'r+b') as fh: fh.write(b'table\\n')")
    failing = _fake_checkout(tmp_path / "c", "raise SystemExit(1)")
    jobs = [{"args": ["csk"]}]
    assert compare_cli.run_checkout(truncating, jobs, tmp_path / "a.out") == [(0, b"table\n")]
    assert compare_cli.run_checkout(in_place, jobs, tmp_path / "b.out") == [
        (0, b"table\n" + compare_cli.STALE_OUT[6:])]
    # a job that writes nothing reads as empty, as when its file was new
    assert compare_cli.run_checkout(failing, jobs, tmp_path / "c.out") == [(1, b"")]
