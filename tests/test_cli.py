"""Command-line frontend: byte-exact golden output, exit codes, error reporting."""

import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from cli_runner import invoke as _invoke
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfam import cli, conv, measure, series, transforms
from cskfam.cli import main

GOLDEN = Path(__file__).parent / "golden"


_MP_MEANS = "-1.5,-0.999,-0.9,-0.5,-0.1,0,0.1,0.5,0.9,0.999,1.5"  # domain (-1, 1)

# Golden files were written by earlier versions of the CLI: the first five
# before the measure protocol existed, the two edge tables before the
# row function (csk.family_row) did, and the Marchenko-Pastur, semicircle,
# M, Psi and near-edge G tables before the per-piece quadrature integrands.
# Every later version must reproduce them byte for byte.  Files were
# rewritten on purpose since:
# - the "# mean_domain" line of csk_free_poisson, csk_free_poisson_edges,
#   csk_mp_a1, csk_mp_a025, csk_mp_a15_16 and csk_semicircle, when the
#   upper end became edge - 1/G(edge) like the lower one; the Aitken
#   extrapolation it replaced was up to 1.0e-9 off the exact end;
# - csk_catalan_moments (the m = 1 message, and PV and V at m = 1.5 by at
#   most 2.0e-16 relative) and three variance values of limit_free_poisson
#   (at most 2.5e-16 relative), when moment sequences began to read PV and
#   V off the mean-map root theta like every other measure;
# - the variance rows of limit_free_poisson again, when they began to come
#   from the generator's variance function through the boxtimes, boxplus
#   and dilation laws instead of from 40 rounded moments of each scaled
#   law.  The largest change, by tools/compare_cli.largest_changes, is
#   8.6e-2 relative in a variance value (n = 4, m = 0.6: 0.5477 became
#   0.50047, the Fuss-Catalan value m(m - 1)/(n(m**(1/n) - 1))); the
#   moment rows did not change;
# - limit_free_poisson once more, when its "# series_order,40" line went
#   with the --order option: the moment rows are computed at the printed
#   order.  Its data rows did not change;
# - every table that integrates a density (eleven files), when quadrature
#   moved to a fixed Gauss-Legendre pair with adaptive quadrature only as
#   a fallback.  Largest relative change per file, by
#   tools/compare_cli.largest_changes, then the largest relative error of
#   the new (old) values against an oracle at 50 digits: the closed-form
#   row theta = 1/(m + V/(m - m0)), PV = m V/(m - m0), V of
#   bench/reference.named_row for csk, oracles.mp_cauchy for G, M and Psi,
#   bench/reference.scaled_law_variance for the limit variance rows:
#     csk_free_poisson        4.0e-15 (theta)  4.0e-15 (1.9e-15)
#     csk_free_poisson_edges  4.0e-15 (theta)  4.0e-15 (0)
#     csk_mp_a025             6.8e-16 (theta)  5.3e-15 (5.6e-15)
#     csk_mp_a1               9.9e-16 (V)      2.3e-14 (2.3e-14)
#     csk_mp_a15_16           1.8e-15 (V)      2.2e-14 (2.2e-14)
#     csk_semicircle          1.8e-15 (V)      2.9e-15 (2.9e-15)
#     limit_free_poisson      3.3e-15 (value)  3.5e-14 (3.7e-14)
#     transform_g             3.8e-16          1.9e-16 (3.1e-16)
#     transform_g_edges       2.3e-16          2.5e-16 (3.2e-16)
#     transform_m_mp          1.9e-16          2.8e-15 (2.6e-15)
#     transform_psi_free_poisson 2.9e-16       5.3e-16 (5.0e-16)
#   The csk and limit errors are those of the mean-map root, which stops at
#   1e-14 absolute in theta.  The "# mean_domain" lines (not counted above)
#   moved by at most 8.9e-16 relative, and the "error" column of the limit
#   variance rows (value - limit) by up to 1.7e-13 relative.
# - csk_mp_a025 and transform_g_edges, in the last digit, when the adaptive
#   fallback moved from scipy's quad to bisection on the same fixed pair
#   (the rows whose argument lies within 0.5 of a support edge): at
#   m = -0.9, theta moved by 1.9e-16 and V and PV by 2.9e-16 relative; G at
#   -0.001 and 4.001 by 1.1e-16 each.  Every new value lies within
#   3.1e-16 of its closed form at 40 digits (old 2.0e-16): theta = 1/(m +
#   V/m) and V = 1 + a m for MP(1/4), G(z) = (z - sqrt(z^2 - 4z))/(2z)
#   for free Poisson.
# - convolve_boxtimes_free_poisson_two_atom, when the pair operations began
#   to read each operand through the measure protocol: the S series of free
#   Poisson now comes from its exact free cumulants, not from 40 moments.
#   Rows 36 and 40 moved by at most 1.5e-16 relative; the file's largest
#   error against exact rational moments (free cumulants of the result are
#   the two-atom law's moments), on the rho**n scale, went from 1.84e-14
#   to 1.82e-14.
# - convolve_uplus_free_poisson_two_atom, when the moments of a named
#   density began to come from its Jacobi parameters by the three-term
#   recurrence, not from its free cumulants through a reversion: the 40
#   Catalan numbers are now correctly rounded.  Row 38 moved by 1.2e-16
#   relative; its error against the exact Boolean convolution, the file's
#   largest, went from 1.34e-15 to 1.22e-15.
# - the "# mean_domain" line of the nine csk tables on named densities
#   (csk_free_poisson, csk_free_poisson_edges, csk_free_poisson_ladder,
#   csk_mp_a025, csk_mp_a1, csk_mp_a15_16, csk_mp_a15_16_ladder,
#   csk_mp_a_neg15_16 and csk_semicircle), when the ends began to come from
#   the Jacobi parameters, K(edge) = alpha_0 + omega_1 G'(edge), instead of
#   a quadrature G: each moved to the exact end, center +/- sqrt(variance)
#   rounded (free Poisson's upper end 2.0000000000000009 to 2, the
#   Marchenko-Pastur ends to -1 and 1, the semicircle's lower end from
#   1.6e-16 to 4.8e-17 off 1 - sqrt(1/2)).  No data row moved.
#   csk_semicircle_positive was written then; it pins K(0), the lower end
#   where 0 lies outside the support.
# - the moment rows of limit_free_poisson and limit_uplus_two_atom, and the
#   two bp_identity lines of verify_all.txt, when every scaled law and both
#   limit laws came from one Lagrange pass on -log S (-log Sigma for uplus)
#   instead of one series reversion each.  Largest relative change, by
#   tools/compare_cli.largest_changes: 1.2e-16 (limit) and 1.5e-15 (value).
#   Against the exact rational values (bench/reference.scaled_sequence, and
#   limit_law_moments at the printed float gamma) the limit cells went from
#   up to 8.2 ulp to within 0.53 ulp, and the value cells from up to 10.8
#   ulp to within 2.9 ulp; no cell moved away by more than 0.9 ulp.  The
#   bp_identity errors fell: 6.3e-13 to 1.7e-13 and 4.1e-12 to 2.3e-12.
# The pair convolutions (six convolve_* files with two specs), the Boolean
# limit on two atoms and verify_all.txt (stdout of `verify --suite all`,
# whose "max error" figures pin the series suite) were written before
# truncated series became plain numpy arrays; they pin every series path
# that the older tables do not reach.
# The two R tables were written when r_transform still had one walk per
# side of the support; they pin the folded walk that replaced them.
# The two ladder tables were written before cskfam csk solved its grid of
# means in lockstep: 32 means at the shares of the benchmark's family_table
# ladder between the generator mean and each end of the domain, plus the
# generator mean, 0, both ends and a mean beyond each.  They pin the batched
# mean map and its error rows: below the attainable means once the walk
# breaks on cancellation (free Poisson at m = 0), at or beyond a finite mean
# endpoint, and the pseudo-variance diverging at a nonzero generator mean.
# csk_mp_a_neg15_16 was written before the three named densities became
# images of one centered Marchenko-Pastur class; it pins the upper-edge break
# points that only a < 0 takes.
# The rows at m = 2.5 and m = 10 of csk_catalan_moments.csv pin a known
# defect: they lie outside the domain of means (0, 2) of free Poisson, yet
# the moment route answers there.  They are expected to become error rows
# when that route checks its domain.
_FP_LADDER = ("-0.5,0,0.14,0.1933,0.2467,0.3,0.3533,0.4067,0.46,0.5133,0.5667,0.62,0.6733,"
              "0.7267,0.78,0.8333,0.8867,0.94,1,1.06,1.1133,1.1667,1.22,1.2733,1.3267,1.38,"
              "1.4333,1.4867,1.54,1.5933,1.6467,1.7,1.7533,1.8067,1.86,2,2.5")  # domain (0, 2)
_MP_LADDER = ("-1.5,-1,-0.86,-0.8067,-0.7533,-0.7,-0.6467,-0.5933,-0.54,-0.4867,-0.4333,"
              "-0.38,-0.3267,-0.2733,-0.22,-0.1667,-0.1133,-0.06,0,0.06,0.1133,0.1667,0.22,"
              "0.2733,0.3267,0.38,0.4333,0.4867,0.54,0.5933,0.6467,0.7,0.7533,0.8067,0.86,"
              "1,1.5")  # domain (-1, 1)
GOLDEN_CASES = {
    "csk_free_poisson.csv": ["csk", "--spec", GOLDEN / "free_poisson.json",
                             "--at", "0.25:2.5:0.25"],
    "csk_two_atom.csv": ["csk", "--spec", GOLDEN / "two_atom.json",
                         "--at", "1,1.25,1.5,2,2.4,2.6"],
    "csk_free_poisson_edges.csv": ["csk", "--spec", GOLDEN / "free_poisson.json",
                                   "--at=-0.5,0,0.5,1,1.00000000000005,1.5,2.5"],
    "csk_catalan_moments.csv": ["csk", "--spec", GOLDEN / "catalan_moments.json",
                                "--at=-0.5,0,0.1,0.25,0.5,0.75,1,1.25,1.5,2.5,10"],
    "limit_free_poisson.csv": ["limit", "--spec", GOLDEN / "free_poisson.json",
                               "--kind", "boxplus", "--n-schedule", "1,2,4"],
    "convolve_boxtimes.csv": ["convolve", "--spec", GOLDEN / "free_poisson.json",
                              "--op", "boxtimes", "--power", "2", "--order", "8"],
    "transform_g.csv": ["transform", "--spec", GOLDEN / "semicircle.json",
                        "--which", "G", "--grid=-2,0,1,2.5,3,4.5"],
    "csk_mp_a1.csv": ["csk", "--spec", GOLDEN / "mp_a1.json", f"--at={_MP_MEANS}"],
    "csk_mp_a025.csv": ["csk", "--spec", GOLDEN / "mp_a025.json", f"--at={_MP_MEANS}"],
    "csk_mp_a15_16.csv": ["csk", "--spec", GOLDEN / "mp_a15_16.json", f"--at={_MP_MEANS}"],
    # a < 0 takes the break points of the upper piece of the density
    "csk_mp_a_neg15_16.csv": ["csk", "--spec", GOLDEN / "mp_a_neg15_16.json",
                              f"--at={_MP_MEANS}"],
    "csk_free_poisson_ladder.csv": ["csk", "--spec", GOLDEN / "free_poisson.json",
                                    f"--at={_FP_LADDER}"],
    "csk_mp_a15_16_ladder.csv": ["csk", "--spec", GOLDEN / "mp_a15_16.json",
                                 f"--at={_MP_LADDER}"],
    "csk_semicircle.csv": ["csk", "--spec", GOLDEN / "semicircle.json",
                           "--at", "0,0.3,0.5,0.9,1,1.2,1.5,1.7,2"],
    # 0 lies below the support [1.586, 4.414]: the lower end of the domain
    # of means is K(0) = (3 + sqrt(7))/2, not an end of the support
    "csk_semicircle_positive.csv": ["csk", "--spec", GOLDEN / "semicircle_positive.json",
                                    "--at", "2.83,2.9,3.1,3.25,3.5,3.7"],
    "transform_m_mp.csv": ["transform", "--spec", GOLDEN / "mp_a1.json", "--which", "M",
                           "--grid=-1.5,-0.99,-0.5,-0.1,0,0.1,0.3,0.33,0.5"],
    "transform_psi_free_poisson.csv": ["transform", "--spec", GOLDEN / "free_poisson.json",
                                       "--which", "Psi",
                                       "--grid=-10,-1,-0.01,0.1,0.2,0.24,0.249,0.3"],
    # arguments within 0.5 of a support edge add break points to the quadrature
    "transform_g_edges.csv": ["transform", "--spec", GOLDEN / "free_poisson.json",
                              "--which", "G", "--grid=-0.4,-0.05,-0.001,2,4.001,4.05,4.4"],
    # R on both sides of the support, at z = 0 and past G at the upper edge
    "transform_r_free_poisson.csv": ["transform", "--spec", GOLDEN / "free_poisson.json",
                                     "--which", "R", "--grid=-2:1:0.25"],
    "transform_r_two_atom.csv": ["transform", "--spec", GOLDEN / "two_atom.json",
                                 "--which", "R", "--grid=-2:2:0.5"],
    **{f"convolve_{op}_free_poisson_two_atom.csv": [
        "convolve", "--spec", GOLDEN / "free_poisson.json", "--spec2", GOLDEN / "two_atom.json",
        "--op", op, "--order", "40"] for op in ("boxplus", "uplus", "boxtimes")},
    **{f"convolve_{op}_catalan_free_poisson.csv": [
        "convolve", "--spec", GOLDEN / "catalan_moments.json",
        "--spec2", GOLDEN / "free_poisson.json", "--op", op, "--order", "8"]
       for op in ("boxplus", "uplus", "boxtimes")},
    "limit_uplus_two_atom.csv": ["limit", "--spec", GOLDEN / "two_atom.json",
                                 "--kind", "uplus", "--n-schedule", "1,2,4,64"],
    # the multiplicative power of a semicircle, whose S series, unlike free
    # Poisson's, is not exact in floats; semicircle.json is not positive,
    # so boxtimes refuses it
    "convolve_boxtimes_semicircle_positive.csv": [
        "convolve", "--spec", GOLDEN / "semicircle_positive.json", "--op", "boxtimes",
        "--power", "2", "--order", "40"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_output(golden, tmp_path):
    out = tmp_path / golden
    result = _invoke(GOLDEN_CASES[golden] + ["--out", out])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_output_over_a_longer_file(golden, tmp_path):
    # --out rewrites a file in place; a longer old file must leave no tail
    out = tmp_path / golden
    want = (GOLDEN / golden).read_bytes()
    out.write_bytes(b"x" * (len(want) + 4096))
    result = _invoke(GOLDEN_CASES[golden] + ["--out", out])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == want


def test_out_never_truncates_to_zero(monkeypatch, tmp_path):
    # O_TRUNC on a file holding data makes ext4 flush the new data on close
    opened = []
    os_open = os.open

    def recording(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    out = tmp_path / "out.csv"
    for golden in ("limit_free_poisson.csv", "transform_g.csv", "transform_g.csv"):
        assert _invoke(GOLDEN_CASES[golden] + ["--out", out]).exit_code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    assert [path for path, _ in opened] == [str(out)] * 3
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in opened)


def test_out_to_the_null_device():
    assert _invoke(GOLDEN_CASES["transform_g.csv"] + ["--out", os.devnull]).exit_code == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_out_to_a_fifo(tmp_path):
    # a FIFO is written and not truncated
    fifo = tmp_path / "table"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    result = _invoke(GOLDEN_CASES["csk_free_poisson.csv"] + ["--out", fifo])
    if result.exit_code:  # perhaps before it opened the FIFO: let the reader see EOF
        with contextlib.suppress(OSError):  # ENXIO once the reader has gone
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert result.exit_code == 0, result.output
    assert received == [(GOLDEN / "csk_free_poisson.csv").read_bytes()]


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_out_creates_a_file_with_the_umask_mode(tmp_path):
    out = tmp_path / "new.csv"
    old = os.umask(0o027)
    try:
        result = _invoke(GOLDEN_CASES["transform_g.csv"] + ["--out", out])
    finally:
        os.umask(old)
    assert result.exit_code == 0, result.output
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_out_on_a_directory_raises_os_error(tmp_path):
    result = _invoke(GOLDEN_CASES["transform_g.csv"] + ["--out", tmp_path])
    assert result.exit_code == 1
    assert isinstance(result.exception, OSError)


#: Values of a "%.17g" cell: every kind of float, as Python floats and as
#: numpy float64, and the ints that the limit rows' index column holds.
_FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1e16, 2.0**53 + 2.0]),
    st.integers(-2**53, 2**53).map(float),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
_CELLS = {"%.17g": st.one_of(_FLOAT_CELLS, st.integers(-2**63, 2**63)),
          "%d": st.integers(0, 10**15).flatmap(lambda n: st.sampled_from([n, np.int64(n)])),
          "%s": st.text(alphabet=st.characters(blacklist_characters=",\n"))}
_ROW_TEMPLATES = sorted(name for name in vars(cli) if name.endswith("_ROW"))


@pytest.mark.parametrize("name", _ROW_TEMPLATES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_template_is_bitwise_the_joined_cells(name, data):
    # a data row is formatted by one %-template; it must give the bytes of
    # each cell formatted alone and joined, as the rows once were: _fmt for
    # a float cell, str for the integer order column, the text of a note
    template = getattr(cli, name)
    cells = template.split(",")
    values = [data.draw(_CELLS[cell]) if cell in _CELLS else None for cell in cells]
    want = ",".join(cli._fmt(v) if cell == "%.17g" else str(v) if cell in _CELLS else cell
                    for cell, v in zip(cells, values))
    assert template % tuple(v for v in values if v is not None) == want


def test_golden_output_on_stdout_matches_file():
    result = _invoke(GOLDEN_CASES["transform_g.csv"])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / "transform_g.csv").read_bytes()


def test_verify_all_stdout_matches_golden():
    result = _invoke(["verify", "--suite", "all"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / "verify_all.txt").read_bytes()


@pytest.mark.parametrize(
    "doc, m",
    [
        ('{"type":"atomic","atoms":[0.5,2.5],"weights":[0.4,0.6]}', "0.5"),
        ('{"type":"named","name":"semicircle","params":{"center":3,"variance":0.5}}', "-1.5"),
        # just below the lower mean endpoint 2.823: rounding in 1 + Psi once
        # made the theta walk stop at theta ~ -2e15 and answer
        ('{"type":"named","name":"semicircle","params":{"center":3,"variance":0.5}}', "2"),
        ('{"type":"named","name":"semicircle","params":{"center":3,"variance":0.5}}', "2.5"),
    ],
)
def test_csk_mean_below_domain_is_an_error_row(doc, m, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(doc, encoding="utf-8")
    result = _invoke(["csk", "--spec", spec, f"--at={m}"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.stdout.splitlines()[-1] == f"{m},,,,m = {m} below the attainable means"


@pytest.mark.parametrize("which", ["G", "K"])
def test_transform_moments_at_zero_is_an_error_row(which):
    result = _invoke(["transform", "--spec", GOLDEN / "catalan_moments.json",
                      "--which", which, "--grid", "0"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.stdout.splitlines()[-1] == (
        "0,,z = 0 is the pole of the truncated Laurent series of G")


_CSK_AT_1 = ["csk", "--at", "1"]
_FREE_POISSON = '{"type":"named","name":"free_poisson"}'


@pytest.mark.parametrize(
    "doc, args",
    [
        ('{"type":"named","name":"semicircle","params":{"center":"abc"}}', _CSK_AT_1),
        ('{"type":"named","name":"semicircle","params":{"center":[1]}}', _CSK_AT_1),
        ('{"type":"atomic","atoms":[NaN,1],"weights":[0.5,0.5]}', _CSK_AT_1),
        ('{"type":"atomic","atoms":[1,2],"weights":[0.6,0.6]}', _CSK_AT_1),
        ('{"type":"moments","values":[1,2', _CSK_AT_1),
        # empty moment or series orders once leaked a ValueError traceback
        (_FREE_POISSON, ["limit", "--kind", "boxplus", "--moments", "0"]),
        (_FREE_POISSON, ["limit", "--kind", "uplus", "--moments", "-2"]),
        (_FREE_POISSON, ["limit", "--kind", "uplus", "--moments", "0"]),
        # a nan or inf power once printed nan/inf moments, or a ValueError traceback
        *[(_FREE_POISSON, ["convolve", "--op", op, "--power", power])
          for op in ("boxplus", "uplus", "boxtimes", "bt") for power in ("nan", "inf")],
        # a mean-0 generator once reached gamma = Var/m0**2 before any check
        ('{"type":"named","name":"semicircle","params":{"center":0,"variance":1}}',
         ["limit", "--kind", "boxplus"]),
        # an n beyond the largest double once leaked an OverflowError from 1/n,
        # and one with an infinite float square from the variance rows
        (_FREE_POISSON, ["limit", "--kind", "boxplus", "--n-schedule", f"1,{10**400}"]),
        (_FREE_POISSON, ["limit", "--kind", "uplus", "--n-schedule", f"1,{10**300}"]),
    ],
)
def test_malformed_input_exits_1_without_traceback(doc, args, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(doc, encoding="utf-8")
    result = _invoke([args[0], "--spec", spec] + args[1:])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", "boxplus"],
        ["convolve", "--spec", GOLDEN / "free_poisson.json",
         "--spec2", GOLDEN / "free_poisson.json", "--op", "bt"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "1:2"],
        # non-finite grid numbers once leaked tracebacks or nan/inf rows
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "0.5:nan:0.1"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "0.5:inf:0.1"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "0.5:1:nan"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "nan"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at=-1e308:1e308:1e308"],
        ["transform", "--spec", GOLDEN / "free_poisson.json", "--which", "G", "--grid", "5:6:inf"],
        ["transform", "--spec", GOLDEN / "free_poisson.json", "--which", "G",
         "--grid", "nan,inf"],
        # a range of more than MAX_GRID_POINTS points is refused before it is built
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "0:1e12:1"],
        ["transform", "--spec", GOLDEN / "free_poisson.json", "--which", "G",
         "--grid", "0:1e12:1"],
        # the series order is the moment order; there is no separate knob
        ["limit", "--spec", GOLDEN / "free_poisson.json", "--kind", "boxplus", "--order", "40"],
        ["limit", "--spec", GOLDEN / "free_poisson.json", "--kind", "boxplus",
         "--n-schedule", "one"],
        ["transform", "--spec", GOLDEN / "missing.json", "--which", "G", "--grid", "3"],
        ["verify", "--suite", "nonexistent"],
        # the command line itself: no or an unknown command, an unknown
        # option, a value missing at the end, a bad choice, int or float,
        # and an extra argument
        [],
        ["tabulate", "--spec", GOLDEN / "free_poisson.json"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "1", "--grid", "1"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at"],
        ["transform", "--spec", GOLDEN / "free_poisson.json", "--which", "g", "--grid", "3"],
        ["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", "times", "--power", "2"],
        ["limit", "--spec", GOLDEN / "free_poisson.json", "--kind", "free"],
        ["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", "boxplus", "--power", "2",
         "--order", "4.5"],
        ["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", "boxplus", "--power", "abc"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "1", "extra"],
    ],
)
def test_usage_error_exits_2(args):
    result = _invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error" in result.stderr


def test_option_value_may_start_with_a_dash_and_a_repeat_keeps_the_last():
    spec = GOLDEN / "free_poisson.json"
    spaced = _invoke(["csk", "--spec", spec, "--at", "-0.5,0.5"])
    assert spaced.exit_code == 0, spaced.output
    assert b"# grid,-0.5,0.5\n" in spaced.stdout_bytes
    for args in (["--at=-0.5,0.5"], ["--at", "3", "--at", "-0.5,0.5"], ["--at=3", "--at=-0.5,0.5"]):
        assert _invoke(["csk", "--spec", spec, *args]).stdout_bytes == spaced.stdout_bytes


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_names_every_option(command):
    result = _invoke(["--help"] if command is None else [command, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    if command is None:
        assert all(name in result.stdout for name in cli._COMMANDS)
        return
    fn, options = cli._COMMANDS[command]
    assert fn.__doc__.splitlines()[0] in result.stdout
    for flag, _, _, _, text in options:
        assert f"  {flag} " in result.stdout and text in result.stdout


def test_ctrl_c_exits_1_in_standalone_mode_and_propagates_outside_it(monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(transforms, "cauchy_transform", interrupted)
    args = ["transform", "--spec", str(GOLDEN / "free_poisson.json"), "--which", "G", "--grid", "5"]
    result = _invoke(args)
    assert result.exit_code == 1
    assert result.stderr == "\nAborted!\n"
    with pytest.raises(KeyboardInterrupt):
        main(args, standalone_mode=False)
    with pytest.raises(cli.UsageError):  # the benchmark scores it as a failed job
        main(["csk"], standalone_mode=False)


@pytest.mark.parametrize(
    "operands, code",
    [
        (["--spec", GOLDEN / "semicircle.json", "--power", "2"], 1),
        (["--spec", GOLDEN / "free_poisson.json", "--spec2", GOLDEN / "semicircle.json"], 1),
        (["--spec", GOLDEN / "semicircle.json", "--spec2", GOLDEN / "free_poisson.json"], 1),
        # a moment list cannot certify positivity and is taken as given
        (["--spec", GOLDEN / "free_poisson.json", "--spec2", GOLDEN / "catalan_moments.json"], 0),
    ],
)
def test_convolve_boxtimes_checks_each_operand_is_positive(operands, code):
    result = _invoke(["convolve", "--op", "boxtimes", "--order", "6"] + operands)
    assert result.exit_code == code, result.output
    assert ("boxtimes requires measures supported on [0, inf)" in result.output) == bool(code)


@pytest.mark.parametrize("op", ["boxplus", "uplus", "boxtimes", "bt"])
def test_convolve_overflowing_power_exits_1(op):
    # once printed nan (inf for uplus) moments and exited 0
    result = _invoke(["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", op,
                      "--power", "1e300", "--order", "6"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and "overflows" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("op", ["boxplus", "boxtimes"])
def test_convolve_overflowing_pair_exits_1(op, tmp_path):
    # once printed nan in all 160 rows and exited 0
    spec = tmp_path / "spec.json"
    spec.write_text('{"type":"atomic","atoms":[0.5,30],"weights":[0.5,0.5]}', encoding="utf-8")
    result = _invoke(["convolve", "--spec", spec, "--spec2", GOLDEN / "free_poisson.json",
                      "--op", op, "--order", "160"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and "overflows" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("op, power, reversions",
                         [("boxplus", "2.5", 0), ("uplus", "2", 0), ("bt", "0.75", 0),
                          ("boxtimes", "3", 1)])
def test_convolve_power_of_a_density_reverts_few_series(op, power, reversions, monkeypatch):
    # the additive powers map the density's Jacobi parameters and read the
    # moments off the three-term recurrence; boxtimes reads S off them too
    # and reverts only S cubed back to moments.  The CLI once built 160
    # moments first and the power reverted them back: 3 reversions for
    # boxplus, bt and boxtimes alike, then 1 for each additive power and
    # 2 for boxtimes (its exact free cumulants to S, S back to moments)
    orders = []

    def recording(a):
        orders.append(len(a) - 1)
        return series.ps_revert(a)

    for module in (conv, transforms):
        monkeypatch.setattr(module, "ps_revert", recording)
    measure._density_moments.cache_clear()
    result = _invoke(["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", op,
                      "--power", power, "--order", "160"])
    assert result.exit_code == 0, result.output
    assert len(orders) == reversions and min(orders, default=160) >= 160


@pytest.mark.parametrize("op, reversions", [("boxplus", 1), ("boxtimes", 1)])
def test_convolve_pair_of_densities_reverts_few_series(op, reversions, monkeypatch, tmp_path):
    # each operand is read through the measure protocol: boxplus adds exact
    # free cumulants, boxtimes multiplies S series read off the Jacobi
    # parameters; each reverts once, back to moments.  The CLI once built
    # 160 moments of each and the pair op reverted them back: 5 reversions
    # for both, then 3 for boxtimes (each operand's cumulants to S)
    spec2 = tmp_path / "semicircle.json"
    spec2.write_text('{"type":"named","name":"semicircle","params":{"center":3,"variance":0.5}}',
                     encoding="utf-8")
    orders = []

    def recording(a):
        orders.append(len(a) - 1)
        return series.ps_revert(a)

    for module in (conv, transforms):
        monkeypatch.setattr(module, "ps_revert", recording)
    measure._density_moments.cache_clear()
    result = _invoke(["convolve", "--spec", GOLDEN / "free_poisson.json", "--spec2", spec2,
                      "--op", op, "--order", "160"])
    assert result.exit_code == 0, result.output
    assert len(orders) == reversions and min(orders) >= 160


def test_commands_look_up_library_functions_when_they_run(monkeypatch):
    # the command tables once held the conv functions bound at import, so a
    # wrapper installed on the module attribute never saw the entry call
    calls = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((conv, "boxplus_power"), (conv, "uplus"),
                         (transforms, "cauchy_transform")):
        counting(module, name)
    fp, atom = GOLDEN / "free_poisson.json", GOLDEN / "two_atom.json"
    for args, name in (
            (["convolve", "--spec", fp, "--op", "boxplus", "--power", "2"], "boxplus_power"),
            (["convolve", "--spec", fp, "--spec2", atom, "--op", "uplus"], "uplus"),
            (["transform", "--spec", fp, "--which", "G", "--grid=5"], "cauchy_transform")):
        calls.clear()
        result = _invoke(args)
        assert result.exit_code == 0, result.output
        assert calls == [name]


def test_grid_point_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
    assert len(cli._parse_grid("0:9:1")) == 10
    with pytest.raises(cli.UsageError):
        cli._parse_grid("0:10:1")
    assert cli._parse_grid("0,1,2,3,4,5,6,7,8,9,10")[-1] == 10.0  # lists are not ranges


def test_verify_suite_raising_a_cskfam_error_exits_1(monkeypatch):
    # once printed a traceback: verify was the one command without the handler
    from cskfam import verify_suites
    from cskfam.errors import NumericError

    def raising():
        raise NumericError("a suite overflowed")

    monkeypatch.setitem(verify_suites.SUITES, "series", raising)
    result = _invoke(["verify", "--suite", "series"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "error: a suite overflowed\n"
    assert result.stdout == ""


def test_verify_all_passes():
    result = _invoke(["verify", "--suite", "all"])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output


# A fresh interpreter runs one job of each benchmark kind and a transform
# job, whose Psi at theta = -1000 sends free Poisson to the adaptive fallback.
_NO_SCIPY_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from cskfam import measure
from cskfam.cli import main
fallbacks = []
bisect_piece = measure._bisect_piece
def counted(*args):
    fallbacks.append(args)
    return bisect_piece(*args)
measure._bisect_piece = counted
spec, out = sys.argv[2], sys.argv[3]
for args in (["csk", "--spec", spec, "--at", "0.05,0.1,0.5"],
             ["limit", "--spec", spec, "--kind", "boxplus", "--n-schedule", "1,2,4"],
             ["convolve", "--spec", spec, "--op", "boxtimes", "--power", "2",
              "--order", "8"],
             ["transform", "--spec", spec, "--which", "Psi", "--grid", "-1000"]):
    main(args + ["--out", out], standalone_mode=False)
print(len(fallbacks), sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_jobs_load_no_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(src), str(GOLDEN / "free_poisson.json"),
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fallbacks, modules = proc.stdout.split(" ", 1)
    assert int(fallbacks) > 0
    assert modules.strip() == "[]"


def test_cli_import_loads_no_click():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import cskfam.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))", str(src)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(os.name != "posix", reason="POSIX pipes")
def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # about 10^5 rows, far beyond a pipe's buffer, to a pipe nobody reads
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cskfam.cli", "csk", "--spec", str(GOLDEN / "free_poisson.json"),
             "--at", "0.00002:2:0.00002"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""
