"""Measure representations, moments, G and Psi of the named densities, and spec parsing."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from cskfam import measure as measure_module
from cskfam.csk import mean_domain
from cskfam.errors import (
    CskfamError,
    DomainError,
    InsufficientDataError,
    MeasureSpecError,
    SingularityError,
    TruncationAccuracyWarning,
)
from cskfam.measure import (
    AtomicMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    Semicircle,
    laurent_trust_radius,
    mean,
    moments,
    parse_measure_spec,
)
from cskfam.transforms import (
    cauchy_transform,
    m_transform,
    psi_integral,
    psi_transform,
    r_transform,
)

from oracles import (
    catalan,
    mp_cauchy,
    mp_cauchy_complex,
    mp_integral,
    mp_psi,
    nc_moments_from_free_cumulants,
)

ALL_DENSITIES = [
    FreePoisson(),
    Semicircle(0.0, 1.0),
    Semicircle(1.0, 2.0),
    MarchenkoPasturCentered(0.3),
    MarchenkoPasturCentered(1.0),
    MarchenkoPasturCentered(-1.0),
    MarchenkoPasturCentered(-0.6),
]


# ---------------------------------------------------------------------------
# moments


def test_point_mass_moments():
    nu = AtomicMeasure((2.0,), (1.0,))
    assert moments(nu, 3).values == (2.0, 4.0, 8.0)


def test_atomic_moments_exact_power_sums():
    nu = AtomicMeasure((-1.0, 0.5, 2.0), (0.25, 0.25, 0.5))
    got = moments(nu, 6).values
    for n, m_n in enumerate(got, start=1):
        want = 0.25 * (-1.0) ** n + 0.25 * 0.5**n + 0.5 * 2.0**n
        assert abs(m_n - want) <= 1e-14


def test_atomic_moments_overflow_to_inf_without_a_warning():
    # numpy once warned "overflow encountered in square" and "in power" on
    # stderr before the caller's error line; the tests turn warnings into errors
    got = moments(AtomicMeasure((0.0, 1e200), (0.5, 0.5)), 3).values
    assert got[0] == 5e199 and got[1:] == (math.inf, math.inf)


def test_free_poisson_moments_catalan():
    got = moments(FreePoisson(), 8).values
    # oracle: all free cumulants equal 1, summed over non-crossing partitions
    oracle = nc_moments_from_free_cumulants([1.0] * 8, 8)
    np.testing.assert_allclose(got, oracle, rtol=1e-12)
    assert got[:4] == (1.0, 2.0, 5.0, 14.0)
    assert all(abs(g - catalan(n)) <= 1e-6 * catalan(n) for n, g in enumerate(got, 1))


def test_semicircle_moments():
    got = moments(Semicircle(0.0, 1.0), 4).values
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("nu", [*ALL_DENSITIES, Semicircle(-0.375, 1.25), Semicircle(3, 0.5)],
                         ids=lambda nu: nu.describe())
def test_density_mean_is_bitwise_the_first_recurrence_moment(nu, monkeypatch):
    # a named density's mean is its center, alpha_0, with no recurrence run
    want = moments(nu, 1).values[0]
    monkeypatch.setattr(measure_module, "_density_moments", None)
    got = mean(nu)
    assert type(got) is float and got.hex() == want.hex()


@pytest.mark.parametrize("nu", ALL_DENSITIES, ids=lambda nu: nu.describe())
def test_density_moments_agree_with_quadrature(nu):
    # the recurrence on the Jacobi parameters against mpmath quadrature of
    # the density at 20 digits, which also integrates to 1
    got = moments(nu, 8).values
    quad = [float(mp_integral(nu, lambda x, n=n: x**n)) for n in range(9)]
    assert quad[0] == 1.0
    np.testing.assert_allclose(got, quad[1:], atol=1e-14, rtol=1e-14)


def test_moment_sequence_measure_slices_and_rejects():
    nu = MomentSeq((1.0, 2.0, 5.0))
    assert moments(nu, 2).values == (1.0, 2.0)
    with pytest.raises(InsufficientDataError):
        moments(nu, 4)


def test_moment_seq_accessors():
    m = MomentSeq((1.0, 2.0, 5.0))
    assert m.variance == 1.0
    with pytest.raises(InsufficientDataError):
        MomentSeq((1.0,)).variance


# ---------------------------------------------------------------------------
# G and Psi of the named densities, against mpmath


def test_complex_cauchy_of_the_semicircle_at_2i():
    # G(2i) = i*(1 - sqrt(2)) for the unit semicircle
    val = cauchy_transform(Semicircle(0.0, 1.0), 2j)
    assert abs(val - 1j * (1.0 - math.sqrt(2.0))) <= 1e-16
    assert val.imag < 0.0


EDGE_DENSITIES = [
    FreePoisson(),
    Semicircle(0.0, 1.0),
    MarchenkoPasturCentered(1.0),
    MarchenkoPasturCentered(0.25),
    MarchenkoPasturCentered(15.0 / 16.0),
    MarchenkoPasturCentered(-1.0),
]
#: Distances of a real argument (z, or 1/theta) outside each support edge.
EDGE_DISTANCES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 2.0, 100.0)


def _outside_edges(nu):
    lo, hi = nu.support()
    return [z for d in EDGE_DISTANCES for z in (lo - d, hi + d) if z != 0.0]


@pytest.mark.parametrize("nu", EDGE_DENSITIES, ids=lambda nu: nu.describe())
def test_psi_and_cauchy_against_mpmath(nu):
    """Psi at theta = 1/z and G at z, for z from 1e-6 to 100 outside each
    support edge, within 1e-15 relative of the closed forms at 60 digits,
    Psi at the exact theta (measured: 3.9e-16).  These supports are exact
    in floats.  Before the closed form, Psi of MP(1) was 1.1e-11 off at
    1/theta = -1.000001 against the exact theta, and 1 - lo*theta rounded
    as a plain difference left Psi of MP(15/16) 4.3e-13 off at 1e-6 from its
    lower edge."""
    for z in _outside_edges(nu):
        theta = 1.0 / z
        psi_ref = float(mp_psi(nu, theta))
        g_ref = float(mp_cauchy(nu, z, dps=60))
        assert abs(psi_integral(nu, theta) - psi_ref) <= 1e-15 * abs(psi_ref), z
        g = cauchy_transform(nu, z)
        assert g.imag == 0.0
        assert abs(g.real - g_ref) <= 1e-15 * abs(g_ref), z


#: The named laws of the envelope tests: support ends exact in floats, and
#: rounded (the semicircles of variance 0.5).
NAMED_LAWS = [
    FreePoisson(), Semicircle(0.0, 1.0), Semicircle(1.0, 0.5), Semicircle(3.0, 0.5),
    *(MarchenkoPasturCentered(a) for a in (1.0, -1.0, 0.5, 0.3125)),
]


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
@pytest.mark.parametrize("nu", NAMED_LAWS, ids=lambda nu: nu.describe())
def test_g_and_psi_next_to_each_edge_against_mpmath(nu, upper):
    """G at 1e-6 outside an edge and Psi at theta = 1/z, against 60 digits:
    within 1e-15 at a singular edge (free Poisson at z = -1e-6 included),
    and within 2e-13 at a regular one, where the rounded support end of a
    semicircle of variance 0.5 costs 7.5e-14 for G and 1.1e-13 for Psi
    (measured; the quadrature read the same for G)."""
    z = nu.support()[upper] + (1e-6 if upper else -1e-6)
    singular = nu.upper_edge_singular if upper else nu.lower_edge_singular
    bound = 1e-15 if singular else 2e-13
    want = float(mp_cauchy(nu, z, dps=60))
    assert abs(cauchy_transform(nu, z).real - want) <= bound * abs(want)
    want = float(mp_psi(nu, 1.0 / z))
    assert abs(psi_integral(nu, 1.0 / z) - want) <= bound * abs(want)


@pytest.mark.parametrize("nu, theta", [
    *((nu, t) for nu in NAMED_LAWS for t in (1e-8, -1e-8)),
    (MarchenkoPasturCentered(1.0), -0.999999),  # next to the singular edge -1
    (MarchenkoPasturCentered(-1.0), 0.999999),
], ids=str)
def test_psi_at_small_theta_and_next_to_a_singular_pole_against_mpmath(nu, theta):
    # the quadrature was 3e-9 to 1.1e-8 off at |theta| = 1e-8 (its absolute
    # tolerance) and 1.2e-11 off at theta = -0.999999 on MP(1), which it
    # integrated against the rounded pole 1/theta
    want = float(mp_psi(nu, theta))
    assert abs(psi_integral(nu, theta) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("nu", NAMED_LAWS, ids=lambda nu: nu.describe())
@pytest.mark.parametrize("y", [1e-6, -1e-6])
def test_complex_g_and_psi_at_the_old_piece_junction_against_mpmath(nu, y):
    # x = alpha_1 is where the two quadrature pieces met: G there lost
    # eps/|Im z|, 5e-11 to 1.7e-10 relative at Im z = 1e-6
    z = complex(nu.jacobi()[0][1], y)
    want = complex(mp_cauchy_complex(nu, z, dps=60))
    assert abs(cauchy_transform(nu, z) - want) <= 1e-15 * abs(want)
    want = complex(mp_psi(nu, 1.0 / z))
    assert abs(psi_integral(nu, 1.0 / z) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize(
    "nu, theta",
    [
        (Semicircle(0.0, 1.0), 0.9),
        (MarchenkoPasturCentered(0.5), 0.9),
        (Semicircle(3.0, 0.5), 0.49),
        (Semicircle(0.0, 1.0), 0.5),  # 1/theta on the closed support's edge
        (FreePoisson(), 0.25),
        (FreePoisson(), 0.9),
        (Semicircle(3.0, 0.5), 0.33),
        (MarchenkoPasturCentered(-1.0), -50.0),
        (AtomicMeasure((0.5, 2.0), (0.5, 0.5)), 0.5),  # 1/theta is an atom
        (AtomicMeasure((0.5, 2.0), (0.5, 0.5)), 2.0),
    ],
)
def test_psi_integral_with_its_pole_on_the_support_is_a_singularity(nu, theta):
    # once returned -0.383, -0.425 and -3.140 for the densities, and raised
    # ZeroDivisionError for the atomic law
    with pytest.raises(SingularityError, match="pole 1/theta"):
        psi_integral(nu, theta)


# ---------------------------------------------------------------------------
# G and Psi off the real axis


OFF_AXIS_DENSITIES = [
    FreePoisson(),
    Semicircle(1.0, 2.0),
    MarchenkoPasturCentered(0.5),
    MarchenkoPasturCentered(1.0),
    MarchenkoPasturCentered(-1.0),
]


@pytest.mark.parametrize("nu", OFF_AXIS_DENSITIES, ids=lambda nu: nu.describe())
def test_complex_cauchy_against_mpmath(nu):
    """G at |Im z| >= 1e-2, over and around the support, within 1e-13
    relative of the closed form at 50 digits (measured: 4.5e-15)."""
    lo, hi = nu.support()
    for x in np.linspace(lo - 1.0, hi + 1.0, 7):
        for y in (1e-2, -1e-2, 0.1, 1.0, -1.0, 10.0):
            z = complex(x, y)
            want = complex(mp_cauchy_complex(nu, z))
            assert abs(cauchy_transform(nu, z) - want) <= 1e-13 * abs(want), z


@pytest.mark.parametrize(
    "nu, z",
    [
        (FreePoisson(), 7.0 / 6.0 + 1e-4j),
        (Semicircle(0.0, 1.0), 5.0 / 6.0 + 1e-4j),
        (MarchenkoPasturCentered(0.5), 4.0 / 3.0 + 1e-4j),
        (MarchenkoPasturCentered(1.0), 11.0 / 6.0 + 1e-4j),
        (MarchenkoPasturCentered(-1.0), -1.0 / 6.0 + 1e-4j),
    ],
)
def test_complex_cauchy_close_to_the_support_against_mpmath(nu, z):
    # 1e-4 above the support: the separate real and imaginary integrals of
    # an early quadrature each missed their tolerance (AccuracyError)
    want = complex(mp_cauchy_complex(nu, z))
    assert abs(cauchy_transform(nu, z) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("nu, x", [(FreePoisson(), 0.3), (FreePoisson(), 1.0), (FreePoisson(), 3.9),
                                   (Semicircle(1.0, 0.5), 1.3), (Semicircle(), -1.9),
                                   (Semicircle(), 0.5)], ids=str)
@pytest.mark.parametrize("y", [1e-3, 3e-5, 1e-6, -1e-6])
def test_complex_g_and_psi_over_the_support_interior_against_mpmath(nu, x, y):
    # a quadrature that split a piece only at a real pole raised
    # AccuracyError from Im z = 3e-5 down (free Poisson at 1 + 3e-5j after
    # 10 ms); measured now: within 8e-16 relative
    z = complex(x, y)
    want = complex(mp_cauchy_complex(nu, z))
    assert abs(cauchy_transform(nu, z) - want) <= 1e-13 * abs(want)
    if nu.is_positive:
        theta = 1.0 / z
        with mpmath.workdps(50):
            r = 1 / mpmath.mpc(theta)
            want = complex(-1 + r * mp_cauchy_complex(nu, r))
        assert abs(psi_transform(nu, theta) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("nu", [FreePoisson(), Semicircle(2.5, 1.0)], ids=lambda nu: nu.describe())
@pytest.mark.parametrize("theta", [1e-4 * (1 + 1j), 1e-6 * (1 - 1j), 1e-8 + 3e-8j])
def test_complex_psi_at_small_theta_against_mpmath(nu, theta):
    # Psi = -1 + r*G(r) at r = 1/theta cancelled: 1.9e-12, 2.6e-10 and
    # 1.4e-8 relative off at these theta
    with mpmath.workdps(40):
        r = 1 / mpmath.mpc(theta)
        want = complex(-1 + r * mp_cauchy_complex(nu, r, dps=40))
    assert abs(psi_transform(nu, theta) - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------------------
# flags and invariants


def test_positivity_flags():
    assert FreePoisson().is_positive
    assert AtomicMeasure((0.0, 1.0), (0.5, 0.5)).is_positive
    assert not AtomicMeasure((-0.5, 1.0), (0.5, 0.5)).is_positive
    assert Semicircle(3.0, 1.0).is_positive
    assert Semicircle(2.0, 1.0).support()[0] == 0.0 and Semicircle(2.0, 1.0).is_positive
    assert not Semicircle(0.0, 1.0).is_positive
    assert not MarchenkoPasturCentered(1.0).is_positive
    assert not MomentSeq((1.0, 2.0)).is_positive


def test_zero_mass():
    assert AtomicMeasure((0.0, 2.0), (0.3, 0.7)).zero_mass == 0.3
    assert AtomicMeasure((1.0, 2.0), (0.3, 0.7)).zero_mass == 0.0
    assert AtomicMeasure((-1.0, 0.0, 1.5), (0.5, 0.125, 0.375)).zero_mass == 0.125
    for nu in [*ALL_DENSITIES, MomentSeq((1.0, 2.0))]:  # every density class, a moment list
        assert nu.zero_mass == 0.0


def test_atomic_validation():
    with pytest.raises(DomainError):
        AtomicMeasure((1.0, 1.0), (0.5, 0.5))  # duplicate atoms
    with pytest.raises(DomainError):
        AtomicMeasure((1.0, 2.0), (0.6, 0.6))  # weights do not sum to 1
    with pytest.raises(DomainError):
        AtomicMeasure((1.0, 2.0), (-0.5, 1.5))  # negative weight
    with pytest.raises(DomainError):
        AtomicMeasure((0.0, 1.0), (math.nan, 1.0))  # nan weight
    with pytest.raises(DomainError):
        AtomicMeasure((math.nan, 1.0), (0.5, 0.5))
    with pytest.raises(DomainError):
        AtomicMeasure((math.inf, 1.0), (0.5, 0.5))


def test_semicircle_parameter_bounds():
    for center, var in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (0.0, 0.0)):
        with pytest.raises(DomainError):
            Semicircle(center, var)


def test_marchenko_pastur_parameter_bounds():
    with pytest.raises(DomainError):
        MarchenkoPasturCentered(0.0)
    with pytest.raises(DomainError):
        MarchenkoPasturCentered(1.2)
    MarchenkoPasturCentered(-1.0)  # boundary value allowed


def test_mp_density_pointwise_consistent():
    # density(x) evaluated pointwise integrates to 1
    nu = MarchenkoPasturCentered(0.5)
    xs = np.linspace(-1.49, 2.49, 2001)
    riemann = np.trapezoid([nu.density(float(x)) for x in xs], xs)
    assert abs(riemann - 1.0) < 1e-3


def _parent_law(nu):
    """The support, edge flags and free cumulants (order 160) of a named
    density as its own class wrote them before the three shared one
    Marchenko-Pastur image class."""
    if isinstance(nu, FreePoisson):
        return (0.0, 4.0), (True, False), np.ones(160)
    if isinstance(nu, Semicircle):
        r, v = 2.0 * math.sqrt(nu.variance), nu.variance
        cumulants = np.zeros(160)
        cumulants[:2] = nu.center, v
        return (nu.center - r, nu.center + r), (False, False), cumulants
    a = nu.a
    cumulants = np.array([0.0 if n < 2 else a ** (n - 2) for n in range(1, 161)])
    return (a - 2.0, a + 2.0), (a == 1.0, a == -1.0), cumulants


@pytest.mark.parametrize(
    "nu",
    [FreePoisson(),
     *(MarchenkoPasturCentered(a) for a in (-1.0, -0.9375, -0.6, 0.25, 0.9375, 1.0)),
     Semicircle(-4.0, 0.5), Semicircle(0.3, 1.7), Semicircle(3.0, 0.1)],
    ids=lambda nu: nu.describe(),
)
def test_shared_class_is_the_parents_law(nu):
    support, flags, cumulants = _parent_law(nu)
    assert nu.support() == support
    assert (nu.lower_edge_singular, nu.upper_edge_singular) == flags
    assert nu.free_cumulants(160).tobytes() == cumulants.tobytes()


# ---------------------------------------------------------------------------
# parsing


def test_parse_atomic():
    nu = parse_measure_spec('{"type":"atomic","atoms":[0,2],"weights":[0.5,0.5]}')
    assert isinstance(nu, AtomicMeasure)
    assert nu.atoms == (0.0, 2.0)
    assert nu.zero_mass == 0.5


def test_parse_named_free_poisson():
    nu = parse_measure_spec('{"type":"named","name":"free_poisson"}')
    assert isinstance(nu, FreePoisson)


def test_parse_named_with_params():
    nu = parse_measure_spec(
        '{"type":"named","name":"semicircle","params":{"center":1.0,"variance":2.0}}'
    )
    assert nu == Semicircle(1.0, 2.0)
    nu = parse_measure_spec(
        '{"type":"named","name":"marchenko_pastur_centered","params":{"a":0.5}}'
    )
    assert nu == MarchenkoPasturCentered(0.5)
    assert parse_measure_spec('{"type":"named","name":"semicircle"}') == Semicircle()


def test_parse_moments_passthrough():
    nu = parse_measure_spec('{"type":"moments","values":[1,2,5,14]}')
    assert isinstance(nu, MomentSeq)
    assert nu.values == (1.0, 2.0, 5.0, 14.0)


def test_parse_reports_constructor_errors_with_location():
    with pytest.raises(MeasureSpecError) as err:
        parse_measure_spec('{"type":"atomic","atoms":[1,2],"weights":[-0.5,1.5]}')
    assert err.value.location == "$"
    assert "strictly positive" in str(err.value)


def test_parse_syntax_error_is_position_annotated():
    with pytest.raises(MeasureSpecError) as err:
        parse_measure_spec('{"type": "atomic",')
    assert "line" in str(err.value)


@pytest.mark.parametrize(
    "doc,needle",
    [
        ('{"type":"blah"}', "unknown type"),
        ('{"type":"named","name":"cauchy"}', "unknown density"),
        ('{"type":"atomic","atoms":[1,2],"weights":[0.6,0.6]}', "sum"),
        ('{"type":"atomic","atoms":[1,1],"weights":[0.5,0.5]}', "distinct"),
        ('{"type":"named","name":"marchenko_pastur_centered","params":{"a":2.0}}', "a**2"),
        ('{"type":"named","name":"marchenko_pastur_centered"}', "requires parameter"),
        ('{"type":"named","name":"free_poisson","params":{"a":1}}', "unknown parameters"),
        # a fixed parameter of a law is no spec parameter
        ('{"type":"named","name":"semicircle","params":{"a":0.5}}', "unknown parameters"),
        ('{"type":"moments","values":[]}', "nonempty"),
        ('[1,2,3]', "object"),
        ('{"type":["atomic"]}', "unknown type"),
        ('{"type":"named","name":["semicircle"]}', "unknown density"),
        ('{"type":"named","name":"semicircle","params":{"center":"abc"}}', "finite number"),
        ('{"type":"named","name":"semicircle","params":{"center":[1]}}', "finite number"),
        ('{"type":"named","name":"semicircle","params":{"center":"1.5"}}', "finite number"),
        ('{"type":"named","name":"semicircle","params":{"center":true}}', "finite number"),
        ('{"type":"named","name":"semicircle","params":{"variance":0}}', "variance"),
        ('{"type":"named","name":"marchenko_pastur_centered","params":{"a":"0.5"}}',
         "finite number"),
        ('{"type":"atomic","atoms":[NaN,1],"weights":[0.5,0.5]}', "finite number"),
        ('{"type":"atomic","atoms":[Infinity,1],"weights":[0.5,0.5]}', "finite number"),
        ('{"type":"atomic","atoms":[1e400,1],"weights":[0.5,0.5]}', "finite number"),
        ('{"type":"atomic","atoms":[1' + "0" * 400 + ',1],"weights":[0.5,0.5]}',
         "finite number"),
        ('{"type":"moments","values":[NaN,2]}', "finite number"),
    ],
)
def test_parse_rejections(doc, needle):
    with pytest.raises(MeasureSpecError) as err:
        parse_measure_spec(doc)
    assert needle in str(err.value)


def test_supports():
    assert FreePoisson().support() == (0.0, 4.0)
    assert MarchenkoPasturCentered(1.0).support() == (-1.0, 3.0)
    lo, hi = Semicircle(0.0, 1.0).support()
    assert (lo, hi) == (-2.0, 2.0)
    with pytest.raises(InsufficientDataError):
        MomentSeq((1.0,)).support()


def test_mean_helper():
    assert abs(mean(FreePoisson()) - 1.0) <= 1e-12
    assert abs(mean(MarchenkoPasturCentered(0.7))) <= 1e-12


# ---------------------------------------------------------------------------
# the measure protocol: every representation answers every entry point or
# raises a typed error

PROTOCOL_MEASURES = [
    AtomicMeasure((0.5, 2.5), (0.4, 0.6)),
    FreePoisson(),
    Semicircle(1.0, 0.5),
    MarchenkoPasturCentered(0.5),
    MarchenkoPasturCentered(1.0),
    MarchenkoPasturCentered(-1.0),
    MomentSeq((1.0, 2.0, 5.0, 14.0, 42.0, 132.0)),
]

ENTRY_POINTS = {
    "moments": lambda nu: moments(nu, 3),
    "cauchy_transform": lambda nu: cauchy_transform(nu, 10.0),
    "psi_integral": lambda nu: psi_integral(nu, 0.01),
    "m_transform": lambda nu: m_transform(nu, 0.01),
    "mean_domain": lambda nu: mean_domain(nu),
    "r_transform": lambda nu: r_transform(nu, 0.05),
    "theta_range": lambda nu: nu.theta_range(),
    # G at each end of the support, real and as a complex number
    "cauchy_at_the_edges": lambda nu: [cauchy_transform(nu, x) for e in nu.support()
                                       for x in (e, complex(e, 0.0))],
    # Psi with its pole 1/theta at each nonzero end of the support
    "psi_at_the_edges": lambda nu: [psi_integral(nu, 1.0 / e) for e in nu.support() if e],
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("nu", PROTOCOL_MEASURES, ids=lambda nu: nu.describe())
def test_protocol_entry_points_answer_or_raise_typed_errors(nu, entry):
    # at a singular edge (an atom, an inverse-square-root edge) G raises
    # SingularityError, never inf or ZeroDivisionError, and Psi does with its
    # pole anywhere on the closed support; G is finite at a regular edge
    try:
        value = ENTRY_POINTS[entry](nu)
    except SingularityError:
        singular = nu.lower_edge_singular or nu.upper_edge_singular
        assert entry == "psi_at_the_edges" or entry == "cauchy_at_the_edges" and singular
        return
    except CskfamError:
        assert isinstance(nu, MomentSeq)  # only a moment list lacks information
        return
    assert value is not None and entry != "psi_at_the_edges"
    if entry == "cauchy_at_the_edges":
        assert all(map(cmath.isfinite, value))


# ---------------------------------------------------------------------------
# facts the Measure base derives (positivity from the support) and a moment
# list's G from its Psi power sum

SUPPORTED_MEASURES = [
    *PROTOCOL_MEASURES[:-1],
    *ALL_DENSITIES,
    Semicircle(2.0, 1.0),  # lower edge exactly 0
    AtomicMeasure((0.0, 1.5), (0.25, 0.75)),  # an atom at 0
    AtomicMeasure((-0.5, 1.0), (0.5, 0.5)),
]


@pytest.mark.parametrize("nu", SUPPORTED_MEASURES, ids=lambda nu: nu.describe())
def test_is_positive_reads_the_lowest_support_point(nu):
    assert nu.is_positive == (nu.support()[0] >= 0.0)


def _laurent_g_by_horner(nu: MomentSeq, z: complex) -> complex:
    # MomentSeq.cauchy before it read G off the Psi power sum: one Horner
    # loop over m0..mK in theta = 1/z from a complex zero
    theta = 1.0 / z
    acc = 0.0 + 0.0j
    for c in reversed((1.0,) + nu.values):
        acc = acc * theta + c
    return theta * acc


LAURENT_SEQUENCES = [
    PROTOCOL_MEASURES[-1],
    MomentSeq((0.0, 1.0, 0.0, 2.0)),
    MomentSeq((-1.5, 3.0, -7.0, 20.0, -50.0, 1e3)),
    MomentSeq((2.0, -0.0, 1e100)),
]


def _laurent_points(radius: float) -> list[complex]:
    rng = np.random.default_rng(17)
    scale = radius * 10.0 ** rng.uniform(-2.0, 2.0, 300)
    angle = rng.uniform(-math.pi, math.pi, 300)
    points = [complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(scale, angle)]
    for r in (0.5 * radius, 2.0 * radius):  # the axes, with signed zeros
        points += [complex(r, 0.0), complex(-r, 0.0), complex(r, -0.0), complex(-r, -0.0),
                   complex(0.0, r), complex(-0.0, r), complex(0.0, -r), complex(-0.0, -r)]
    return points


@pytest.mark.parametrize("nu", LAURENT_SEQUENCES, ids=lambda nu: str(nu.values))
def test_moment_seq_cauchy_matches_the_horner_loop_bit_for_bit(nu):
    radius = laurent_trust_radius(nu)
    for z in _laurent_points(radius):
        want = _laurent_g_by_horner(nu, z)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cauchy_transform(nu, z)
        assert (repr(got.real), repr(got.imag)) == (repr(want.real), repr(want.imag)), z
        assert len(caught) == (abs(z) <= radius), z  # points lie off the circle


@pytest.mark.parametrize("nu", LAURENT_SEQUENCES, ids=lambda nu: str(nu.values))
def test_moment_seq_cauchy_warns_on_the_trust_circle_at_the_caller(nu):
    radius = laurent_trust_radius(nu)
    for z in (radius, -radius):
        with pytest.warns(TruncationAccuracyWarning) as caught:
            cauchy_transform(nu, z)
        assert len(caught) == 1 and caught[0].filename == __file__
    with pytest.warns(TruncationAccuracyWarning) as caught:
        m_transform(nu, 1.0 / radius)
    assert len(caught) == 1 and caught[0].filename == __file__
