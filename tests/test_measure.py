"""Measure representations, moments, quadrature, and spec parsing."""

import math

import numpy as np
import pytest

from cskfam.csk import k_mean, mean_domain
from cskfam.errors import (
    AccuracyError,
    CskfamError,
    DomainError,
    InsufficientDataError,
    MeasureSpecError,
    SingularityError,
)
from cskfam.measure import (
    AtomicMeasure,
    FreePoisson,
    MarchenkoPasturCentered,
    MomentSeq,
    Semicircle,
    integrate_pieces,
    mean,
    moments,
    parse_measure_spec,
    quadrature_integrate,
)
from cskfam.transforms import cauchy_transform, m_transform, psi_integral, r_transform, theta_range

from oracles import catalan, nc_moments_from_free_cumulants

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


@pytest.mark.parametrize("nu", ALL_DENSITIES, ids=lambda nu: nu.describe())
def test_density_moments_agree_with_quadrature(nu):
    got = moments(nu, 8).values
    quad = [
        integrate_pieces(
            nu, lambda p, n=n: lambda u: p.weight(u) * (p.anchor + p.sign * u * u) ** n)
        for n in range(1, 9)
    ]
    np.testing.assert_allclose(got, quad, atol=1e-10, rtol=1e-10)


def test_moment_sequence_measure_slices_and_rejects():
    nu = MomentSeq((1.0, 2.0, 5.0))
    assert moments(nu, 2).values == (1.0, 2.0)
    with pytest.raises(InsufficientDataError):
        moments(nu, 4)


def test_moment_seq_accessors():
    m = MomentSeq((1.0, 2.0, 5.0))
    assert m.moment(0) == 1.0
    assert m.moment(3) == 5.0
    assert m.mean == 1.0
    assert m.variance == 1.0
    with pytest.raises(InsufficientDataError):
        m.moment(4)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("nu", ALL_DENSITIES, ids=lambda nu: nu.describe())
def test_normalization(nu):
    assert abs(quadrature_integrate(nu, lambda x: 1.0) - 1.0) <= 1e-10


def test_point_evaluation():
    nu = AtomicMeasure((2.0,), (1.0,))
    assert quadrature_integrate(nu, lambda x: x**2) == 4.0


def test_free_poisson_unit_mean():
    nu = FreePoisson()
    assert abs(quadrature_integrate(nu, lambda x: x) - 1.0) <= 1e-10


def test_complex_integrand():
    nu = Semicircle(0.0, 1.0)
    val = quadrature_integrate(nu, lambda x: 1.0 / (2j - x))
    # equals G(2i) = i*(1 - sqrt(2)) for the unit semicircle
    assert abs(val - 1j * (1.0 - math.sqrt(2.0))) <= 1e-10
    assert val.imag < 0.0


def test_moment_sequence_cannot_integrate():
    with pytest.raises(InsufficientDataError):
        quadrature_integrate(MomentSeq((1.0, 2.0)), lambda x: x)


def test_quadrature_failure_carries_estimate():
    # integrand with a non-integrable endpoint blowup in u
    nu = FreePoisson()
    with pytest.raises(AccuracyError) as err:
        integrate_pieces(nu, lambda p: lambda u: p.weight(u) / u**2.5)
    assert err.value.best_estimate is not None


@pytest.mark.parametrize(
    "nu, theta",
    [(FreePoisson(), 0.9), (Semicircle(3.0, 0.5), 0.33), (MarchenkoPasturCentered(-1.0), -50.0)],
)
def test_quadrature_node_on_a_pole_is_a_singularity(nu, theta):
    # 1/theta lies inside the support, where x/(1/theta - x) has a pole: a
    # typed error, not a number.  psi_integral refuses before integrating;
    # an integrand whose pole is a node is checked below.
    with pytest.raises(SingularityError, match="pole"):
        psi_integral(nu, theta)


def test_quadrature_node_on_the_piece_midpoint_pole_is_a_singularity():
    # the first Gauss-Kronrod node of each piece is its midpoint umax/2
    with pytest.raises(SingularityError, match="pole"):
        integrate_pieces(FreePoisson(), lambda p: lambda u: 1.0 / (u - 0.5 * p.umax))


@pytest.mark.parametrize(
    "nu, theta",
    [
        (Semicircle(0.0, 1.0), 0.9),
        (MarchenkoPasturCentered(0.5), 0.9),
        (Semicircle(3.0, 0.5), 0.49),
        (Semicircle(0.0, 1.0), 0.5),  # 1/theta on the closed support's edge
        (FreePoisson(), 0.25),
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
# flags and invariants


def test_positivity_flags():
    assert FreePoisson().is_positive
    assert AtomicMeasure((0.0, 1.0), (0.5, 0.5)).is_positive
    assert not AtomicMeasure((-0.5, 1.0), (0.5, 0.5)).is_positive
    assert Semicircle(3.0, 1.0).is_positive
    assert not Semicircle(0.0, 1.0).is_positive
    assert not MarchenkoPasturCentered(1.0).is_positive
    assert not MomentSeq((1.0, 2.0)).is_positive


def test_zero_mass():
    assert AtomicMeasure((0.0, 2.0), (0.3, 0.7)).zero_mass == 0.3
    assert AtomicMeasure((1.0, 2.0), (0.3, 0.7)).zero_mass == 0.0
    assert FreePoisson().zero_mass == 0.0


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
    # density(x) evaluated pointwise integrates to the same value as pieces
    nu = MarchenkoPasturCentered(0.5)
    xs = np.linspace(-1.49, 2.49, 2001)
    riemann = np.trapezoid([nu.density(float(x)) for x in xs], xs)
    assert abs(riemann - 1.0) < 1e-3


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
    MomentSeq((1.0, 2.0, 5.0, 14.0, 42.0, 132.0)),
]

ENTRY_POINTS = {
    "moments": lambda nu: moments(nu, 3),
    "quadrature_integrate": lambda nu: quadrature_integrate(nu, lambda x: x * x),
    "cauchy_transform": lambda nu: cauchy_transform(nu, 10.0),
    "psi_integral": lambda nu: psi_integral(nu, 0.01),
    "m_transform": lambda nu: m_transform(nu, 0.01),
    "k_mean": lambda nu: k_mean(nu, 0.01),
    "mean_domain": lambda nu: mean_domain(nu),
    "r_transform": lambda nu: r_transform(nu, 0.05),
    "theta_range": lambda nu: theta_range(nu),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("nu", PROTOCOL_MEASURES, ids=lambda nu: nu.describe())
def test_protocol_entry_points_answer_or_raise_typed_errors(nu, entry):
    try:
        value = ENTRY_POINTS[entry](nu)
    except CskfamError:
        assert isinstance(nu, MomentSeq)  # only a moment list lacks information
        return
    assert value is not None
