"""The plain loops of energy_spectrum, _ladder_residuals and profile against
the iterator formulas they replaced, compared bit for bit (float.hex)."""

import math
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qposc import (DeformationPoint, DomainError, ExpFamily, FockRep, LogFamily,
                   PowerFamily, energy_iter, energy_spectrum, family_p, fock_rep,
                   fock_residuals, profile)
from qposc.core import _ladder_residuals, _superdiagonal


def hexes(values):
    return [x.hex() for x in values]


def iterator_ladder_residuals(s, q, p):
    # the two-generator formula that _ladder_residuals replaced
    aad = [x * x for x in s]
    ada = [0.0, *aad[:-1]]
    r1 = max(abs(aa - q * ad - p ** n) for n, (aa, ad) in enumerate(zip(aad, ada)))
    r2 = max(abs(aa - p * ad - q ** n) for n, (aa, ad) in enumerate(zip(aad, ada)))
    return r1, r2


def scan_violations(energies, peak, n_max):
    # the post-peak generator scan that profile's compress pass replaced
    return tuple(n + 1 for n in range(peak, n_max) if energies[n + 1] >= energies[n])


# the axes, the undeformed edge, the smallest subnormal and the largest double below 1
EDGES = (0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53)
unit = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))
points = st.one_of(
    st.tuples(unit, unit).filter(lambda qp: qp != (0.0, 0.0)),
    unit.filter(bool).map(lambda x: (x, x)),  # q == p
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qp=points, n=st.integers(0, 3000))
@example(qp=(0.9, 0.95), n=1000)  # q < p
@example(qp=(5e-324, 1.0), n=3000)
@example(qp=(1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53), n=0)
def test_energy_spectrum_is_energy_iter_bit_for_bit(qp, n):
    pt = DeformationPoint(*qp)
    assert hexes(energy_spectrum(n, pt)) == hexes(islice(energy_iter(pt), n + 1))


class TestLadderResiduals:
    POINTS = [(0.97, 0.9), (0.9, 0.97), (0.5, 0.5), (1.0, 1.0), (0.0, 1.0),
              (1.0, 0.0), (0.3, 1.0), (5e-324, 0.7), (1.0 - 2.0 ** -53, 0.99)]

    def test_dims_2_to_600_match_the_iterator_formula(self):
        for q, p in self.POINTS:
            s = _superdiagonal(601, DeformationPoint(q, p))
            for dim in range(2, 601):
                assert (hexes(_ladder_residuals(s[:dim - 1], q, p))
                        == hexes(iterator_ladder_residuals(s[:dim - 1], q, p))), (q, p, dim)

    def test_infinite_entries_match_the_iterator_formula(self):
        # a hand-built FockRep can carry them past fock_residuals' stray check
        s = _superdiagonal(8, DeformationPoint(0.5, 0.25))
        for at in range(len(s)):
            for bad in (math.inf, -math.inf):
                t = s[:at] + [bad] + s[at + 1:]
                assert (hexes(_ladder_residuals(t, 0.5, 0.25))
                        == hexes(iterator_ladder_residuals(t, 0.5, 0.25))), (at, bad)

    def test_a_nan_on_the_superdiagonal_is_a_stray_entry(self):
        # so no NaN reaches _ladder_residuals, whose maxima start at 0.0
        pt = DeformationPoint(0.5, 0.25)
        rep = fock_rep(6, pt)
        for at in range(5):
            a = rep.a_matrix.copy()
            a[at, at + 1] = math.nan
            with pytest.raises(DomainError, match="stray"):
                fock_residuals(FockRep(6, a, a.T.copy(), rep.n_matrix), pt)


class TestProfileViolations:
    def check(self, fam, q, n_max):
        prof = profile(fam, q, n_max)
        pt = DeformationPoint(q, family_p(fam, q))
        assert hexes(prof.energies) == hexes(islice(energy_iter(pt), n_max + 1))
        assert prof.decay_violations == scan_violations(prof.energies, prof.peak_index, n_max)
        return prof

    def test_p_one_plateaus_have_violations(self):
        # power:0 has p = 1: the rise stalls in floats, then the plateau
        for q in (0.0, 0.5, 0.9):
            assert self.check(PowerFamily(0), q, 800).decay_violations

    def test_peak_at_the_end_has_no_violations(self):
        # at n_max = 10 the peak is the last level, so both compared slices are empty
        prof = self.check(PowerFamily(2.5), 0.97, 10)
        assert (prof.peak_index, prof.decay_violations) == (10, ())

    def test_seeded_members_match_the_scan(self):
        rng = random.Random(2025)
        for _ in range(200):
            fam = rng.choice([PowerFamily(rng.uniform(0.0, 4.0)),
                              ExpFamily(rng.uniform(0.05, 3.0)),
                              LogFamily(rng.uniform(0.5, 3.0))])
            q = rng.uniform(max(fam.domain_low, 0.0), 0.999)
            self.check(fam, q, rng.randrange(2, 800))
