import pytest

from lrchain.geometry import ChainGeometry, SiteSupport, SupportError, site_distance


class TestSiteSupport:
    def test_basic_fields(self):
        s = SiteSupport(-2, 3)
        assert s.lo == -2 and s.hi == 3
        assert s.n_sites == 6
        assert s.diam == 5
        assert list(range(s.lo, s.lo + s.n_sites)) == [-2, -1, 0, 1, 2, 3]

    def test_single(self):
        s = SiteSupport.single(4)
        assert (s.lo, s.hi) == (4, 4)
        assert s.n_sites == 1 and s.diam == 0

    def test_rejects_inverted_interval(self):
        with pytest.raises(SupportError):
            SiteSupport(2, 1)

    def test_contains(self):
        outer = SiteSupport(-3, 3)
        assert outer.contains(SiteSupport(-3, 3))
        assert outer.contains(SiteSupport(0, 2))
        assert not outer.contains(SiteSupport(-4, 0))
        assert not outer.contains(SiteSupport(2, 4))

    def test_distance_against_pairwise_minimum(self):
        # oracle: smallest |i - j| over site pairs, 0 when the intervals meet
        cases = [(-5, -2, 1, 4), (0, 0, 0, 0), (-1, 2, 2, 5), (3, 7, -2, 1), (-3, 1, -1, 4)]
        for alo, ahi, blo, bhi in cases:
            a, b = SiteSupport(alo, ahi), SiteSupport(blo, bhi)
            oracle = min(abs(i - j) for i in range(alo, ahi + 1) for j in range(blo, bhi + 1))
            assert a.distance(b) == oracle
            assert b.distance(a) == oracle

    def test_site_distance_matches_single_support(self):
        s = SiteSupport(-1, 2)
        for x in range(-6, 7):
            assert site_distance(x, s) == SiteSupport.single(x).distance(s)


class TestChainGeometry:
    def test_dimensions(self):
        g = ChainGeometry(3, 2)
        assert g.n_sites == 7
        assert g.total_dim == 2**7
        assert g.full_support == SiteSupport(-3, 3)
        assert g.dim_of(SiteSupport(-1, 1)) == 8

    def test_qutrit_chain(self):
        g = ChainGeometry(1, 3)
        assert g.total_dim == 27

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChainGeometry(0, 2)
        with pytest.raises(ValueError):
            ChainGeometry(2, 1)

    def test_check_site(self):
        g = ChainGeometry(2, 2)
        g.check_site(-2)
        g.check_site(2)
        with pytest.raises(SupportError):
            g.check_site(3)
        with pytest.raises(SupportError):
            g.check_site(-3)

    def test_check_support(self):
        g = ChainGeometry(2, 2)
        g.check_support(SiteSupport(-2, 2))
        with pytest.raises(SupportError):
            g.check_support(SiteSupport(-3, 0))
        with pytest.raises(SupportError):
            g.check_support(SiteSupport(0, 3))
