import pytest

from tourney_codes import enumerate_tournaments, paley_tournament, parse_line

# The four isomorphism classes on 4 vertices, in the order whose embedding
# dimensions are 3, 2, 3, 2.  test_tournament re-derives these lines from
# the explicit adjacency matrices.
ORDER4_LINES = ("4:111111", "4:111010", "4:011101", "4:011011")


# The report schema, built here from the records' fields and not by the
# CLI's own result builders, so that tests of the CLI's output check them.
def spectrum_rows(spec):
    """A Spectrum's lines as the list of dicts a report holds."""
    return [{"tau": float(l.tau), "mult": int(l.mult), "beta": float(l.beta)}
            for l in spec.lines]


def analysis_dict(report):
    """The result an analyze report gives, before any "tightness"."""
    tc = report.type_class
    out = {"line": report.tournament.line(), "n": report.n, "type": int(tc.variant),
           "rep_dim": report.rep_dim,
           "alpha": {"re": float(report.alpha.real), "im": float(report.alpha.imag)},
           "spectrum": spectrum_rows(report.spectrum)}
    for key, value in (("c1", tc.c1), ("c2", tc.c2)):
        if value is not None:
            out[key] = float(value)
    return out


def tightness_dict(t):
    """The "tightness" dict of a TightnessReport."""
    cert = {"kind": t.certificate_kind}
    if t.drt_params is not None:
        p = t.drt_params
        cert["params"] = [p.n, p.out_degree, p.common_out_neighbors]
    if t.block_form is not None:
        cert.update(k=t.block_form.k, l=t.block_form.l,
                    partition=[list(part) for part in t.block_form.partition])
    return {"n": t.n, "rep_dim": t.rep_dim, "bound": t.bound, "is_tight": t.is_tight,
            "certificate": cert}


@pytest.fixture
def cycle3():
    return parse_line("3:101")


@pytest.fixture
def transitive3():
    return parse_line("3:111")


@pytest.fixture
def two_vertex():
    return parse_line("2:1")


@pytest.fixture
def order4():
    return [parse_line(line) for line in ORDER4_LINES]


@pytest.fixture(scope="session")
def paley3():
    return paley_tournament(3)


@pytest.fixture(scope="session")
def paley7():
    return paley_tournament(7)


@pytest.fixture(scope="session")
def paley11():
    return paley_tournament(11)


@pytest.fixture(scope="session")
def classes_by_order():
    """All isomorphism classes for n = 2..7, keyed by n."""
    return {n: enumerate_tournaments(n) for n in range(2, 8)}
