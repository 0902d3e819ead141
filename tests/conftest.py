import pytest

from lietriples import catalog

ENTRY_NAMES = ("group", "group-compact", "lorentzian-2", "lorentzian-3", "g2")


@pytest.fixture(scope="session")
def built_catalog():
    """All shipped entries, built once per session; each descriptor passes
    its checks and has a Cartan split of l."""
    out = {}
    for name in ENTRY_NAMES:
        bt = catalog.get(name)
        bt.descriptor.validate()
        bt.descriptor.cartan_split
        out[name] = bt
    return out


@pytest.fixture(scope="session")
def embeddings(built_catalog):
    """Embedding reports (coefficients + residual flags) per entry."""
    return {name: bt.embedding_report() for name, bt in built_catalog.items()}
