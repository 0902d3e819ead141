"""The shipped split G2 table is exactly what its generator derives."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_g2_table_regenerates_byte_for_byte():
    path = ROOT / "tools" / "generate_g2_tables.py"
    spec = importlib.util.spec_from_file_location("generate_g2_tables", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shipped = ROOT / "src" / "lietriples" / "_g2data.py"
    assert tool.render().encode() == shipped.read_bytes()
