"""The package's value records, and what ``import planarloc`` provides.

Every record compares, hashes and prints by its fields, refuses
assignment and deletion (``ResultDocument`` alone is mutable and
unhashable), and survives pickle and ``copy.deepcopy``.  The package
loads a module on the first read of one of its names.
"""

import copy
import importlib
import json
import pickle
import pkgutil

import numpy as np
import pytest

import planarloc
from conftest import run_python
from planarloc import (
    ChebySolveResult,
    Circle,
    ConvexOrder,
    FtCase,
    FtPoint,
    FtSegment,
    FtSolveResult,
    Line,
    NonConvex,
    OracleSettings,
    OrthogonalityType,
    SupportCertificate,
    WeightedConfiguration,
    solve_ft_n,
)
from planarloc._record import Record
from planarloc.documents import ProblemFile, ResultDocument


def _cert():
    return SupportCertificate("l1", (1 + 0j, -1 + 0j), 0.0, True, 0j, 1.0, 1e-10)


def _config():
    return WeightedConfiguration((0j, 1 + 0j, 1j), (1.0, 2.0, 3.0))


# a factory for each record, its repr, and the same record built by keywords
RECORDS = {
    "SupportCertificate": (
        _cert,
        "SupportCertificate(space='l1', d=((1+0j), (-1+0j)), residual=0.0, passed=True, "
        "forced=0j, slack=1.0, tol=1e-10, t=None, support=None, gamma=None)",
        lambda: SupportCertificate(
            space="l1", d=(1 + 0j, -1 + 0j), residual=0.0, passed=True, forced=0j,
            slack=1.0, tol=1e-10, t=None, support=None, gamma=None,
        ),
    ),
    "OrthogonalityType": (
        lambda: OrthogonalityType("II", (0, 1), (1 + 0j, -1 + 0j), (0.5, 0.5), 2.0),
        "OrthogonalityType(tag='II', slots=(0, 1), directions=((1+0j), (-1+0j)), "
        "mixing=(0.5, 0.5), scale=2.0, n=3)",
        lambda: OrthogonalityType(
            tag="II", slots=(0, 1), directions=(1 + 0j, -1 + 0j), mixing=(0.5, 0.5),
            scale=2.0, n=3,
        ),
    ),
    "ChebySolveResult": (
        lambda: ChebySolveResult(0.5 + 0j, 0.5, (0, 1), (0.5, 0.5), (0.5, 0.5), _cert()),
        "ChebySolveResult(center=(0.5+0j), radius=0.5, support=(0, 1), t=(0.5, 0.5), "
        "hull_coefficients=(0.5, 0.5), certificate=SupportCertificate(space='l1', "
        "d=((1+0j), (-1+0j)), residual=0.0, passed=True, forced=0j, slack=1.0, "
        "tol=1e-10, t=None, support=None, gamma=None))",
        lambda: ChebySolveResult(
            center=0.5 + 0j, radius=0.5, support=(0, 1), t=(0.5, 0.5),
            hull_coefficients=(0.5, 0.5), certificate=_cert(),
        ),
    ),
    "ProblemFile": (
        lambda: ProblemFile("fermat", _config()),
        "ProblemFile(kind='fermat', config=WeightedConfiguration(points=(0j, (1+0j), 1j), "
        "weights=(1.0, 2.0, 3.0)))",
        lambda: ProblemFile(kind="fermat", config=_config()),
    ),
    "ResultDocument": (
        lambda: ResultDocument({"kind": "fermat", "location": [0.0, 1.0]}),
        "ResultDocument(payload={'kind': 'fermat', 'location': [0.0, 1.0]})",
        lambda: ResultDocument(payload={"kind": "fermat", "location": [0.0, 1.0]}),
    ),
    "WeightedConfiguration": (
        _config,
        "WeightedConfiguration(points=(0j, (1+0j), 1j), weights=(1.0, 2.0, 3.0))",
        lambda: WeightedConfiguration(points=(0j, 1 + 0j, 1j), weights=(1.0, 2.0, 3.0)),
    ),
    "FtPoint": (lambda: FtPoint(1j), "FtPoint(location=1j)", lambda: FtPoint(location=1j)),
    "FtSegment": (
        lambda: FtSegment(0j, 1 + 0j),
        "FtSegment(start=0j, end=(1+0j))",
        lambda: FtSegment(start=0j, end=1 + 0j),
    ),
    "FtSolveResult": (
        lambda: FtSolveResult(FtPoint(1j), 2.0, FtCase.VERTEX, _cert()),
        "FtSolveResult(solution=FtPoint(location=1j), objective=2.0, case=<FtCase.VERTEX: "
        "'vertex'>, certificate=SupportCertificate(space='l1', d=((1+0j), (-1+0j)), "
        "residual=0.0, passed=True, forced=0j, slack=1.0, tol=1e-10, t=None, support=None, "
        "gamma=None), vertex=None, vertex_angle=None, angles=None)",
        lambda: FtSolveResult(
            solution=FtPoint(1j), objective=2.0, case=FtCase.VERTEX, certificate=_cert(),
            vertex=None, vertex_angle=None, angles=None,
        ),
    ),
    "Circle": (lambda: Circle(1j, 2.0), "Circle(center=1j, radius=2.0)",
               lambda: Circle(center=1j, radius=2.0)),
    "Line": (lambda: Line(0j, 1 + 0j), "Line(point=0j, direction=(1+0j))",
             lambda: Line(point=0j, direction=1 + 0j)),
    "ConvexOrder": (
        lambda: ConvexOrder((0, 1, 2, 3), ((0, 2), (1, 3))),
        "ConvexOrder(order=(0, 1, 2, 3), diagonals=((0, 2), (1, 3)))",
        lambda: ConvexOrder(order=(0, 1, 2, 3), diagonals=((0, 2), (1, 3))),
    ),
    "NonConvex": (lambda: NonConvex(2), "NonConvex(contained=2)", lambda: NonConvex(contained=2)),
    "OracleSettings": (
        OracleSettings,
        "OracleSettings(resolution=64, rounds=24)",
        lambda: OracleSettings(resolution=64, rounds=24),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_keeps_its_semantics(name):
    make, text, by_keywords = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert record == twin == by_keywords()
    # __match_args__ names every constructor argument, in order
    fields = type(record).__match_args__
    values = [getattr(record, f) for f in fields]
    assert type(record)(*values) == record == type(record)(**dict(zip(fields, values)))
    assert text.startswith(f"{name}({fields[0]}=")
    field = fields[0]
    frozen = name != "ResultDocument"
    if frozen:
        assert hash(record) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.not_a_field = None
    else:
        with pytest.raises(TypeError):
            hash(record)
        record.payload = {}
        assert record != twin
        record.payload = twin.payload
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record and repr(copied) == text


@pytest.mark.parametrize(
    "a, b",
    [
        (FtPoint(2), NonConvex(2)),
        (Circle(1j, 1.0), Line(1j, 1.0)),
        (FtPoint(1j), FtSegment(1j, 1j)),
        (NonConvex(0), ConvexOrder((0, 1, 2, 3), ((0, 2), (1, 3)))),
    ],
)
def test_records_of_two_types_never_compare_equal(a, b):
    assert type(a).__eq__(a, b) is NotImplemented and type(b).__eq__(b, a) is NotImplemented
    assert a != b and not a == b


def test_a_configuration_compares_by_its_points_and_weights_only():
    config = _config()
    assert (config.n, config.diameter, config.total_weight) == (3, 2**0.5, 6.0)
    assert "n=" not in repr(config)
    assert config == WeightedConfiguration([0, 1, 1j], [1, 2, 3])
    assert config != WeightedConfiguration((0j, 1 + 0j, 1j), (1.0, 2.0, 4.0))


def test_no_record_class_defines_getattr():
    # a __getattr__ hook slows every attribute read of its class; a field
    # built on first read is a _record.lazy_field instead
    records = set()
    for info in pkgutil.iter_modules(planarloc.__path__):
        module = importlib.import_module(f"planarloc.{info.name}")
        records.update(
            v for v in vars(module).values() if isinstance(v, type) and issubclass(v, Record)
        )
    names = {cls.__name__ for cls in records}
    assert {"WeightedConfiguration", "SupportCertificate", "ResultDocument"} <= names
    assert [cls.__name__ for cls in records if hasattr(cls, "__getattr__")] == []


def test_an_array_backed_solve_survives_pickle_and_deepcopy():
    gen = np.random.default_rng(40)
    pts = gen.uniform(-1, 1, 40) + 1j * gen.uniform(-1, 1, 40)
    config = WeightedConfiguration(pts, gen.uniform(0.5, 2.0, 40))
    result = solve_ft_n(config)
    assert "_arrays" in vars(config) and "_d" in vars(result.certificate)
    for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert copied == result and hash(copied) == hash(result)
        assert repr(copied) == repr(result)
    for copied in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
        assert copied == config and hash(copied) == hash(config)
        assert (copied.n, copied.diameter, copied.total_weight) == (
            config.n, config.diameter, config.total_weight,
        )


NAMESPACE_PROBE = """
import json, sys
import planarloc
loaded = sorted(m for m in sys.modules if m.startswith("planarloc."))
missing = [name for name in planarloc.__all__ if getattr(planarloc, name, None) is None]
namespace = {}
exec("from planarloc import *", namespace)
print(json.dumps({
    "loaded": loaded,
    "missing": missing,
    "fermat": planarloc.fermat.__name__,
    "dir": "__all__" in dir(planarloc) and set(planarloc.__all__) <= set(dir(planarloc)),
    "star": sorted(set(planarloc.__all__) - set(namespace)),
}))
"""


def test_the_package_loads_a_module_on_first_use(tmp_path):
    proc = run_python(["-c", NAMESPACE_PROBE], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": [],
        "missing": [],
        "fermat": "planarloc.fermat",
        "dir": True,
        "star": [],
    }
