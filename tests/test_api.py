"""The package's public names: each submodule's ``__all__``, re-exported once."""

import copy
import dataclasses
import pickle

import pytest

import effdof
from effdof import applications, cli, errors, estimators, montecarlo

PUBLIC = {
    "__version__",
    # errors
    "DegenerateComponents",
    # estimators
    "ComponentSet", "DfEstimate", "boardman_df", "corrected_df",
    "design_effect", "kish_neff", "satterthwaite_df",
    # applications
    "MiVariance", "TwoSampleSummary", "jackknife_df",
    "mi_total_df", "mi_total_variance", "welch_corrected_df", "welch_satterthwaite_df",
    # montecarlo
    "GridResult", "SimCell", "SimConfig", "run_grid_detailed",
}


def test_public_names_are_exactly_the_paper_and_cli_surface():
    assert len(effdof.__all__) == len(set(effdof.__all__)) == 20
    assert set(effdof.__all__) == PUBLIC


def test_one_exception_type_per_failure_kind():
    # degenerate input has the one public type; a bad entry's FieldError stays
    # in effdof.errors, unexported, and the CLI's parse error is the CLI's own
    assert errors.__all__ == ["DegenerateComponents"]
    assert "FieldError" not in effdof.__all__
    assert issubclass(cli.ParseError, ValueError)
    assert not hasattr(errors, "ParseError")
    with pytest.raises(AttributeError):
        effdof.ParseError  # noqa: B018


def test_every_public_name_resolves_to_its_submodule_object():
    for name in effdof.__all__:
        getattr(effdof, name)
    for module in (errors, estimators, applications, montecarlo):
        for name in module.__all__:
            assert getattr(effdof, name) is getattr(module, name), name
    assert effdof.__version__ == "0.1.0"



def test_simulation_names_are_listed_without_loading_them():
    assert set(montecarlo.__all__) <= set(effdof.__all__)
    assert set(montecarlo.__all__) | {"montecarlo"} <= set(dir(effdof))
    assert set(effdof.__all__) <= set(dir(effdof))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_grid'"):
        effdof.run_grid  # noqa: B018
    assert not hasattr(effdof, "nonexistent")


RECORDS = [
    (estimators.ComponentSet, ((1.0, 2.0), (1.0, 0.5), (4.0, 4.0)),
     "ComponentSet(weights=(1.0, 2.0), variances=(1.0, 0.5), dofs=(4.0, 4.0))", (8.0, 8.0)),
    (estimators.DfEstimate, ("corrected", 6.0, 4.0, 0.5),
     "DfEstimate(variant='corrected', value=6.0, numerator=4.0, denominator=0.5)", 1.0),
    (applications.MiVariance, (1.0, 100.0, 0.2, 5),
     "MiVariance(sampling_variance=1.0, sampling_dof=100.0, imputation_variance=0.2, "
     "num_imputations=5)", 10),
    (applications.TwoSampleSummary, (10, 12, 1.0, 2.0),
     "TwoSampleSummary(n1=10, n2=12, s1_sq=1.0, s2_sq=2.0)", 4.0),
]


@pytest.mark.parametrize("cls,args,text,other_last", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, args, text, other_last):
    record = cls(*args)
    names = cls.__match_args__  # the public slots; a "_" slot is private state
    assert names and not any(name.startswith("_") for name in names)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = cls(**dict(zip(names, args)))  # keyword construction, fields in order
    assert twin == record and hash(twin) == hash(record)
    assert twin != cls(*args[:-1], other_last)
    assert record != tuple(args)
    assert copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record
    # the dataclass field protocol still works, loading dataclasses only when asked
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    assert dataclasses.asdict(record) == {n: getattr(record, n) for n in names}
    changed = dataclasses.replace(record, **{names[-1]: other_last})
    assert changed == cls(*args[:-1], other_last)
    match record:
        case cls(first):
            assert first == getattr(record, names[0])


def test_component_set_private_state_stays_out_of_the_record_protocol():
    cs = estimators.ComponentSet((1.0, 2.0), (1.0, 0.5), (4.0, 4.0))
    private = [name for name in cs.__slots__ if name.startswith("_")]
    assert private  # the ratio's sums and the index of a single positive component
    payload = cs.__reduce__()[1]
    assert payload == ((1.0, 2.0), (1.0, 0.5), (4.0, 4.0))
    for name in private:
        assert name not in repr(cs)
        assert name not in {f.name for f in dataclasses.fields(cs)}
        assert name not in dataclasses.asdict(cs)
        with pytest.raises(AttributeError):
            setattr(cs, name, getattr(cs, name))
    # equality and hash ignore the private sums, before and after an estimate
    twin = estimators.ComponentSet((1.0, 2.0), (1.0, 0.5), (4.0, 4.0))
    estimators.corrected_df(cs)
    assert cs == twin and hash(cs) == hash(twin)
    assert repr(cs) == repr(twin)
    assert pickle.dumps(cs) == pickle.dumps(twin)
