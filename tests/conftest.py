import pytest

from convlab.core import Classifier


@pytest.fixture(scope="session")
def toy_classifiers():
    all0 = Classifier.from_mapping("all-0", {"a": 0, "b": 0})
    all1 = Classifier.from_mapping("all-1", {"a": 1, "b": 1})
    ident = Classifier.from_mapping("identity", {"a": 1, "b": 0})
    return all0, all1, ident


@pytest.fixture(scope="session")
def toy_task(toy_classifiers):
    # binary_classification's keyword arguments: three example laws with
    # distinct unique risk minimizers (gaps >= 0.1): a noise-free one, a noisy
    # one favoring identity, and one favoring all-0.
    return dict(
        features=["a", "b"],
        classifiers=toy_classifiers,
        distributions=[
            {("a", 1): "0.5", ("b", 0): "0.5"},
            {("a", 1): "0.45", ("a", 0): "0.05", ("b", 0): "0.45", ("b", 1): "0.05"},
            {("a", 0): "0.4", ("b", 0): "0.4", ("a", 1): "0.1", ("b", 1): "0.1"},
        ],
    )
