"""Tests for Affinity Propagation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ap_reference import ReferenceAffinityPropagation
from repro.clustering.affinity_propagation import AffinityPropagation
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ValidationError
from repro.metrics import clustering_accuracy


class TestAffinityPropagation:
    def test_recovers_separated_blobs(self, blobs_dataset):
        data, labels = blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            predicted = AffinityPropagation(
                target_n_clusters=3, random_state=0
            ).fit_predict(data)
        assert clustering_accuracy(labels, predicted) > 0.9

    def test_exemplars_are_their_own_cluster(self, blobs_dataset):
        data, _ = blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = AffinityPropagation(random_state=0).fit(data)
        for cluster_id, exemplar in enumerate(model.cluster_centers_indices_):
            assert model.labels_[exemplar] == cluster_id

    def test_every_sample_labelled(self, hard_blobs_dataset):
        data, _ = hard_blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels = AffinityPropagation(random_state=0).fit_predict(data)
        assert labels.shape == (data.shape[0],)
        assert np.all(labels >= 0)

    def test_target_n_clusters_steers_cluster_count(self, hard_blobs_dataset):
        data, _ = hard_blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = AffinityPropagation(target_n_clusters=3, random_state=0).fit(data)
        # The bisection search should land close to the target.
        assert 2 <= model.n_clusters_found_ <= 5

    def test_preference_override(self, blobs_dataset):
        data, _ = blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # A very negative preference discourages exemplars -> few clusters.
            few = AffinityPropagation(preference=-1e6, random_state=0).fit(data)
            many = AffinityPropagation(preference=-1e-3, random_state=0).fit(data)
        assert few.n_clusters_found_ <= many.n_clusters_found_

    def test_reproducible_with_seed(self, blobs_dataset):
        data, _ = blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = AffinityPropagation(random_state=5).fit_predict(data)
            b = AffinityPropagation(random_state=5).fit_predict(data)
        np.testing.assert_array_equal(a, b)

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            AffinityPropagation().fit(np.zeros((1, 3)))

    def test_invalid_damping(self):
        with pytest.raises(ValidationError):
            AffinityPropagation(damping=0.3)
        with pytest.raises(ValidationError):
            AffinityPropagation(damping=1.0)

    def test_name(self):
        assert AffinityPropagation().name == "AP"

    def test_two_obvious_groups(self):
        rng = np.random.default_rng(0)
        data = np.vstack(
            [rng.normal(0, 0.1, size=(15, 2)), rng.normal(8, 0.1, size=(15, 2))]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels = AffinityPropagation(random_state=0).fit_predict(data)
        # Samples within each tight group should share a label.
        assert len(set(labels[:15])) == 1
        assert len(set(labels[15:])) == 1
        assert labels[0] != labels[-1]


class TestDampingSchedule:
    """Adaptive damping satellite: oscillation raises damping instead of
    silently burning max_iter."""

    def test_constant_schedule_keeps_damping(self, blobs_dataset):
        data, _ = blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = AffinityPropagation(damping=0.7, random_state=0).fit(data)
        assert model.final_damping_ == 0.7

    def test_invalid_schedule(self):
        with pytest.raises(ValidationError):
            AffinityPropagation(damping_schedule="linear")
        with pytest.raises(ValidationError):
            AffinityPropagation(damping_increment=0.0)
        with pytest.raises(ValidationError):
            AffinityPropagation(max_damping=1.5)

    def test_adaptive_never_exceeds_ceiling(self, hard_blobs_dataset):
        data, _ = hard_blobs_dataset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = AffinityPropagation(
                damping=0.5,
                damping_schedule="adaptive",
                max_damping=0.9,
                max_iter=80,
                random_state=0,
            ).fit(data)
        assert 0.5 <= model.final_damping_ <= 0.9

    def test_adaptive_raises_damping_on_oscillation(self):
        # A duplicated grid of points produces heavily degenerate
        # similarities — the classic oscillation trigger for AP.
        base = np.mgrid[0:4, 0:4].reshape(2, -1).T.astype(float)
        data = np.vstack([base, base, base])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            constant = AffinityPropagation(
                damping=0.5, max_iter=120, random_state=0
            ).fit(data)
            adaptive = AffinityPropagation(
                damping=0.5,
                damping_schedule="adaptive",
                max_iter=120,
                random_state=0,
            ).fit(data)
        assert constant.final_damping_ == 0.5
        assert adaptive.final_damping_ > 0.5

    def test_nonconvergence_warning_names_max_iter(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3))
        from repro.exceptions import ConvergenceWarning

        with pytest.warns(ConvergenceWarning, match="max_iter"):
            AffinityPropagation(
                damping=0.5, max_iter=3, convergence_iter=2, random_state=0
            ).fit(data)

    def test_adaptive_warning_mentions_schedule(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3))
        from repro.exceptions import ConvergenceWarning

        with pytest.warns(ConvergenceWarning, match="adaptive damping"):
            AffinityPropagation(
                damping=0.5,
                damping_schedule="adaptive",
                max_iter=6,
                convergence_iter=2,
                random_state=0,
            ).fit(data)


def _duplicated_grid() -> np.ndarray:
    # Heavily degenerate similarities: at damping 0.5 every bisection probe
    # oscillates to max_iter, the pattern of the BCW/SH paper inputs.
    base = np.mgrid[0:4, 0:4].reshape(2, -1).T.astype(float)
    return np.vstack([base, base, base])


_GOLDEN_DATA = {
    "hard": lambda: make_blobs(
        120, 8, 3, cluster_std=2.0, center_spread=3.0, random_state=11
    )[0],
    "overlap": lambda: make_blobs(
        120, 6, 3, cluster_std=2.0, center_spread=3.0, random_state=0
    )[0],
    "grid": _duplicated_grid,
}

#: (data, parameters, expected to converge)
_GOLDEN_CASES = [
    ("hard", {"target_n_clusters": 2}, True),
    ("hard", {"target_n_clusters": 3}, True),
    ("hard", {}, True),
    ("hard", {"preference": -20.0}, True),
    ("hard", {"damping": 0.5, "damping_schedule": "adaptive"}, True),
    ("hard", {"target_n_clusters": 3, "damping_schedule": "adaptive"}, True),
    # Very negative preferences oscillate to max_iter with every point an
    # exemplar ("hard") or none ("overlap", the argmax fallback).
    ("hard", {"preference": -1e6}, False),
    ("overlap", {"preference": -1e6}, False),
    ("grid", {"target_n_clusters": 2, "damping": 0.5, "max_iter": 120}, False),
]

_FITTED_ARRAYS = ("labels_", "cluster_centers_indices_")
_FITTED_SCALARS = ("n_iter_", "converged_", "final_damping_", "preference_")


def _fit_both(data, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = ReferenceAffinityPropagation(random_state=0, **params).fit(data)
        fast = AffinityPropagation(random_state=0, **params).fit(data)
    return reference, fast


def _count_message_passing(monkeypatch, cls) -> list[int]:
    calls = [0]
    original = cls._message_passing

    def counting(self, similarity, preference):
        calls[0] += 1
        return original(self, similarity, preference)

    monkeypatch.setattr(cls, "_message_passing", counting)
    return calls


class TestMatchesReference:
    """The in-place message passing reproduces the allocating reference
    (``ap_reference.py``) exactly: no tolerances anywhere."""

    @pytest.mark.parametrize(
        "name, params, converges",
        _GOLDEN_CASES,
        ids=[f"{name}-{params}" for name, params, _ in _GOLDEN_CASES],
    )
    def test_fitted_attributes_identical(self, name, params, converges):
        data = _GOLDEN_DATA[name]()
        reference, fast = _fit_both(data, params)
        assert reference.converged_ is converges
        if not converges:
            assert reference.n_iter_ == reference.max_iter
        for attribute in _FITTED_ARRAYS:
            assert np.array_equal(getattr(fast, attribute), getattr(reference, attribute))
        for attribute in _FITTED_SCALARS:
            assert getattr(fast, attribute) == getattr(reference, attribute)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("hard", {"target_n_clusters": 2}),
            ("hard", {"target_n_clusters": 5}),
            ("grid", {"target_n_clusters": 2, "damping": 0.5, "max_iter": 120}),
        ],
    )
    def test_one_run_per_bisection_probe(self, monkeypatch, name, params):
        data = _GOLDEN_DATA[name]()
        fast_calls = _count_message_passing(monkeypatch, AffinityPropagation)
        reference_calls = _count_message_passing(
            monkeypatch, ReferenceAffinityPropagation
        )
        reference, fast = _fit_both(data, params)
        # The reference runs every probe, then the best one again.
        assert 1 <= fast_calls[0] <= 6
        assert fast_calls[0] == reference_calls[0] - 1
        assert np.array_equal(fast.labels_, reference.labels_)

    @pytest.mark.parametrize("params", [{}, {"preference": -1e6}])
    def test_one_run_without_target(self, monkeypatch, params):
        calls = _count_message_passing(monkeypatch, AffinityPropagation)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            AffinityPropagation(random_state=0, **params).fit(_GOLDEN_DATA["hard"]())
        assert calls[0] == 1

    def test_nonconverging_target_warns_once_like_reference(self):
        from repro.exceptions import ConvergenceWarning

        data = _GOLDEN_DATA["grid"]()
        params = {"target_n_clusters": 2, "damping": 0.5, "max_iter": 120}
        messages = []
        for cls in (ReferenceAffinityPropagation, AffinityPropagation):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = cls(random_state=0, **params).fit(data)
            assert not model.converged_
            assert [w.category for w in caught] == [ConvergenceWarning]
            messages.append(str(caught[0].message))
        assert messages[0] == messages[1]
        assert "max_iter=120" in messages[1]
        assert "damping_schedule='adaptive'" in messages[1]

    def test_converging_target_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = AffinityPropagation(target_n_clusters=3, random_state=0).fit(
                _GOLDEN_DATA["hard"]()
            )
        assert model.converged_
        assert caught == []
