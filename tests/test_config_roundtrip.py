"""Dict round-trip contract for every :class:`ConfigBase` subclass.

Every config in the library must survive ``from_dict(to_dict())``
losslessly — including :class:`RuntimeConfig`, which nests both an
:class:`ObsConfig` and a :class:`RecoveryConfig` — and must reject
unknown keys loudly instead of silently dropping them (a misspelled
knob in a persisted checkpoint or a YAML experiment file should fail
the load, not change behavior).
"""

from __future__ import annotations

import pytest

from repro.core.response import Discipline
from repro.faults.supervisor import SupervisorConfig
from repro.obs import ObsConfig, ObsError
from repro.recovery import RecoveryConfig
from repro.runtime.admission import AdmissionConfig
from repro.runtime.loop import RuntimeConfig
from repro.runtime.policies import RoutingConfig

#: (config class, a non-default instance exercising nested/tuple/enum fields)
CASES = [
    (ObsConfig, ObsConfig(enabled=True, trace_capacity=128, profile=True)),
    (RoutingConfig, RoutingConfig(policy="pod", d=4)),
    (
        RecoveryConfig,
        RecoveryConfig(
            enabled=True,
            directory="/tmp/rec",
            checkpoint_every=2,
            keep_checkpoints=5,
            fsync=True,
            verify_replay=False,
        ),
    ),
    (
        SupervisorConfig,
        SupervisorConfig(
            fallback_methods=("kkt", "bisection"),
            retries=2,
            breaker_threshold=5,
        ),
    ),
    (
        AdmissionConfig,
        AdmissionConfig(
            classes=4,
            policy="codel",
            bucket_depth=16.0,
            reserve=0.25,
            target_delay=2.5,
            min_dwell=3.0,
        ),
    ),
    (
        RuntimeConfig,
        RuntimeConfig(
            discipline=Discipline.PRIORITY,
            method="bisection",
            drift_threshold=0.2,
            fallback_methods=("kkt",),
            obs=ObsConfig(enabled=True, metrics=False),
            recovery=RecoveryConfig(enabled=True, directory="x", fsync=True),
            routing=RoutingConfig(policy="jiq"),
            admission=AdmissionConfig(classes=2, policy="token-bucket"),
        ),
    ),
]

IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls,cfg", CASES, ids=IDS)
def test_default_round_trip(cls, cfg):
    default = cls()
    assert cls.from_dict(default.to_dict()) == default


@pytest.mark.parametrize("cls,cfg", CASES, ids=IDS)
def test_non_default_round_trip(cls, cfg):
    rebuilt = cls.from_dict(cfg.to_dict())
    assert rebuilt == cfg
    # And the round trip is idempotent at the dict level too.
    assert rebuilt.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("cls,cfg", CASES, ids=IDS)
def test_unknown_key_rejected(cls, cfg):
    data = cfg.to_dict()
    data["definitely_not_a_field"] = 1
    with pytest.raises(ObsError, match="unknown"):
        cls.from_dict(data)


def test_nested_configs_rebuild_as_configs():
    cfg = RuntimeConfig(
        obs=ObsConfig(enabled=True),
        recovery=RecoveryConfig(enabled=True, directory="d"),
    )
    data = cfg.to_dict()
    assert isinstance(data["obs"], dict)
    assert isinstance(data["recovery"], dict)
    rebuilt = RuntimeConfig.from_dict(data)
    assert isinstance(rebuilt.obs, ObsConfig)
    assert isinstance(rebuilt.recovery, RecoveryConfig)
    assert rebuilt.recovery.directory == "d"


def test_routing_round_trips():
    assert RuntimeConfig.from_dict(RuntimeConfig().to_dict()).routing == RoutingConfig()
    cfg = RuntimeConfig(routing=RoutingConfig(policy="pod", d=3))
    rebuilt = RuntimeConfig.from_dict(cfg.to_dict())
    assert isinstance(rebuilt.routing, RoutingConfig)
    assert rebuilt.routing.d == 3


def test_optional_admission_arm_round_trips():
    # admission is `AdmissionConfig | None`: both arms must survive.
    assert RuntimeConfig.from_dict(RuntimeConfig().to_dict()).admission is None
    cfg = RuntimeConfig(admission=AdmissionConfig(classes=5, reserve=0.75))
    rebuilt = RuntimeConfig.from_dict(cfg.to_dict())
    assert isinstance(rebuilt.admission, AdmissionConfig)
    assert rebuilt.admission.classes == 5
    assert rebuilt.admission.reserve == 0.75


def test_unknown_key_in_nested_config_rejected():
    data = RuntimeConfig().to_dict()
    data["recovery"]["bogus"] = True
    with pytest.raises(ObsError, match="unknown"):
        RuntimeConfig.from_dict(data)


def test_non_mapping_rejected():
    with pytest.raises(ObsError, match="mapping"):
        RecoveryConfig.from_dict([("enabled", True)])
