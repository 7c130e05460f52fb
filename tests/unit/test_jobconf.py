"""Unit tests for JobConf."""

import pytest

from repro.engine import JobConf
from repro.engine.jobconf import (
    DYNAMIC_INPUT_PROVIDER,
    DYNAMIC_JOB,
    DYNAMIC_JOB_POLICY,
)
from repro.errors import JobConfError


def conf(**kwargs):
    defaults = {"name": "j", "input_path": "/in"}
    defaults.update(kwargs)
    return JobConf(**defaults)


class TestParams:
    def test_set_stringifies(self):
        c = conf()
        c.set("k", 10)
        assert c.get("k") == "10"

    def test_set_chains(self):
        c = conf().set("a", 1).set("b", 2)
        assert c.get("a") == "1"
        assert c.get("b") == "2"

    def test_get_default(self):
        assert conf().get("missing", "d") == "d"
        assert conf().get("missing") is None

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("TRUE", True), ("1", True), ("yes", True),
        ("false", False), ("0", False), ("no", False), ("", False),
    ])
    def test_get_bool(self, raw, expected):
        c = conf()
        c.set("flag", raw)
        assert c.get_bool("flag") is expected

    def test_get_bool_default(self):
        assert conf().get_bool("missing") is False
        assert conf().get_bool("missing", default=True) is True

    def test_get_bool_garbage_rejected(self):
        c = conf()
        c.set("flag", "maybe")
        with pytest.raises(JobConfError):
            c.get_bool("flag")

    def test_get_int(self):
        c = conf()
        c.set("n", 42)
        assert c.get_int("n") == 42
        assert c.get_int("missing", 7) == 7

    def test_get_int_garbage_rejected(self):
        c = conf()
        c.set("n", "lots")
        with pytest.raises(JobConfError):
            c.get_int("n")


class TestDynamicParams:
    def test_static_by_default(self):
        assert conf().is_dynamic is False

    def test_dynamic_accessors(self):
        c = conf()
        c.set(DYNAMIC_JOB, "true")
        c.set(DYNAMIC_JOB_POLICY, "LA")
        c.set(DYNAMIC_INPUT_PROVIDER, "sampling")
        assert c.is_dynamic
        assert c.policy_name == "LA"
        assert c.input_provider_name == "sampling"
        c.validate_dynamic()

    def test_validate_dynamic_requires_policy(self):
        c = conf()
        c.set(DYNAMIC_JOB, "true")
        c.set(DYNAMIC_INPUT_PROVIDER, "sampling")
        with pytest.raises(JobConfError):
            c.validate_dynamic()

    def test_validate_dynamic_requires_provider(self):
        c = conf()
        c.set(DYNAMIC_JOB, "true")
        c.set(DYNAMIC_JOB_POLICY, "LA")
        with pytest.raises(JobConfError):
            c.validate_dynamic()

    def test_validate_static_is_noop(self):
        conf().validate_dynamic()


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(JobConfError):
            JobConf(name="", input_path="/in")

    def test_empty_input_rejected(self):
        with pytest.raises(JobConfError):
            JobConf(name="j", input_path="")

    def test_negative_reducers_rejected(self):
        with pytest.raises(JobConfError):
            conf(num_reduce_tasks=-1)

    def test_copy_clones_params(self):
        original = conf()
        original.set("k", "v")
        clone = original.copy()
        clone.set("k", "other")
        assert original.get("k") == "v"
