"""ServiceConfig / TenantSpec: validation and JSON round trips."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.service.config import ServiceConfig, TenantSpec, validate_tenant_name

from tests.service.conftest import tenant_spec_for, tiny_dataset


def make_config(tmp_path, **overrides):
    dataset = tiny_dataset()
    defaults = dict(
        tenants=(tenant_spec_for("alpha", dataset),),
        checkpoint_dir=tmp_path / "ckpt",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestTenantNames:
    def test_legal_names(self):
        for name in ("a", "tenant-1", "ccd.trouble", "A_b-c.9"):
            assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", ".hidden", "-x", "a/b", "a b", "über", "a" * 200]
    )
    def test_illegal_names_rejected(self, name):
        with pytest.raises(ConfigurationError):
            validate_tenant_name(name)

    def test_spec_validates_name(self):
        dataset = tiny_dataset()
        with pytest.raises(ConfigurationError):
            tenant_spec_for("bad/name", dataset)

    def test_spec_validates_algorithm(self):
        """An unknown algorithm fails when the spec loads, not at activation."""
        dataset = tiny_dataset()
        with pytest.raises(ConfigurationError, match=r"'nope'.*\['ada', 'sta'\]"):
            tenant_spec_for("x", dataset, algorithm="nope")
        doc = tenant_spec_for("x", dataset).to_dict()
        doc["algorithm"] = "nope"
        with pytest.raises(ConfigurationError, match="nope"):
            TenantSpec.from_dict(doc)
        assert tenant_spec_for("x", dataset, algorithm="sta").algorithm == "sta"


class TestServiceConfig:
    def test_single_tenant_becomes_default(self, tmp_path):
        config = make_config(tmp_path)
        assert config.default_tenant == "alpha"

    def test_multi_tenant_has_no_implicit_default(self, tmp_path):
        dataset = tiny_dataset()
        config = make_config(
            tmp_path,
            tenants=(
                tenant_spec_for("alpha", dataset),
                tenant_spec_for("beta", dataset),
            ),
        )
        assert config.default_tenant is None

    def test_unknown_default_tenant_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="default_tenant"):
            make_config(tmp_path, default_tenant="nope")

    def test_duplicate_tenants_rejected(self, tmp_path):
        dataset = tiny_dataset()
        with pytest.raises(ConfigurationError, match="duplicate"):
            make_config(
                tmp_path,
                tenants=(
                    tenant_spec_for("dup", dataset),
                    tenant_spec_for("dup", dataset),
                ),
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("queue_max_batches", 0),
            ("ingest_batch_size", 0),
            ("max_active_sessions", 0),
            ("checkpoint_interval", -1.0),
        ],
    )
    def test_bounds_validated(self, tmp_path, field, value):
        with pytest.raises(ConfigurationError):
            make_config(tmp_path, **{field: value})

    def test_file_round_trip(self, tmp_path):
        config = make_config(
            tmp_path,
            port=1234,
            socket_port=0,
            checkpoint_interval=5.0,
            queue_max_batches=7,
            ingest_batch_size=11,
            max_active_sessions=3,
            alert_jsonl_path=tmp_path / "alerts.jsonl",
            webhook_url="http://127.0.0.1:9/hook",
        )
        path = tmp_path / "service.json"
        config.save(path)
        loaded = ServiceConfig.from_file(path)
        assert loaded.to_dict() == config.to_dict()
        spec = loaded.tenants[0]
        assert spec.name == "alpha"
        # The tenant's detector state round-trips through the checkpoint
        # serializers, so a rebuilt session starts identically.
        session = spec.build_session()
        assert session.config == config.tenants[0].config
        assert sorted(session.tree.leaf_paths()) == sorted(
            config.tenants[0].tree.leaf_paths()
        )

    def test_spec_lookup(self, tmp_path):
        config = make_config(tmp_path)
        assert config.spec("alpha") is config.tenants[0]
        with pytest.raises(ConfigurationError, match="no tenant named 'beta'"):
            config.spec("beta")

    @pytest.mark.parametrize(
        "overrides, drop",
        [
            ({}, "checkpoint_dir"),
            ({"port": "http"}, None),
            ({"tenants": 5}, None),
        ],
        ids=["missing-key", "bad-value", "bad-type"],
    )
    def test_malformed_dict_raises_configuration_error(self, tmp_path, overrides, drop):
        document = make_config(tmp_path).to_dict()
        document.update(overrides)
        if drop is not None:
            del document[drop]
        with pytest.raises(ConfigurationError, match="malformed service config"):
            ServiceConfig.from_dict(document)

    def test_replace_overrides(self, tmp_path):
        config = make_config(tmp_path)
        patched = config.replace(port=0, checkpoint_interval=0.0)
        assert patched.port == 0
        assert patched.checkpoint_interval == 0.0
        assert patched.tenants == config.tenants

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_file(path)
        with pytest.raises(ConfigurationError):
            ServiceConfig.from_dict({"tenants": [{"name": "x"}], "checkpoint_dir": "."})
