"""Configuration: three environment variables, read once, under one parse rule.

* :meth:`repro.settings.Settings.from_env` accepts a value or raises a
  :class:`~repro.errors.ConfigurationError` naming the variable — at
  ``Estocada()``, never later and never by falling back to a default;
* the environment is read when a facade is built, not per query;
* a temporary directory ``REPRO_DURABLE=1`` gave a facade goes with the
  facade, while a directory the caller named stays;
* structurally, ``settings.py`` is the only module of ``repro`` that reads
  ``os.environ``, and the per-knob readers it replaced are gone.
"""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import os
import pkgutil
import tempfile
from pathlib import Path

import pytest

import repro
from repro import Estocada
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.core.rewriting import Rewriter
from repro.cost import CostModel
from repro.datamodel import TableSchema
from repro.errors import ConfigurationError
from repro.settings import Settings
from repro.stores import RelationalStore

VARIABLES = ("REPRO_PARALLELISM", "REPRO_DURABLE", "REPRO_SERVICE")
SQL = "SELECT a, b FROM t"


@pytest.fixture
def clean_env(monkeypatch):
    """No ``REPRO_*`` configuration variable set (the CI modes set some)."""
    for variable in VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


def _deploy(est: Estocada) -> Estocada:
    est.register_store("pg", RelationalStore("pg"))
    est.register_relational_dataset("d", [TableSchema("t", ("a", "b"))])
    view = ViewDefinition(
        "F_t",
        ConjunctiveQuery("F_t", ["?a", "?b"], [Atom("t", ["?a", "?b"])]),
        column_names=("a", "b"),
    )
    est.register_fragment(
        StorageDescriptor("F_t", "d", "pg", view, StorageLayout("t"), AccessMethod("scan")),
        rows=[{"a": i, "b": i * 2} for i in range(8)],
    )
    return est


class TestParseRule:
    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_PARALLELISM", "garbage"),
            ("REPRO_PARALLELISM", "0"),
            ("REPRO_PARALLELISM", "-1"),
            ("REPRO_DURABLE", "garbage"),
            ("REPRO_DURABLE", "-1"),
            ("REPRO_DURABLE", "maybe"),
            ("REPRO_SERVICE", "garbage"),
            ("REPRO_SERVICE", "-1"),
            ("REPRO_SERVICE", "maybe"),
        ],
    )
    def test_malformed_value_raises_at_construction(self, clean_env, variable, value):
        clean_env.setenv(variable, value)
        with pytest.raises(ConfigurationError, match=variable) as caught:
            Estocada()
        assert caught.value.variable == variable
        assert isinstance(caught.value, repro.errors.ReproError)

    @pytest.mark.parametrize(
        "variable, value, expected",
        [
            ("REPRO_PARALLELISM", "", Settings()),
            ("REPRO_PARALLELISM", " 3 ", Settings(parallelism=3)),
            ("REPRO_DURABLE", "off", Settings()),
            ("REPRO_DURABLE", "0", Settings()),
            ("REPRO_DURABLE", "Yes", Settings(durable=True)),
            ("REPRO_DURABLE", "/var/data", Settings(durable="/var/data")),
            ("REPRO_SERVICE", "0", Settings()),
            ("REPRO_SERVICE", "ON", Settings(service=True)),
        ],
    )
    def test_accepted_values(self, clean_env, variable, value, expected):
        clean_env.setenv(variable, value)
        assert Settings.from_env() == expected

    def test_unset_environment_gives_the_defaults(self, clean_env):
        est = Estocada()
        assert (est.parallelism, est.durable_path, est.batch_size) == (1, None, 256)

    @pytest.mark.parametrize("value", ["true", "yes", "on"])
    def test_service_switch_words_route_through_a_service(self, clean_env, value):
        clean_env.setenv("REPRO_SERVICE", value)
        est = _deploy(Estocada())
        try:
            assert len(est.query(SQL, dataset="d").rows) == 8
            assert est._ambient_service is not None
        finally:
            if est._ambient_service is not None:
                est._ambient_service.close()


class TestReadOnce:
    def test_service_switch_set_after_construction_is_not_seen(self, clean_env):
        est = _deploy(Estocada())
        clean_env.setenv("REPRO_SERVICE", "1")
        assert len(est.query(SQL, dataset="d").rows) == 8
        assert est._ambient_service is None


class TestDurableDirectories:
    def _drop(self, est: Estocada) -> str:
        store = RelationalStore("pg")
        est.register_store("pg", store)
        store.create_table("t", ("a",))
        store.insert("t", [{"a": i} for i in range(4)])
        return est.durable_path

    def test_temporary_directory_goes_with_its_facade(self, clean_env, tmp_path):
        clean_env.setattr(tempfile, "tempdir", str(tmp_path))
        clean_env.setenv("REPRO_DURABLE", "1")
        est = Estocada()
        path = self._drop(est)
        assert path.startswith(str(tmp_path)) and os.path.isdir(path)
        del est
        gc.collect()
        assert not os.path.exists(path)
        assert not list(tmp_path.glob("repro-durable-*"))

    def test_named_directories_survive_their_facade(self, clean_env, tmp_path):
        clean_env.setenv("REPRO_DURABLE", str(tmp_path / "env"))
        est = Estocada()
        named_by_env = self._drop(est)
        explicit = Estocada(durable_path=str(tmp_path / "arg"))
        named_by_argument = self._drop(explicit)
        del est, explicit
        gc.collect()
        assert os.path.isdir(os.path.join(named_by_env, "pg"))
        assert os.path.isdir(os.path.join(named_by_argument, "pg"))


class TestOneReader:
    SRC = Path(repro.__file__).parent

    def test_only_settings_reads_the_environment(self):
        readers = set()
        for path in self.SRC.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                reads = (
                    isinstance(node, ast.Attribute)
                    and node.attr in {"environ", "getenv", "environb"}
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and {alias.name for alias in node.names} & {"environ", "getenv"}
                )
                if reads:
                    readers.add(path.relative_to(self.SRC).as_posix())
        assert readers == {"settings.py"}

    def test_the_replaced_readers_are_gone(self):
        gone = {
            "default_parallelism",
            "default_batch_size",
            "default_segment_rows",
            "worker_budget",
            "service_routing_enabled",
        }
        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(module_info.name)
            assert not gone & set(vars(module)), module_info.name
            assert not gone & set(getattr(module, "__all__", ())), module_info.name

    def test_unused_pass_through_arguments_are_gone(self):
        def parameters(function):
            return set(inspect.signature(function).parameters)

        assert not parameters(Estocada) & {"drift_threshold", "chase_config", "cost_profiles"}
        assert "profiles" not in parameters(CostModel)
        assert "chase_config" not in parameters(Rewriter)
