"""Static checking of full installation specifications."""

import dataclasses

import pytest

from repro.core import InstallSpec, as_key
from repro.core.errors import TypecheckError
from repro.config import ConfigurationEngine, check_spec, spec_problems


@pytest.fixture
def good_spec(registry, openmrs_partial):
    return ConfigurationEngine(registry).configure(openmrs_partial).spec


def rebuild(spec, **replacements):
    """A copy of ``spec`` with some instances replaced."""
    instances = []
    for instance in spec:
        instances.append(replacements.get(instance.id, instance))
    return InstallSpec(instances)


class TestCleanSpec:
    def test_no_problems(self, registry, good_spec):
        assert spec_problems(registry, good_spec) == []
        check_spec(registry, good_spec)  # no raise


class TestTampering:
    def test_wrong_input_value_detected(self, registry, good_spec):
        openmrs = good_spec["openmrs"]
        bad = dataclasses.replace(
            openmrs,
            inputs={**openmrs.inputs, "database": {
                **openmrs.inputs["database"], "port": 9999
            }},
        )
        problems = spec_problems(registry, rebuild(good_spec, openmrs=bad))
        assert any("linked provider exports" in p for p in problems)

    def test_missing_peer_link_detected(self, registry, good_spec):
        openmrs = good_spec["openmrs"]
        bad = dataclasses.replace(openmrs, peers=())
        problems = spec_problems(registry, rebuild(good_spec, openmrs=bad))
        assert any("unsatisfied peer dependency" in p for p in problems)

    def test_missing_inside_link_detected(self, registry, good_spec):
        openmrs = good_spec["openmrs"]
        bad = dataclasses.replace(openmrs, inside=None)
        problems = spec_problems(registry, rebuild(good_spec, openmrs=bad))
        assert any("missing inside link" in p for p in problems)

    def test_bad_port_type_detected(self, registry, good_spec):
        tomcat = good_spec["tomcat"]
        bad = dataclasses.replace(
            tomcat, config={**tomcat.config, "manager_port": "80"}
        )
        problems = spec_problems(registry, rebuild(good_spec, tomcat=bad))
        assert any("manager_port" in p for p in problems)

    def test_unknown_key_detected(self, registry, good_spec):
        mysql = good_spec["mysql"]
        bad = dataclasses.replace(mysql, key=as_key("NoSuchDB 1"))
        problems = spec_problems(registry, rebuild(good_spec, mysql=bad))
        assert any("unknown resource type" in p for p in problems)

    def test_check_spec_raises(self, registry, good_spec):
        openmrs = good_spec["openmrs"]
        bad = dataclasses.replace(openmrs, peers=())
        with pytest.raises(TypecheckError):
            check_spec(registry, rebuild(good_spec, openmrs=bad))


class TestPhysicalContext:
    def test_env_dep_on_wrong_machine_detected(
        self, registry, openmrs_partial
    ):
        """Move the Java runtime's container to a second machine: the
        environment dependency is then satisfied by an instance in the
        wrong physical context."""
        from repro.core import PartialInstance

        openmrs_partial.add(
            PartialInstance(
                "server2", as_key("Mac-OSX 10.6"),
                config={"hostname": "other"},
            )
        )
        spec = ConfigurationEngine(registry).configure(openmrs_partial).spec
        java_id = next(
            i.id for i in spec if i.key.name in ("JDK", "JRE")
        )
        java = spec[java_id]
        moved = dataclasses.replace(
            java,
            inside=dataclasses.replace(
                java.inside,
                target=spec["server2"].ref(),
            ),
        )
        problems = spec_problems(registry, rebuild(spec, **{java_id: moved}))
        assert any("different machine" in p for p in problems)


def _openjdk_type():
    """A new concrete ``Java`` runtime, registered after the fact."""
    from repro.core import define
    from repro.core.values import Lit, RecordExpr
    from repro.library.base import JAVA_RECORD

    return (
        define("OpenJDK", "1.6", extends="Java")
        .output(
            "java", JAVA_RECORD,
            value=RecordExpr.of(
                home=Lit("/usr/lib/jvm/openjdk-1.6"), version=Lit("1.6"),
                kind=Lit("jdk"),
            ),
        )
        .build()
    )


def _with_openjdk(partial):
    from repro.core import PartialInstallSpec, PartialInstance

    return PartialInstallSpec(list(partial) + [
        PartialInstance("openjdk", as_key("OpenJDK 1.6"), inside_id="server"),
    ])


class TestRegistryVersionedMemos:
    """Lowering and link verdicts are memoized per registry version, so
    registering a type after a configure changes the next one."""

    def test_new_concrete_subtype_changes_lowering_and_typecheck(
        self, registry, openmrs_partial
    ):
        from repro.config import lower_alternatives
        from repro.library import standard_registry

        extended = standard_registry()
        extended.register(_openjdk_type())
        partial = _with_openjdk(openmrs_partial)
        expected = ConfigurationEngine(extended).configure(partial).spec

        # Warm every memo on the registry that is about to change.
        ConfigurationEngine(registry).configure(openmrs_partial)
        java_dep = registry.effective(as_key("Tomcat 6.0.18")).environment[0]
        assert as_key("OpenJDK 1.6") not in {
            alt.key for alt in lower_alternatives(registry, java_dep)
        }
        problems = spec_problems(registry, expected)
        assert any(
            p.startswith("tomcat: unsatisfied environment dependency")
            for p in problems
        )

        registry.register(_openjdk_type())
        assert as_key("OpenJDK 1.6") in {
            alt.key for alt in lower_alternatives(registry, java_dep)
        }
        assert spec_problems(registry, expected) == []
        spec = ConfigurationEngine(registry).configure(partial).spec
        (java_link,) = spec["tomcat"].environment
        assert java_link.target.id == "openjdk"
        assert [i for i in spec] == [i for i in expected]
